type t = {
  cluster : Hbaselike.Cluster.t;
  monitor : string Monitor.t;
  (* Activity per subject: follower applies and resyncs bump it, so a
     sweep can skip re-checking a replica whose (rev, activity) pair is
     unchanged since the last completed check. *)
  activity : (string, int) Hashtbl.t;
  checked : (string, int * int) Hashtbl.t;
  commit_times : (int, int) Hashtbl.t;
  lag_grace : int;
}

let monitor t = t.monitor

(* The only monitored event stream is ZooKeeper replication: the
   follower's applied frontier against the leader-committed history.
   Region-server watch streams are deliberately NOT event streams here:
   one-shot watches drop everything between a firing and the re-arm by
   design, so feeding them to the frontier checks would flag the
   protocol, not a defect. Their views are covered by the region-map
   state checks instead. *)
let repl_stream t =
  let zk = Hbaselike.Cluster.zk t.cluster in
  Hbaselike.Zk.follower zk ^ "<-" ^ Hbaselike.Zk.leader zk

let note_activity t subject =
  Hashtbl.replace t.activity subject
    (1 + try Hashtbl.find t.activity subject with Not_found -> 0)

let check_state_cached t ~subject ~rev state =
  let sig_now = (rev, try Hashtbl.find t.activity subject with Not_found -> 0) in
  if Hashtbl.find_opt t.checked subject <> Some sig_now then begin
    Monitor.check_state t.monitor ~subject ~rev state;
    if rev <= Monitor.mirror_rev t.monitor then Hashtbl.replace t.checked subject sig_now
  end

(* Replication delay is FIFO, so pure staleness never trips the frontier
   checks; age the first undelivered committed event against the clock
   instead, exactly like the kube sweep. *)
let lag_sweep t =
  if Monitor.tracking t.monitor then begin
    let zk = Hbaselike.Cluster.zk t.cluster in
    let now = Dsim.Engine.now (Hbaselike.Cluster.engine t.cluster) in
    let frontier = Hbaselike.Zk.follower_caught_up_to zk in
    match Monitor.first_undelivered t.monitor ~after:frontier () with
    | Some e -> (
        let rev = e.History.Event.rev in
        match Hashtbl.find_opt t.commit_times rev with
        | Some at when now - at > t.lag_grace ->
            Monitor.note_lag t.monitor ~stream:(repl_stream t) ~rev ~key:e.History.Event.key
              (Printf.sprintf "committed %s still undelivered after %d us"
                 (History.Event.describe e) (now - at))
        | Some _ | None -> ())
    | None -> ()
  end

let check_sweep t =
  let zk = Hbaselike.Cluster.zk t.cluster in
  (* The follower must be stale-but-never-wrong: its materialized state
     is compared against the committed history at exactly its claimed
     leader frontier, so honest replication lag stays silent while a
     divergent apply (or a post-compaction resync that rewrote history)
     trips State_divergence. *)
  check_state_cached t ~subject:(Hbaselike.Zk.follower zk)
    ~rev:(Hbaselike.Zk.follower_caught_up_to zk)
    (Hbaselike.Zk.observed_state zk);
  lag_sweep t

let finish t = check_sweep t

let attach ?strict ?(track_divergence = false) ?(lag_grace = 250_000) ?(check_period = 500_000)
    cluster =
  let engine = Hbaselike.Cluster.engine cluster in
  let metrics = Dsim.Engine.metrics engine in
  let on_violation v =
    Dsim.Metrics.incr metrics "conformance.violations";
    Dsim.Engine.record engine ~actor:"conformance" ~kind:"conformance.violation"
      (Monitor.describe v)
  in
  let monitor = Monitor.create ?strict ~track_divergence ~on_violation () in
  let t =
    {
      cluster;
      monitor;
      activity = Hashtbl.create 16;
      checked = Hashtbl.create 16;
      commit_times = Hashtbl.create 64;
      lag_grace;
    }
  in
  let zk = Hbaselike.Cluster.zk cluster in
  let leader_kv = Hbaselike.Zk.leader_kv zk in
  (* Mirror feed: the dispatch listeners [Zk.create] registered only
     enqueue network casts, so the mirror holds every commit before any
     delivery is observed. *)
  Etcdlike.Kv.on_commit leader_kv (Monitor.note_commit monitor);
  if track_divergence then
    Etcdlike.Kv.on_commit leader_kv (fun e ->
        Hashtbl.replace t.commit_times e.History.Event.rev (Dsim.Engine.now engine));
  let follower = Hbaselike.Zk.follower zk in
  Hbaselike.Zk.on_follower_apply zk (fun e ->
      note_activity t follower;
      Monitor.observe_event monitor ~stream:(repl_stream t) e);
  Hbaselike.Zk.on_follower_resync zk (fun rev ->
      note_activity t follower;
      Monitor.observe_reset monitor ~stream:(repl_stream t) ~rev
        (Hbaselike.Zk.observed_state zk);
      (* The reset itself is legal (full state transfer), but it leaves
         the replica numbering events in its own local domain. If readers
         observe that domain, the observed history has stepped outside
         the committed one: revision-level time travel the frontier
         checks cannot see, because both histories keep moving forward in
         their own numbering. *)
      let local = Hbaselike.Zk.follower_rev zk in
      if (not (Hbaselike.Zk.serves_leader_revs zk)) && local <> rev then
        Monitor.note_rewind monitor ~stream:(repl_stream t) ~rev:local ~key:""
          (Printf.sprintf
             "post-compaction resync left local numbering at revision %d while the \
              committed history is at %d; follower reads now report revisions from a \
              drifted domain"
             local rev));
  (* First deliberate drop ends strict mode: gaps become the experiment. *)
  History.Intercept.set_observer (Hbaselike.Cluster.intercept cluster)
    (fun _edge _event decision ->
      match decision with History.Intercept.Drop -> Monitor.relax monitor | _ -> ());
  Dsim.Engine.every ~tag:"conformance.sweep" engine ~period:check_period (fun () ->
      check_sweep t;
      true);
  t

type t = {
  cluster : Kube.Cluster.t;
  monitor : Kube.Resource.value Monitor.t;
  (* Tap callbacks per component: every cache mutation fires a tap, so a
     component whose (rev, activity) pair is unchanged since the last
     sweep provably has the same cache — its re-check is skipped. *)
  activity : (string, int) Hashtbl.t;
  checked : (string, int * int) Hashtbl.t;  (* subject -> (rev, activity) at last full check *)
  (* Divergence tracking: commit times by revision, so the sweep can age
     the first undelivered event of every stream against the clock. *)
  commit_times : (int, int) Hashtbl.t;
  lag_grace : int;
}

let monitor t = t.monitor

let violations t = Monitor.violations t.monitor

let note_activity t (view : Kube.Tap.view) =
  let c = view.Kube.Tap.component in
  Hashtbl.replace t.activity c (1 + try Hashtbl.find t.activity c with Not_found -> 0)

let tap_of t =
  let monitor = t.monitor in
  {
    Kube.Tap.on_event =
      (fun view e ->
        note_activity t view;
        Monitor.observe_event monitor ~stream:view.Kube.Tap.stream ?prefix:view.Kube.Tap.prefix e);
    on_advance =
      (fun view _rev ->
        note_activity t view;
        Monitor.observe_advance monitor ~stream:view.Kube.Tap.stream ?prefix:view.Kube.Tap.prefix
          ~rev:view.Kube.Tap.rev ());
    on_reset =
      (fun view ->
        note_activity t view;
        Monitor.observe_reset monitor ~stream:view.Kube.Tap.stream ?prefix:view.Kube.Tap.prefix
          ~rev:view.Kube.Tap.rev view.Kube.Tap.state);
  }

(* Re-checking an unchanged cache against an unchanged claim is pure
   waste: skip a subject when both its claimed revision and its tap
   activity count match the last fully-performed check. The signature is
   only recorded when the check actually ran to completion (the claimed
   revision was inside the mirror), so a future-rev claim is re-examined
   once the mirror catches up. *)
let check_state_cached t ~component ~subject ?prefix ~rev state =
  let activity = try Hashtbl.find t.activity component with Not_found -> 0 in
  let unchanged =
    match Hashtbl.find t.checked subject with
    | checked_rev, checked_activity -> checked_rev = rev && checked_activity = activity
    | exception Not_found -> false
  in
  if not unchanged then begin
    Monitor.check_state t.monitor ~subject ?prefix ~rev state;
    if rev <= Monitor.mirror_rev t.monitor then Hashtbl.replace t.checked subject (rev, activity)
  end

(* Pure delay is invisible to the frontier checks (FIFO pipes preserve
   the subsequence), so staleness-by-lag is measured here: a stream whose
   first undelivered matching event has aged past the grace period is
   diverging — its decisions run on a view the store has left behind. The
   grace sits well above transport latency and below any injected delay
   worth diagnosing. *)
let lag_sweep t =
  if Monitor.tracking t.monitor then begin
    let now = Dsim.Engine.now (Kube.Cluster.engine t.cluster) in
    let flag ~stream ?prefix ~frontier () =
      match Monitor.first_undelivered t.monitor ?prefix ~after:frontier () with
      | Some e ->
          let rev = e.History.Event.rev in
          (match Hashtbl.find_opt t.commit_times rev with
          | Some at when now - at > t.lag_grace ->
              Monitor.note_lag t.monitor ~stream ~rev ~key:e.History.Event.key
                (Printf.sprintf "committed %s still undelivered after %d us"
                   (History.Event.describe e) (now - at))
          | Some _ | None -> ())
      | None -> ()
    in
    let etcd_name = Kube.Etcd.name (Kube.Cluster.etcd t.cluster) in
    (* Replicated backend: each replica's applied frontier is a stream
       off the canonical (leader-committed) history — replication lag
       registers as a Lag divergence on ["<replica><-raft"], exactly like
       a consumer cache falling behind. Empty for the single backend. *)
    List.iter
      (fun (id, rev) -> flag ~stream:(id ^ "<-raft") ~frontier:rev ())
      (Kube.Etcd.replica_revs (Kube.Cluster.etcd t.cluster));
    List.iter
      (fun a ->
        if Kube.Apiserver.ready a then
          flag ~stream:(Kube.Apiserver.name a ^ "<-" ^ etcd_name) ~frontier:(Kube.Apiserver.rev a)
            ())
      (Kube.Cluster.apiservers t.cluster);
    List.iter
      (fun i ->
        if Kube.Informer.running i then
          flag
            ~stream:(Kube.Informer.stream i)
            ~prefix:(Kube.Informer.prefix i) ~frontier:(Kube.Informer.rev i) ())
      (Kube.Cluster.informers t.cluster)
  end

let check_sweep t =
  (* Replica state machines must be stale-but-never-wrong: each one's
     applied store is checked against the committed history at exactly
     its claimed revision, so a non-deterministic apply trips
     State_divergence while honest lag stays silent. *)
  Option.iter
    (fun rkv ->
      List.iter
        (fun id ->
          match Replicated.Kv.replica_store rkv id with
          | Some store ->
              check_state_cached t ~component:id ~subject:(id ^ "<-raft")
                ~rev:(Etcdlike.Kv.rev store) (Etcdlike.Kv.state store)
          | None -> ())
        (Replicated.Kv.replica_ids rkv))
    (Kube.Etcd.replicated_kv (Kube.Cluster.etcd t.cluster));
  List.iter
    (fun a ->
      check_state_cached t ~component:(Kube.Apiserver.name a) ~subject:(Kube.Apiserver.name a)
        ~rev:(Kube.Apiserver.rev a) (Kube.Apiserver.cache a))
    (Kube.Cluster.apiservers t.cluster);
  List.iter
    (fun i ->
      if Kube.Informer.running i then
        check_state_cached t ~component:(Kube.Informer.owner i)
          ~subject:(Kube.Informer.stream i)
          ~prefix:(Kube.Informer.prefix i) ~rev:(Kube.Informer.rev i) (Kube.Informer.store i))
    (Kube.Cluster.informers t.cluster);
  lag_sweep t

let finish t = check_sweep t

let attach ?strict ?(track_divergence = false) ?(lag_grace = 250_000) ?(check_period = 500_000)
    cluster =
  let engine = Kube.Cluster.engine cluster in
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
  (* Before the consumers: commit listeners run in registration order,
     and the mirror must already hold an event when its delivery taps
     fire. [Cluster.create] registered etcd's own hub first, so the
     mirror sits between the store and every watch stream. *)
  Kube.Etcd.on_commit (Kube.Cluster.etcd cluster) (Monitor.note_commit monitor);
  if track_divergence then
    Kube.Etcd.on_commit (Kube.Cluster.etcd cluster) (fun e ->
        Hashtbl.replace t.commit_times e.History.Event.rev (Dsim.Engine.now engine));
  let tap = Some (tap_of t) in
  List.iter (fun a -> Kube.Apiserver.set_tap a tap) (Kube.Cluster.apiservers cluster);
  (* Informers are created by [Cluster.start], which runs after attach:
     install their taps at the first engine dispatch. [set_tap] replays
     any list the informer adopted in between as a reset, so the
     monitor's frontiers start at the adopted revision. *)
  ignore
    (Dsim.Engine.schedule engine ~delay:0 (fun () ->
         List.iter (fun i -> Kube.Informer.set_tap i tap) (Kube.Cluster.informers cluster)));
  (* The first deliberate drop ends strict mode: from then on the run is
     *supposed* to contain gaps and stale caches. Delays and partitions
     keep it — FIFO pipes and re-list recovery preserve completeness. *)
  History.Intercept.set_observer (Kube.Cluster.intercept cluster) (fun _edge _event decision ->
      match decision with History.Intercept.Drop -> Monitor.relax monitor | _ -> ());
  Dsim.Engine.every ~tag:"conformance.sweep" engine ~period:check_period (fun () ->
      check_sweep t;
      true);
  t

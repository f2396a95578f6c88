(* A replay is what one perturbation hands the simulated consumer: the
   deliveries it sees, the revisions its cache skips applying, and the
   frontier it finally claims — by a state spot-check at a revision, or
   by advancing its stream frontier without one. *)
type claim = State of int | Frontier of int

type replay = {
  delivered : string History.Event.t list;
  unapplied : int list;
  claim : claim;
}

type mutation = {
  name : string;
  expected : Monitor.code option;
  (* the committed history and a random index that is never the last *)
  perturb : string History.Event.t array -> k:int -> replay;
}

type table = { keys : string array; mutations : mutation list }

type outcome = {
  mutation : string;
  tripped : bool;
  codes : Monitor.code list;
  expected : Monitor.code option;
}

let mutations table = List.map (fun m -> m.name) table.mutations

let ok o =
  if String.equal o.mutation "control" then not o.tripped
  else
    o.tripped
    && match o.expected with Some code -> List.mem code o.codes | None -> true

let head_rev committed = committed.(Array.length committed - 1).History.Event.rev

let faithful committed =
  { delivered = Array.to_list committed; unapplied = []; claim = State (head_rev committed) }

(* Event [k] never arrives; everything after it still flows, so a later
   delivery always exposes the hole. *)
let drop committed ~k =
  {
    delivered = List.filteri (fun i _ -> i <> k) (Array.to_list committed);
    unapplied = [ committed.(k).History.Event.rev ];
    claim = State (head_rev committed);
  }

(* The delivered payload of event [k] differs from the committed one. *)
let corrupt value committed ~k =
  {
    (faithful committed) with
    delivered =
      List.mapi
        (fun i (e : string History.Event.t) ->
          if i = k then { e with History.Event.value = Some value } else e)
        (Array.to_list committed);
  }

let control =
  { name = "control"; expected = None; perturb = (fun committed ~k:_ -> faithful committed) }

let kube =
  {
    keys = Array.init 6 (fun i -> Printf.sprintf "pods/p%d" i);
    mutations =
      [
        { name = "drop-event"; expected = None; perturb = drop };
        {
          name = "reorder-deliveries";
          expected = None;
          perturb =
            (fun committed ~k ->
              {
                (faithful committed) with
                delivered =
                  List.concat
                    (List.mapi
                       (fun i e ->
                         if i = k then [ committed.(k + 1); e ]
                         else if i = k + 1 then []
                         else [ e ])
                       (Array.to_list committed));
              });
        };
        {
          name = "stale-cache";
          expected = None;
          (* Every event delivered, but the cache missed applying the final
             one while still claiming the full revision — skipping the last
             event (rather than a random one) guarantees the divergence is
             never papered over by a later write to the same key. *)
          perturb =
            (fun committed ~k:_ ->
              { (faithful committed) with unapplied = [ head_rev committed ] });
        };
        { name = "corrupt-value"; expected = None; perturb = corrupt "corrupted-by-selftest" };
        {
          name = "future-claim";
          expected = None;
          perturb =
            (fun committed ~k:_ ->
              { (faithful committed) with claim = Frontier (head_rev committed + 5) });
        };
      ];
  }

let hbase =
  {
    keys = [| "region/r0"; "region/r1"; "region/r2"; "region/r3"; "rs/registry" |];
    mutations =
      [
        (* The znode's one-shot watch was consumed at event [k]'s commit
           and the notification never arrived: everything after still
           flows (the re-arm succeeded), but [k] is lost between fire and
           re-arm. *)
        { name = "drop-zk-notify"; expected = Some Monitor.Gap; perturb = drop };
        {
          name = "stale-region-map";
          expected = Some Monitor.State_divergence;
          (* A catch-up pull stopped one event short, but the master's
             region map claims the leader's head revision anyway. The
             final commit is a real commit, so the truncated map can never
             coincide with the committed head state. *)
          perturb =
            (fun committed ~k:_ ->
              let n = Array.length committed in
              {
                (faithful committed) with
                delivered = List.filteri (fun i _ -> i < n - 1) (Array.to_list committed);
              });
        };
        {
          name = "forge-znode";
          expected = Some Monitor.Content;
          perturb = corrupt "forged-by-selftest";
        };
      ];
  }

let distinct_codes violations =
  List.fold_left
    (fun acc (v : Monitor.violation) ->
      if List.mem v.Monitor.code acc then acc else acc @ [ v.Monitor.code ])
    [] violations

(* A committed history with enough texture to perturb: puts and deletes
   over a small key pool, through the real store so ops/mod-revs are the
   production ones. *)
let generate_history rng ~keys ~events =
  let kv : string Etcdlike.Kv.t = Etcdlike.Kv.create () in
  let counter = ref 0 in
  while Etcdlike.Kv.rev kv < events do
    let key = Dsim.Rng.pick rng keys in
    if Dsim.Rng.chance rng 0.3 then ignore (Etcdlike.Kv.delete kv key)
    else begin
      incr counter;
      ignore (Etcdlike.Kv.put kv key (Printf.sprintf "v%d" !counter))
    end
  done;
  match Etcdlike.Kv.since kv ~rev:0 with Ok events -> events | Error _ -> assert false

(* Replays the deliveries to a consumer stream, building its cache the
   way an informer does, then makes the replay's claim. *)
let replay monitor ~committed { delivered; unapplied; claim } =
  List.iter (Monitor.note_commit monitor) committed;
  let state =
    List.fold_left
      (fun state (e : string History.Event.t) ->
        Monitor.observe_event monitor ~stream:"selftest" e;
        if List.mem e.History.Event.rev unapplied then state else History.State.apply state e)
      History.State.empty delivered
  in
  match claim with
  | State rev -> Monitor.check_state monitor ~subject:"selftest" ~rev state
  | Frontier rev -> Monitor.observe_advance monitor ~stream:"selftest" ~rev ()

let run ?(seed = 20260704L) ?(events = 40) table =
  let rng = Dsim.Rng.create seed in
  let committed = generate_history rng ~keys:table.keys ~events in
  let arr = Array.of_list committed in
  let n = Array.length arr in
  assert (n >= 10);
  (* Never the last event, so a later delivery always exposes the hole. *)
  let k = Dsim.Rng.int rng (n - 1) in
  List.map
    (fun m ->
      let monitor = Monitor.create () in
      replay monitor ~committed (m.perturb arr ~k);
      let violations = Monitor.violations monitor in
      {
        mutation = m.name;
        tripped = violations <> [];
        codes = distinct_codes violations;
        expected = m.expected;
      })
    (control :: table.mutations)

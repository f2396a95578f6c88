type pattern = [ `Staleness | `Obs_gap | `Time_travel ]

let pattern_to_string = function
  | `Staleness -> "staleness"
  | `Obs_gap -> "observability-gap"
  | `Time_travel -> "time-travel"

type cell = { component : string; key : string; pattern : pattern }

type t = {
  targets : Planner.target list;
  keys : string list;  (** distinct reference keys *)
  all_cells : cell list;  (** the space, in enumeration order *)
  valid : (cell, unit) Hashtbl.t;  (** same cells, O(1) membership *)
  marked : (cell, unit) Hashtbl.t;
}

let enumerate targets keys =
  List.concat_map
    (fun target ->
      List.concat_map
        (fun key ->
          if Planner.consumed_by target key then
            List.map
              (fun pattern -> { component = target.Planner.component; key; pattern })
              [ `Staleness; `Obs_gap; `Time_travel ]
          else [])
        keys)
    targets

let of_targets targets ~events =
  let keys = List.sort_uniq String.compare (List.map (fun (_, key, _) -> key) events) in
  let all_cells = enumerate targets keys in
  let valid = Hashtbl.create (max 16 (List.length all_cells)) in
  List.iter (fun cell -> Hashtbl.replace valid cell ()) all_cells;
  { targets; keys; all_cells; valid; marked = Hashtbl.create 128 }

let create ~config ~events = of_targets (Planner.targets_of_config config) ~events

let create_hbase ~config ~events = of_targets (Planner.targets_hbase config) ~events

let matching_keys t prefix =
  match prefix with
  | None -> t.keys
  | Some p ->
      List.filter
        (fun key ->
          String.length key >= String.length p
          && String.equal (String.sub key 0 (String.length p)) p)
        t.keys

let all_components t = List.map (fun target -> target.Planner.component) t.targets

let is_apiserver name =
  String.length name >= 4 && String.equal (String.sub name 0 4) "api-"

(* "etcd" (single backend), "etcd-<k>" (a replica of the replicated
   backend) or "zk-<role>" (the HBase substrate's ZooKeeper pair):
   faulting either side of the store makes every consumer's view
   potentially stale. *)
let is_store name =
  (String.length name >= 4 && String.equal (String.sub name 0 4) "etcd")
  || (String.length name >= 3 && String.equal (String.sub name 0 3) "zk-")

let rec cells_of t (strategy : Strategy.t) =
  let scoped components ~key_prefix pattern =
    List.concat_map
      (fun component ->
        List.filter_map
          (fun key ->
            let cell = { component; key; pattern } in
            if Hashtbl.mem t.valid cell then Some cell else None)
          (matching_keys t key_prefix))
      components
  in
  match strategy with
  | Strategy.No_perturbation -> []
  (* A delivery fault whose destination is a store replica (the HBase
     follower) starves every consumer reading through it, not a single
     component. *)
  | Strategy.Drop_events { dst; matching; _ } ->
      let components =
        match dst with
        | Some c when is_store c -> all_components t
        | Some c -> [ c ]
        | None -> all_components t
      in
      scoped components ~key_prefix:matching.Strategy.key_prefix `Obs_gap
  | Strategy.Delay_stream { dst; matching; _ } ->
      let components =
        match dst with
        | Some c when is_store c -> all_components t
        | Some c -> [ c ]
        | None -> all_components t
      in
      scoped components ~key_prefix:matching.Strategy.key_prefix `Staleness
  | Strategy.Partition_window { a; b; _ } ->
      (* Freezing an apiserver makes every component potentially stale;
         cutting a component's own link makes that component stale. *)
      let components =
        if is_apiserver a || is_apiserver b || is_store a || is_store b then all_components t
        else List.filter (fun c -> String.equal c a || String.equal c b) (all_components t)
      in
      scoped components ~key_prefix:None `Staleness
  | Strategy.Crash_restart { victim; _ } ->
      if List.mem victim (all_components t) then
        scoped [ victim ] ~key_prefix:None `Time_travel
      else if is_store victim then
        (* A crashed replica (or leader) stalls or re-routes every read
           pinned to it: staleness raw material for all consumers. *)
        scoped (all_components t) ~key_prefix:None `Staleness
      else []
  | Strategy.Combo parts -> List.concat_map (cells_of t) parts

let note t strategy =
  List.iter (fun cell -> Hashtbl.replace t.marked cell ()) (cells_of t strategy)

let gain t strategy =
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun cell -> if not (Hashtbl.mem t.marked cell) then Hashtbl.replace fresh cell ())
    (cells_of t strategy);
  Hashtbl.length fresh

let cells t = t.all_cells

let total t = List.length t.all_cells

let covered t = Hashtbl.length t.marked

let ratio t =
  let n = total t in
  if n = 0 then 0.0 else float_of_int (covered t) /. float_of_int n

let by_pattern t =
  List.map
    (fun pattern ->
      let in_pattern = List.filter (fun c -> c.pattern = pattern) t.all_cells in
      let done_ = List.filter (Hashtbl.mem t.marked) in_pattern in
      (pattern, List.length done_, List.length in_pattern))
    [ `Staleness; `Obs_gap; `Time_travel ]

let uncovered t =
  t.all_cells
  |> List.filter (fun c -> not (Hashtbl.mem t.marked c))
  |> List.sort compare

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
  ids : (cell, int) Hashtbl.t;  (** each cell's position in [all_cells] *)
  marked : bool array;  (** by id *)
  mutable covered : int;  (** number of [true]s in [marked] *)
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
  let n = List.length all_cells in
  let ids = Hashtbl.create (max 16 n) in
  List.iteri (fun id cell -> Hashtbl.replace ids cell id) all_cells;
  { targets; keys; all_cells; ids; marked = Array.make n false; covered = 0 }

let create ~config ~events = of_targets (Planner.targets_of_config config) ~events

let create_hbase ~config ~events = of_targets (Planner.targets_hbase config) ~events

let matching_keys t prefix =
  match prefix with
  | None -> t.keys
  | Some p -> List.filter (String.starts_with ~prefix:p) t.keys

let all_components t = List.map (fun target -> target.Planner.component) t.targets

let is_apiserver name = String.starts_with ~prefix:"api-" name

(* "etcd" (single backend), "etcd-<k>" (a replica of the replicated
   backend) or "zk-<role>" (the HBase substrate's ZooKeeper pair):
   faulting either side of the store makes every consumer's view
   potentially stale. *)
let is_store name = String.starts_with ~prefix:"etcd" name || String.starts_with ~prefix:"zk-" name

(* Calls [f cell id] for every in-space cell the strategy exercises, in
   {!cells_of} order (duplicates included). *)
let rec iter_cells t f (strategy : Strategy.t) =
  let scoped components ~key_prefix pattern =
    let keys = matching_keys t key_prefix in
    List.iter
      (fun component ->
        List.iter
          (fun key ->
            let cell = { component; key; pattern } in
            match Hashtbl.find_opt t.ids cell with Some id -> f cell id | None -> ())
          keys)
      components
  in
  match strategy with
  | Strategy.No_perturbation -> ()
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
      else ()
  | Strategy.Combo parts -> List.iter (iter_cells t f) parts

let cells_of t strategy =
  let acc = ref [] in
  iter_cells t (fun cell _ -> acc := cell :: !acc) strategy;
  List.rev !acc

let cell_ids t strategy =
  let acc = ref [] in
  iter_cells t (fun _ id -> acc := id :: !acc) strategy;
  Array.of_list (List.sort_uniq Int.compare !acc)

let is_marked t id = t.marked.(id)

let note t strategy =
  iter_cells t
    (fun _ id ->
      if not t.marked.(id) then begin
        t.marked.(id) <- true;
        t.covered <- t.covered + 1
      end)
    strategy

let cells t = t.all_cells

let total t = Array.length t.marked

let covered t = t.covered

let ratio t =
  let n = total t in
  if n = 0 then 0.0 else float_of_int (covered t) /. float_of_int n

let by_pattern t =
  let done_ = List.filteri (fun id _ -> t.marked.(id)) t.all_cells in
  let count pattern cells = List.length (List.filter (fun c -> c.pattern = pattern) cells) in
  List.map
    (fun pattern -> (pattern, count pattern done_, count pattern t.all_cells))
    [ `Staleness; `Obs_gap; `Time_travel ]

let uncovered t = t.all_cells |> List.filteri (fun id _ -> not t.marked.(id)) |> List.sort compare

type attached = {
  violations : unit -> (int * Oracle.violation) list;
  hooks : Conformance.Handle.t option;
}

type t = {
  targets : Planner.target list;
  fault_endpoints : string list;
  candidates : events:(int * string * History.Event.op) list -> horizon:int -> Planner.plan list;
  candidates_causal : commits:Planner.commit list -> horizon:int -> Planner.plan list;
  coverage : events:(int * string * History.Event.op) list -> Coverage.t;
  attach : Substrate.live -> monitor:bool -> track_divergence:bool -> Strategy.t -> attached;
  reference_feed :
    Substrate.live -> (key:string -> op:History.Event.op -> rev:int -> unit) -> int -> string;
}

let forward note (e : _ History.Event.t) =
  note ~key:e.History.Event.key ~op:e.History.Event.op ~rev:e.History.Event.rev

let kube (config : Kube.Cluster.config) =
  {
    targets = Planner.targets_of_config config;
    fault_endpoints =
      List.init config.Kube.Cluster.apiservers (fun i -> Printf.sprintf "api-%d" (i + 1));
    candidates = (fun ~events ~horizon -> Planner.candidates ~config ~events ~horizon ());
    candidates_causal =
      (fun ~commits ~horizon -> Planner.candidates_causal ~config ~commits ~horizon ());
    coverage = (fun ~events -> Coverage.create ~config ~events);
    attach =
      (fun live ~monitor ~track_divergence strategy ->
        let cluster = Substrate.kube live in
        let oracle = Oracle.attach cluster in
        let hooks =
          if monitor then
            Some
              (Conformance.Handle.of_kube (Conformance.Hooks.attach ~track_divergence cluster))
          else None
        in
        Strategy.apply cluster strategy;
        { violations = (fun () -> Oracle.violations oracle); hooks });
    reference_feed =
      (fun live note ->
        let etcd = Kube.Cluster.etcd (Substrate.kube live) in
        Kube.Etcd.on_commit etcd (forward note);
        Kube.Etcd.origin_of_rev etcd);
  }

let hbase (config : Hbaselike.Cluster.config) =
  {
    targets = Planner.targets_hbase config;
    (* Consumers talk to the ZooKeeper pair directly: its two ends are
       what a store-side fault can cut. *)
    fault_endpoints = [ "zk-leader"; "zk-follower" ];
    candidates = (fun ~events ~horizon -> Planner.candidates_hbase ~config ~events ~horizon ());
    candidates_causal =
      (fun ~commits ~horizon -> Planner.candidates_causal_hbase ~config ~commits ~horizon ());
    coverage = (fun ~events -> Coverage.create_hbase ~config ~events);
    attach =
      (fun live ~monitor ~track_divergence strategy ->
        let cluster = Substrate.hbase live in
        let oracle = Hbase_oracle.attach cluster in
        let hooks =
          if monitor then
            Some
              (Conformance.Handle.of_hbase
                 (Conformance.Hbase_hooks.attach ~track_divergence cluster))
          else None
        in
        Strategy.apply_hbase cluster strategy;
        { violations = (fun () -> Hbase_oracle.violations oracle); hooks });
    reference_feed =
      (fun live note ->
        let zk = Hbaselike.Cluster.zk (Substrate.hbase live) in
        Etcdlike.Kv.on_commit (Hbaselike.Zk.leader_kv zk) (forward note);
        Hbaselike.Zk.origin_of_rev zk);
  }

let of_spec = function
  | Substrate.Kube { config; _ } -> kube config
  | Substrate.Hbase { config; _ } -> hbase config

let components t = List.map (fun (target : Planner.target) -> target.Planner.component) t.targets

let kube_spec ?(config = Kube.Cluster.default_config) workload =
  Substrate.Kube { config; workload }

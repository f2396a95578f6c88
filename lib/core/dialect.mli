(** The one seam between the dialect-blind layers and the infrastructure
    a test drives.

    Everything that differs between the kube (including kube-over-Raft)
    and the HBase dialect lives in one record, selected once per spec by
    {!of_spec}: the planner's targets, the fault endpoints the baselines
    aim at, the plain and causal candidate enumerations, the coverage
    space, the per-trial attach step and the reference run's commit feed.
    {!Runner}, the hunt campaign, diagnosis and the CLI call the record
    and never match on a dialect. Adding a dialect means adding a
    {!Substrate} constructor pair and one builder here (its static
    footprints go behind [Analysis.Footprint.of_spec]). *)

type attached = {
  violations : unit -> (int * Oracle.violation) list;
      (** the oracle's findings so far, oldest first *)
  hooks : Conformance.Handle.t option;  (** the monitor, when attached *)
}

type t = {
  targets : Planner.target list;  (** the consumers whose views the planner perturbs *)
  fault_endpoints : string list;
      (** the store-side addresses consumers read from: the baselines'
          partition endpoints (["api-N"] or ["zk-leader"; "zk-follower"]) *)
  candidates : events:(int * string * History.Event.op) list -> horizon:int -> Planner.plan list;
      (** the planner's candidates over plain reference events *)
  candidates_causal : commits:Planner.commit list -> horizon:int -> Planner.plan list;
      (** the same set, ranked by each commit's origin *)
  coverage : events:(int * string * History.Event.op) list -> Coverage.t;
      (** the (component, key, pattern) space over the targets *)
  attach : Substrate.live -> monitor:bool -> track_divergence:bool -> Strategy.t -> attached;
      (** Wires one trial onto a cluster freshly created from the same
          spec (another dialect's cluster raises [Invalid_argument]), in
          the order the pinned journals depend on: oracle, then (with
          [monitor]) the conformance monitor, then the strategy. Call
          before {!Substrate.start}. *)
  reference_feed :
    Substrate.live -> (key:string -> op:History.Event.op -> rev:int -> unit) -> int -> string;
      (** [reference_feed live note] registers [note] on every committed
          event of the cluster's store and returns the lookup from a
          committed revision to the component whose transaction produced
          it (valid once the run is over). *)
}

val of_spec : Substrate.spec -> t

val components : t -> string list
(** The targets' addresses, in planner order. *)

val kube_spec : ?config:Kube.Cluster.config -> Kube.Workload.t -> Substrate.spec
(** A kube-dialect spec; [config] defaults to
    {!Kube.Cluster.default_config}. *)

(** Conformance taps for the HBase substrate: one {!Monitor} threaded
    through the ZooKeeper delivery boundaries.

    The monitored stream is leader→follower replication — the follower's
    observed [(H', S')] against the leader's committed [(H, S)] — plus
    periodic state spot-checks of the follower replica at its claimed
    frontier. One-shot watch deliveries are {e not} frontier-checked:
    losing the events between a firing and the re-arm is the protocol's
    documented behaviour (the §4.2.3 observability gap under study), not
    a simulator defect. *)

type t

val attach :
  ?strict:bool -> ?track_divergence:bool -> ?lag_grace:int -> ?check_period:int ->
  Hbaselike.Cluster.t -> t
(** Attach after {!Hbaselike.Cluster.create}, before [start]. Strict mode
    relaxes automatically at the first interceptor [Drop]. *)

val monitor : t -> string Monitor.t

val finish : t -> unit
(** Final sweep; call once the run is over. *)

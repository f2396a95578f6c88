(** Mutation self-test: proof the monitor has teeth.

    A monitor that never fires is indistinguishable from a monitor that
    checks nothing, so the conformance layer ships with its own killers:
    a committed history is generated, then replayed to a simulated
    consumer with one deliberate perturbation — a dropped delivery, two
    reordered deliveries, a stale cache claiming a fresh revision, a
    corrupted event value, a frontier beyond the committed history — and
    each perturbation must trip the monitor (while the unperturbed
    control replay must not).

    One generator and one replay serve every dialect: a per-dialect
    {!table} names the perturbations and, where a defect must surface as
    one specific alarm, the violation code it has to trip.

    Deterministic for a given seed; a soak runs many derived seeds. The
    perturbations are constructed to be detectable for {e every} seed
    (e.g. the dropped event is never the last one, so a later delivery
    always exposes the gap). *)

type table
(** A dialect's mutations over its own key shapes. *)

val kube : table
(** Informer-boundary mutations over [pods/*] keys — ["drop-event"],
    ["reorder-deliveries"], ["stale-cache"], ["corrupt-value"],
    ["future-claim"] — each of which must trip the monitor. *)

val hbase : table
(** ZooKeeper-boundary mutations over znode keys ([region/*],
    [rs/registry]), each pinned to the code it must trip: a one-shot
    watch notification lost between fire and re-arm
    (["drop-zk-notify"] → [Gap]), a master region map assembled from a
    truncated catch-up pull while claiming the leader's head revision
    (["stale-region-map"] → [State_divergence]) and a forged znode
    payload (["forge-znode"] → [Content]). A monitor that fires the
    wrong alarm would misdirect every diagnosis card built on it. *)

val mutations : table -> string list
(** The table's perturbations, excluding the control. *)

type outcome = {
  mutation : string;  (** ["control"] or one of the table's {!mutations} *)
  tripped : bool;  (** the monitor reported at least one violation *)
  codes : Monitor.code list;  (** distinct violation codes, detection order *)
  expected : Monitor.code option;  (** the code the mutation must trip, if pinned *)
}

val ok : outcome -> bool
(** Control must stay silent; every mutation must trip, with its
    [expected] code among the distinct codes when one is pinned. *)

val run : ?seed:int64 -> ?events:int -> table -> outcome list
(** Generates a history of roughly [events] commits (default 40; puts and
    deletes over the table's key pool) through a real {!Etcdlike.Kv},
    then replays it against a fresh monitor once per perturbation. The
    control outcome is first. *)

(** Time to exposure and failure accounting for hunt campaigns.

    A campaign reports progress after every settled trial with the
    running count of findings; its summary lists the findings in
    discovery order. A {!clock} turns the first into wall times for the
    second: finding [k] settled at the first notification whose count
    exceeded [k]. *)

type clock

val clock : unit -> clock

val note : clock -> findings:int -> at:float -> unit
(** One progress notification: the running finding count and the wall
    time (seconds since the campaign started) at which it was seen.
    Counts never decrease; a jump by several findings stamps them all
    with [at]. *)

val times : clock -> float list
(** Settle time of each finding, discovery order. *)

val per_case :
  cases:string list ->
  finding_names:string list list ->
  times:float list ->
  (string * float option) list
(** For every case (in the order given): the settle time of the first
    finding that names it, or [None] when none does. [finding_names]
    holds, per finding in discovery order and aligned with [times], the
    ids it names: the case whose trial exposed it and the corpus bug its
    oracle reports. Both count because signatures are deduplicated
    campaign-wide: a bug first exposed by another case's trial never
    gets a finding under its own case id, and a replication-family case
    reports the symptom's bug id rather than its own.
    @raise Invalid_argument when the two lists differ in length. *)

type tally = { attempted : int; failed : int }

val zero : tally

val add : tally -> tally -> tally

val of_exposures : (string * float option) list -> tally
(** Hunts: each case is an attempt; a case with no finding failed. *)

val of_soak : violations:int -> tally
(** Soak: one attempt; any oracle or conformance violation in a
    fault-free run is a failure. *)

val share : int -> int -> float
(** [share part whole]: [part / whole], 0 when [whole] is 0. *)

val exposure_stats : censor:float -> (string * float option) list -> float * float
(** [(p50, all)] over the cases' first-finding times: the median, and
    the time by which every case had one. A case never exposed is
    censored at [censor] (the campaign's wall time). *)

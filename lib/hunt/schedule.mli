(** Coverage-guided dispatch ordering.

    Section 6.2 makes coverage of the (component × object × pattern)
    space the limiting factor of a campaign; the scheduler turns that
    into the dispatch policy. Candidates are dispatched greedily by how
    many still-uncovered cells they would touch, each dispatch feeding
    {!Sieve.Coverage.note} so later picks see the shrunken frontier;
    ties — and the zero-gain tail — fall back to the planner's own
    causal ranking. The order is a pure function of the candidate list
    (and the marks the coverage already holds), so it is identical
    across job counts and resumes.

    Each candidate's cells are interned once, as distinct ids
    ({!Sieve.Coverage.cell_ids}); its gain is an int counter starting
    from the cells not yet marked, and an index from each unmarked cell
    to the candidates holding it lets a pick decrement exactly the
    counters its newly covered cells lower. A round is then an O(n)
    scan over int arrays, so n candidates cost O(n²) int compares plus
    work linear in their total cell count, instead of n(n+1)/2 cell
    enumerations. The tables live for one call.

    An optional [priority] (in practice {!Analysis.Hazard.plan_score}:
    the static hazard severity of the cells a candidate exercises) is
    ranked lexicographically above coverage gain, so hazard-implicated
    candidates dispatch first and coverage greed breaks ties among
    equals. [priority] is evaluated once per candidate, up front. *)

val order :
  ?priority:(Sieve.Planner.plan -> int) ->
  Sieve.Coverage.t ->
  Sieve.Planner.plan array ->
  int list
(** Dispatch order as indices into the array (a permutation of
    [0 .. n-1]). Marks every candidate into the given coverage as a side
    effect. *)

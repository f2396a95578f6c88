let order ?priority coverage (plans : Sieve.Planner.plan array) =
  let n = Array.length plans in
  let prio =
    match priority with
    | None -> Array.make n 0
    | Some f -> Array.init n (fun i -> f plans.(i))
  in
  (* Intern once: each candidate's distinct cells as ids, its gain as the
     number of them still uncovered, and per uncovered cell the
     candidates holding it (the only ones whose gain a mark can lower). *)
  let cells =
    Array.map (fun (p : Sieve.Planner.plan) -> Sieve.Coverage.cell_ids coverage p.strategy) plans
  in
  let fresh id = not (Sieve.Coverage.is_marked coverage id) in
  let gain =
    Array.map (fun ids -> Array.fold_left (fun g id -> if fresh id then g + 1 else g) 0 ids) cells
  in
  let holders = Array.make (Sieve.Coverage.total coverage) [] in
  for i = n - 1 downto 0 do
    Array.iter (fun id -> if fresh id then holders.(id) <- i :: holders.(id)) cells.(i)
  done;
  let pending = Array.make n true in
  let out = ref [] in
  for _ = 1 to n do
    (* Greedy max over (priority, gain), lexicographically; both start
       below any real value so the first pending candidate wins ties and
       zero rounds, preserving the planner's own (causal) ranking within
       equivalence classes. *)
    let best = ref (-1) and best_prio = ref min_int and best_gain = ref (-1) in
    for i = 0 to n - 1 do
      if pending.(i) && (prio.(i) > !best_prio || (prio.(i) = !best_prio && gain.(i) > !best_gain))
      then begin
        best := i;
        best_prio := prio.(i);
        best_gain := gain.(i)
      end
    done;
    let best = !best in
    pending.(best) <- false;
    Array.iter
      (fun id -> if fresh id then List.iter (fun j -> gain.(j) <- gain.(j) - 1) holders.(id))
      cells.(best);
    Sieve.Coverage.note coverage plans.(best).Sieve.Planner.strategy;
    out := best :: !out
  done;
  List.rev !out

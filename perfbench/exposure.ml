type clock = { mutable seen : int; mutable times_rev : float list }

let clock () = { seen = 0; times_rev = [] }

let note c ~findings ~at =
  while c.seen < findings do
    c.seen <- c.seen + 1;
    c.times_rev <- at :: c.times_rev
  done

let times c = List.rev c.times_rev

let per_case ~cases ~finding_names ~times =
  if List.length finding_names <> List.length times then
    invalid_arg "Exposure.per_case: findings and times differ in length";
  let first = Hashtbl.create 17 in
  List.iter2
    (fun names at ->
      List.iter (fun id -> if not (Hashtbl.mem first id) then Hashtbl.replace first id at) names)
    finding_names times;
  List.map (fun case -> (case, Hashtbl.find_opt first case)) cases

type tally = { attempted : int; failed : int }

let zero = { attempted = 0; failed = 0 }

let add a b = { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let of_exposures exposures =
  {
    attempted = List.length exposures;
    failed = List.length (List.filter (fun (_, t) -> t = None) exposures);
  }

let of_soak ~violations = { attempted = 1; failed = (if violations > 0 then 1 else 0) }

let share part whole = if whole = 0 then 0. else float_of_int part /. float_of_int whole

let exposure_stats ~censor exposures =
  let xs = Array.of_list (List.map (fun (_, t) -> Option.value t ~default:censor) exposures) in
  (Stats.median xs, Array.fold_left Float.max 0. xs)

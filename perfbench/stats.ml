let sorted xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let median xs =
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 0 then nan
  else if n mod 2 = 1 then ys.(n / 2)
  else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.

let percentile xs p =
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 0 then nan
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))

let quartiles xs =
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (ys.(0), ys.(0), ys.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((ys.(j - 1) *. float_of_int (4 - delta)) +. (ys.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Candidate percentiles in per-mille, so "ten beyond" is exact
   integer arithmetic. *)
let tail xs =
  let n = Array.length xs in
  match List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) [ 999; 990; 950; 900; 750; 500 ] with
  | Some pm ->
      let p = float_of_int pm /. 10. in
      (p, percentile xs p)
  | None -> (100., Array.fold_left Float.max neg_infinity xs)

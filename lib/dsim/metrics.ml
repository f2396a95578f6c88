(* Gauge values and histogram sums live in single-field float records,
   which OCaml stores flat: updating one writes a float in place instead
   of allocating a fresh box. *)
type cell = { mutable v : float }

type hist = {
  mutable data : float array;
  mutable n : int;
  sum : cell;
  mutable sorted : float array option;  (* cache, invalidated by observe *)
}

(* A series grows two parallel arrays: unboxed times and unboxed
   values, in sampling order. *)
type points = { mutable times : int array; mutable values : float array; mutable len : int }

type t = {
  counts : (string, int ref) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  gauges : (string, cell) Hashtbl.t;
  series : (string, points) Hashtbl.t;
  mutable epoch : int;  (* bumped by [reset]; handles re-resolve across it *)
}

let create () =
  {
    counts = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    series = Hashtbl.create 16;
    epoch = 0;
  }

let find_or_add tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.replace tbl name c;
      c

(* --- counters ------------------------------------------------------- *)

let new_counter () = ref 0

let counter t name = find_or_add t.counts name new_counter

let incr t name = Stdlib.incr (counter t name)

let add t name n =
  let r = counter t name in
  r := !r + n

let count t name = match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0

let sorted_names tbl =
  Hashtbl.fold (fun name _ acc -> name :: acc) tbl [] |> List.sort String.compare

let counters t = List.map (fun name -> (name, count t name)) (sorted_names t.counts)

(* --- gauges --------------------------------------------------------- *)

let new_cell () = { v = 0.0 }

let gauge_cell t name = find_or_add t.gauges name new_cell

let set_gauge t name v = (gauge_cell t name).v <- v

let add_gauge t name delta =
  let c = gauge_cell t name in
  c.v <- c.v +. delta

let gauge t name = match Hashtbl.find_opt t.gauges name with Some c -> c.v | None -> 0.0

let gauges t = List.map (fun name -> (name, gauge t name)) (sorted_names t.gauges)

(* --- histograms ----------------------------------------------------- *)

let new_hist () = { data = Array.make 16 0.0; n = 0; sum = { v = 0.0 }; sorted = None }

let histogram t name = find_or_add t.histograms name new_hist

let observe_hist h sample =
  if h.n = Array.length h.data then begin
    let bigger = Array.make (2 * Array.length h.data) 0.0 in
    Array.blit h.data 0 bigger 0 h.n;
    h.data <- bigger
  end;
  h.data.(h.n) <- sample;
  h.n <- h.n + 1;
  h.sum.v <- h.sum.v +. sample;
  h.sorted <- None

let observe t name sample = observe_hist (histogram t name) sample

let samples t name =
  match Hashtbl.find_opt t.histograms name with Some h -> h.n | None -> 0

let mean t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> 0.0
  | Some h -> if h.n = 0 then 0.0 else h.sum.v /. float_of_int h.n

let sorted_samples h =
  match h.sorted with
  | Some s -> s
  | None ->
      let s = Array.sub h.data 0 h.n in
      Array.sort compare s;
      h.sorted <- Some s;
      s

(* Nearest-rank with explicit edges: p clamped to [0,1], p=0 is the
   minimum, p=1 the maximum; otherwise the 1-based rank ceil(p*n). *)
let percentile t name p =
  match Hashtbl.find_opt t.histograms name with
  | None -> 0.0
  | Some h ->
      if h.n = 0 then 0.0
      else begin
        let s = sorted_samples h in
        let p = Float.min 1.0 (Float.max 0.0 p) in
        if p = 0.0 then s.(0)
        else if p = 1.0 then s.(h.n - 1)
        else begin
          let rank = int_of_float (ceil (p *. float_of_int h.n)) in
          s.(min (h.n - 1) (max 0 (rank - 1)))
        end
      end

let histograms t = sorted_names t.histograms

(* --- series --------------------------------------------------------- *)

let new_points () = { times = Array.make 16 0; values = Array.make 16 0.0; len = 0 }

let add_point p time v =
  if p.len = Array.length p.times then begin
    let times = Array.make (2 * p.len) 0 and values = Array.make (2 * p.len) 0.0 in
    Array.blit p.times 0 times 0 p.len;
    Array.blit p.values 0 values 0 p.len;
    p.times <- times;
    p.values <- values
  end;
  p.times.(p.len) <- time;
  p.values.(p.len) <- v;
  p.len <- p.len + 1

let sample t name ~time v = add_point (find_or_add t.series name new_points) time v

let series t name =
  match Hashtbl.find_opt t.series name with
  | Some p -> List.init p.len (fun i -> (p.times.(i), p.values.(i)))
  | None -> []

let series_names t = sorted_names t.series

(* --- export --------------------------------------------------------- *)

let to_json t =
  let hist_summary name =
    let h = Hashtbl.find t.histograms name in
    Json.Obj
      [
        ("count", Json.Int h.n);
        ("mean", Json.Float (mean t name));
        ("min", Json.Float (percentile t name 0.0));
        ("p50", Json.Float (percentile t name 0.5));
        ("p90", Json.Float (percentile t name 0.9));
        ("p99", Json.Float (percentile t name 0.99));
        ("max", Json.Float (percentile t name 1.0));
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges t)));
      ( "histograms",
        Json.Obj (List.map (fun name -> (name, hist_summary name)) (histograms t)) );
      ( "series",
        Json.Obj
          (List.map
             (fun name ->
               ( name,
                 Json.List
                   (List.map
                      (fun (time, v) -> Json.List [ Json.Int time; Json.Float v ])
                      (series t name)) ))
             (series_names t)) );
    ]

let reset t =
  Hashtbl.reset t.counts;
  Hashtbl.reset t.histograms;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.series;
  t.epoch <- t.epoch + 1

(* --- handles -------------------------------------------------------- *)

(* A handle names one metric and finds its cell on first update (and
   again after a [reset]), so hot paths skip the string hashing, and a
   handle taken up front but never updated leaves no trace in the
   snapshot. Name-based updates and handles share the same cells. *)
type 'c handle = {
  reg : t;
  table : (string, 'c) Hashtbl.t;
  name : string;
  make : unit -> 'c;
  mutable cell : 'c option;
  mutable resolved_at : int;  (* registry epoch the cell belongs to *)
}

let handle reg table name make = { reg; table; name; make; cell = None; resolved_at = -1 }

let resolve h =
  match h.cell with
  | Some c when h.resolved_at = h.reg.epoch -> c
  | Some _ | None ->
      let c = find_or_add h.table h.name h.make in
      h.cell <- Some c;
      h.resolved_at <- h.reg.epoch;
      c

type registry = t

module Counter = struct
  type t = int ref handle

  let make (m : registry) name = handle m m.counts name new_counter

  let incr h = Stdlib.incr (resolve h)
end

module Gauge = struct
  type t = cell handle

  let make (m : registry) name = handle m m.gauges name new_cell

  let set h v = (resolve h).v <- v

  let add h delta =
    let c = resolve h in
    c.v <- c.v +. delta
end

module Histogram = struct
  type t = hist handle

  let make (m : registry) name = handle m m.histograms name new_hist

  let observe h sample = observe_hist (resolve h) sample
end

module Series = struct
  type t = points handle

  let make (m : registry) name = handle m m.series name new_points

  let sample h ~time v = add_point (resolve h) time v
end

let pp ppf t =
  List.iter (fun (name, v) -> Format.fprintf ppf "%-32s %d@." name v) (counters t);
  List.iter (fun (name, v) -> Format.fprintf ppf "%-32s %g@." name v) (gauges t)

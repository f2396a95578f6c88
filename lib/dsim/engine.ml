type timer = {
  mutable cancelled : bool;
  action : unit -> unit;
  mutable cause : int option;  (* causal frontier captured when the timer was scheduled *)
  tag : string;  (* profile bucket *)
}

type bucket = { mutable events : int; mutable seconds : float; mutable words : float }

type profiler = {
  wall : unit -> float;
  buckets : (string, bucket) Hashtbl.t;
  overhead : float;  (* minor words the measurement itself allocates *)
}

type t = {
  mutable clock : int;
  mutable seq : int;
  heap : timer Pqueue.t;
  rng : Rng.t;
  trace : Trace.t;
  metrics : Metrics.t;
  mutable cause : int option;
  mutable profiler : profiler option;
}

let untagged = "untagged"

let create ?(seed = 1L) ?trace ?metrics () =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  { clock = 0; seq = 0; heap = Pqueue.create (); rng = Rng.create seed; trace; metrics;
    cause = None; profiler = None }

let now t = t.clock

let rng t = t.rng

let trace t = t.trace

let metrics t = t.metrics

let current_cause t = t.cause

let set_cause t cause = t.cause <- cause

let record ?cause t ~actor ~kind detail =
  let cause = match cause with Some _ as c -> c | None -> t.cause in
  Trace.record t.trace ~time:t.clock ~actor ~kind ?cause detail

let emit ?cause t ~actor ~kind detail =
  let cause = match cause with Some _ as c -> c | None -> t.cause in
  let id = Trace.emit t.trace ~time:t.clock ~actor ~kind ?cause detail in
  t.cause <- Some id;
  id

(* Times in the past fire now; every push takes the next sequence number,
   so the heap's (time, seq) order is the scheduling order within a
   timestamp. *)
let push t ~time timer =
  let time = if time < t.clock then t.clock else time in
  t.seq <- t.seq + 1;
  Pqueue.push t.heap ~time ~seq:t.seq timer

let schedule_at ?(tag = untagged) t ~time action =
  let timer = { cancelled = false; action; cause = t.cause; tag } in
  push t ~time timer;
  timer

let schedule ?tag t ~delay action =
  schedule_at ?tag t ~time:(t.clock + if delay > 0 then delay else 0) action

let cancel timer = timer.cancelled <- true

let pending t = Pqueue.length t.heap

(* --- profiling -------------------------------------------------------- *)

(* One measured handler run: wall time and minor words around [f]. The
   same code path measures an empty handler once, at enable time, to
   find what the measurement itself allocates. *)
let measure clock f =
  let w0 = Gc.minor_words () in
  let s0 = clock () in
  f ();
  let s1 = clock () in
  let w1 = Gc.minor_words () in
  (s1 -. s0, w1 -. w0)

let enable_profile t ~clock =
  match t.profiler with
  | Some _ -> ()
  | None ->
      let _, overhead = measure clock ignore in
      t.profiler <- Some { wall = clock; buckets = Hashtbl.create 32; overhead }

let profiled p timer =
  let seconds, words = measure p.wall timer.action in
  let b =
    match Hashtbl.find_opt p.buckets timer.tag with
    | Some b -> b
    | None ->
        let b = { events = 0; seconds = 0.; words = 0. } in
        Hashtbl.replace p.buckets timer.tag b;
        b
  in
  b.events <- b.events + 1;
  b.seconds <- b.seconds +. seconds;
  b.words <- b.words +. Float.max 0. (words -. p.overhead)

type profile_row = { tag : string; events : int; seconds : float; minor_words : float }

let profile t =
  match t.profiler with
  | None -> []
  | Some p ->
      Hashtbl.fold
        (fun tag (b : bucket) acc ->
          { tag; events = b.events; seconds = b.seconds; minor_words = b.words } :: acc)
        p.buckets []
      |> List.sort (fun a b -> String.compare a.tag b.tag)

(* --- running ---------------------------------------------------------- *)

let fire t time timer =
  if time > t.clock then t.clock <- time;
  if not timer.cancelled then begin
    t.cause <- timer.cause;
    (match t.profiler with None -> timer.action () | Some p -> profiled p timer);
    t.cause <- None
  end

let step t =
  if Pqueue.is_empty t.heap then false
  else begin
    let time = Pqueue.min_time t.heap in
    fire t time (Pqueue.pop_min t.heap);
    true
  end

let run ?until ?max_events t =
  let horizon = match until with Some h -> h | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let executed = ref 0 in
  while
    !executed < budget
    && (not (Pqueue.is_empty t.heap))
    && Pqueue.min_time t.heap <= horizon
  do
    let time = Pqueue.min_time t.heap in
    fire t time (Pqueue.pop_min t.heap);
    incr executed
  done;
  (* If we stopped on the horizon, advance the clock to it so that callers
     observe a consistent "ran until" time. *)
  match until with
  | Some horizon when t.clock < horizon && Pqueue.is_empty t.heap -> ()
  | Some horizon when t.clock < horizon -> t.clock <- horizon
  | _ -> ()

(* One timer record serves the whole loop: each period re-pushes it with
   the tick's own causal root, which is exactly what a fresh [schedule]
   would have captured. *)
let every ?(tag = untagged) t ?(jitter = 0) ~period f =
  let rec timer = { cancelled = false; action = tick; cause = t.cause; tag }
  and tick () =
    (* Remember the tick's own causal context: anything f emits must not
       leak into the *next* tick's capture, or periodic loops would grow
       spurious causal edges across unrelated periods. *)
    let root = t.cause in
    if f () then begin
      let extra = if jitter > 0 then Rng.int t.rng (jitter + 1) else 0 in
      t.cause <- root;
      timer.cause <- root;
      let delay = period + extra in
      push t ~time:(t.clock + if delay > 0 then delay else 0) timer
    end
  in
  push t ~time:t.clock timer

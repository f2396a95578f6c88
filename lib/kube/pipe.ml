type item =
  | Event of Resource.value History.Event.t
  | Bookmark of int
  | Seal of { upto_rev : int; sent : int }

type t = {
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  edge : History.Intercept.edge;
  deliver : item -> unit;
  dst : Dsim.Network.peer;
  dst_incarnation : int;
  mutable closed : bool;
  mutable last_due : int;  (* FIFO frontier: delivery time of the previous item *)
  mutable in_flight : int;
  (* Items in flight, oldest first, in a ring of [in_flight] slots from
     [head]: the pipe's deliveries fire in send order, so each firing
     takes the oldest item, and one closure serves every delivery. *)
  mutable sents : int array;  (* send times *)
  mutable items : item array;
  mutable head : int;
  mutable arrive_next : unit -> unit;
  label : string;  (* "src->dst ", the trace detail's fixed prefix *)
  inflight_gauge : Dsim.Metrics.Gauge.t;  (* pipe.inflight.<dst> *)
  latency : Dsim.Metrics.Histogram.t;  (* watch.latency.<dst> *)
  delivered : Dsim.Metrics.Counter.t;
}

let edge t = t.edge

let close t = t.closed <- true

let is_closed t = t.closed

let in_flight t = t.in_flight

let deliverable t =
  (not t.closed)
  && (not
        (Dsim.Network.partitioned t.net t.edge.History.Intercept.src
           t.edge.History.Intercept.dst))
  && Dsim.Network.peer_up t.dst
  && Dsim.Network.peer_incarnation t.dst = t.dst_incarnation

(* Profile buckets, one per item kind. *)
let tag = function Event _ -> "pipe.event" | Bookmark _ -> "pipe.bookmark" | Seal _ -> "pipe.seal"

(* A vacated ring slot holds this constant, so a delivered event is not
   kept alive by the ring. *)
let vacant = Bookmark 0

let arrive t =
  let engine = Dsim.Network.engine t.net in
  let sent = t.sents.(t.head) and item = t.items.(t.head) in
  t.items.(t.head) <- vacant;
  t.head <- (if t.head + 1 = Array.length t.items then 0 else t.head + 1);
  t.in_flight <- t.in_flight - 1;
  Dsim.Metrics.Gauge.add t.inflight_gauge (-1.0);
  if deliverable t then begin
    Dsim.Metrics.Histogram.observe t.latency (float_of_int (Dsim.Engine.now engine - sent));
    (* Events become trace entries so the commit -> delivery ->
       reconcile chain is walkable; bookmarks and seals are
       transport metadata and stay out of the trace. *)
    (match item with
    | Event event ->
        Dsim.Metrics.Counter.incr t.delivered;
        ignore
          (Dsim.Engine.emit engine ~actor:t.edge.History.Intercept.dst ~kind:"pipe.deliver"
             (t.label ^ History.Event.describe event))
    | Bookmark _ | Seal _ -> ());
    t.deliver item
  end
  else if not t.closed then begin
    (* A TCP stream does not lose one segment and carry on: a
       blocked delivery kills the whole stream. The subscriber
       notices the silence (no bookmarks) and re-lists. *)
    t.closed <- true;
    Dsim.Metrics.incr (Dsim.Engine.metrics engine) "pipe.broken";
    Dsim.Engine.record engine ~actor:t.edge.History.Intercept.dst ~kind:"pipe.broken"
      (Format.asprintf "%a" History.Intercept.pp_edge t.edge)
  end

let create ~net ~intercept ~edge ~deliver () =
  let metrics = Dsim.Engine.metrics (Dsim.Network.engine net) in
  let dst = edge.History.Intercept.dst in
  let dst_peer = Dsim.Network.peer net dst in
  let t =
    {
      net;
      intercept;
      edge;
      deliver;
      dst = dst_peer;
      dst_incarnation = Dsim.Network.peer_incarnation dst_peer;
      closed = false;
      last_due = 0;
      in_flight = 0;
      sents = [||];
      items = [||];
      head = 0;
      arrive_next = ignore;
      label = String.concat "" [ edge.History.Intercept.src; "->"; dst; " " ];
      inflight_gauge = Dsim.Metrics.Gauge.make metrics ("pipe.inflight." ^ dst);
      latency = Dsim.Metrics.Histogram.make metrics ("watch.latency." ^ dst);
      delivered = Dsim.Metrics.Counter.make metrics "pipe.delivered";
    }
  in
  t.arrive_next <- (fun () -> arrive t);
  t

let push t ~sent item =
  let capacity = Array.length t.items in
  if t.in_flight = capacity then begin
    let next = max 8 (2 * capacity) in
    let sents = Array.make next 0 and items = Array.make next vacant in
    for i = 0 to t.in_flight - 1 do
      let j = (t.head + i) mod capacity in
      sents.(i) <- t.sents.(j);
      items.(i) <- t.items.(j)
    done;
    t.sents <- sents;
    t.items <- items;
    t.head <- 0
  end;
  let slot = (t.head + t.in_flight) mod Array.length t.items in
  t.sents.(slot) <- sent;
  t.items.(slot) <- item;
  t.in_flight <- t.in_flight + 1

let enqueue t ~extra item =
  let engine = Dsim.Network.engine t.net in
  let sent = Dsim.Engine.now engine in
  let due = sent + Dsim.Network.sample_latency t.net + extra in
  let due = if due < t.last_due then t.last_due else due in
  t.last_due <- due;
  push t ~sent item;
  Dsim.Metrics.Gauge.add t.inflight_gauge 1.0;
  ignore (Dsim.Engine.schedule_at ~tag:(tag item) engine ~time:due t.arrive_next)

let send t item =
  if not t.closed then
    match item with
    | Bookmark _ | Seal _ -> enqueue t ~extra:0 item
    | Event event -> (
        match History.Intercept.decide t.intercept t.edge event with
        | History.Intercept.Pass -> enqueue t ~extra:0 item
        | History.Intercept.Drop ->
            let engine = Dsim.Network.engine t.net in
            Dsim.Metrics.incr (Dsim.Engine.metrics engine) "pipe.dropped";
            Dsim.Engine.record engine ~actor:t.edge.History.Intercept.dst ~kind:"pipe.drop"
              (Format.asprintf "%a %s" History.Intercept.pp_edge t.edge
                 (History.Event.describe event))
        | History.Intercept.Delay extra -> enqueue t ~extra item)

type item =
  | Event of Resource.value History.Event.t
  | Bookmark of int
  | Seal of { upto_rev : int; sent : int }

type t = {
  net : Dsim.Network.t;
  intercept : Resource.value History.Intercept.t;
  edge : History.Intercept.edge;
  deliver : item -> unit;
  dst_incarnation : int;
  mutable closed : bool;
  mutable last_due : int;  (* FIFO frontier: delivery time of the previous item *)
  mutable in_flight : int;
}

let create ~net ~intercept ~edge ~deliver () =
  {
    net;
    intercept;
    edge;
    deliver;
    dst_incarnation = Dsim.Network.incarnation net edge.History.Intercept.dst;
    closed = false;
    last_due = 0;
    in_flight = 0;
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
  && Dsim.Network.is_up t.net t.edge.History.Intercept.dst
  && Dsim.Network.incarnation t.net t.edge.History.Intercept.dst = t.dst_incarnation

let inflight_gauge t = "pipe.inflight." ^ t.edge.History.Intercept.dst

let enqueue t ~extra item =
  let engine = Dsim.Network.engine t.net in
  let metrics = Dsim.Engine.metrics engine in
  let sent = Dsim.Engine.now engine in
  let due = max (sent + Dsim.Network.sample_latency t.net + extra) t.last_due in
  t.last_due <- due;
  t.in_flight <- t.in_flight + 1;
  Dsim.Metrics.add_gauge metrics (inflight_gauge t) 1.0;
  ignore
    (Dsim.Engine.schedule_at engine ~time:due (fun () ->
         t.in_flight <- t.in_flight - 1;
         Dsim.Metrics.add_gauge metrics (inflight_gauge t) (-1.0);
         if deliverable t then begin
           Dsim.Metrics.observe metrics
             ("watch.latency." ^ t.edge.History.Intercept.dst)
             (float_of_int (Dsim.Engine.now engine - sent));
           (* Events become trace entries so the commit -> delivery ->
              reconcile chain is walkable; bookmarks and seals are
              transport metadata and stay out of the trace. *)
           (match item with
           | Event event ->
               Dsim.Metrics.incr metrics "pipe.delivered";
               ignore
                 (Dsim.Engine.emit engine ~actor:t.edge.History.Intercept.dst ~kind:"pipe.deliver"
                    (Format.asprintf "%a %s" History.Intercept.pp_edge t.edge
                       (History.Event.describe event)))
           | Bookmark _ | Seal _ -> ());
           t.deliver item
         end
         else if not t.closed then begin
           (* A TCP stream does not lose one segment and carry on: a
              blocked delivery kills the whole stream. The subscriber
              notices the silence (no bookmarks) and re-lists. *)
           t.closed <- true;
           Dsim.Metrics.incr metrics "pipe.broken";
           Dsim.Engine.record engine ~actor:t.edge.History.Intercept.dst ~kind:"pipe.broken"
             (Format.asprintf "%a" History.Intercept.pp_edge t.edge)
         end))

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

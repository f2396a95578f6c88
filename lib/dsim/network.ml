type address = string
type request = ..
type response = ..
type cast = ..

type error = Timeout | Unreachable

type latency_model =
  | Uniform of { min : int; max : int }
  | Exponential of { mean : float; floor : int }

let pp_error ppf = function
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Unreachable -> Format.pp_print_string ppf "unreachable"

type node = {
  mutable serve : src:address -> request -> (response -> unit) -> unit;
  mutable on_cast : src:address -> cast -> unit;
  mutable on_crash : unit -> unit;
  mutable on_restart : unit -> unit;
  mutable up : bool;
  mutable incarnation : int;
}

module Link = struct
  type t = address * address

  (* Normalize so the pair is order-independent. *)
  let make a b = if String.compare a b <= 0 then (a, b) else (b, a)
end

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable latency_model : latency_model;
  nodes : (address, node) Hashtbl.t;
  mutable cuts : Link.t list;
  calls : Metrics.Counter.t;
  casts : Metrics.Counter.t;
  timeouts : Metrics.Counter.t;
}

let create ?(min_latency = 500) ?(max_latency = 2000) engine =
  let metrics = Engine.metrics engine in
  {
    engine;
    rng = Rng.split (Engine.rng engine);
    latency_model = Uniform { min = min_latency; max = max_latency };
    nodes = Hashtbl.create 16;
    cuts = [];
    calls = Metrics.Counter.make metrics "net.calls";
    casts = Metrics.Counter.make metrics "net.casts";
    timeouts = Metrics.Counter.make metrics "net.timeouts";
  }

let engine t = t.engine

let latency t =
  match t.latency_model with
  | Uniform { min; max } ->
      if max <= min then min else min + Rng.int t.rng (max - min + 1)
  | Exponential { mean; floor } -> floor + int_of_float (Rng.exponential t.rng ~mean)

let set_latency_model t model = t.latency_model <- model

let fresh_node () =
  {
    serve = (fun ~src:_ _ _ -> ());
    on_cast = (fun ~src:_ _ -> ());
    on_crash = (fun () -> ());
    on_restart = (fun () -> ());
    up = true;
    incarnation = 0;
  }

let node t addr =
  match Hashtbl.find_opt t.nodes addr with
  | Some n -> n
  | None ->
      let n = fresh_node () in
      Hashtbl.replace t.nodes addr n;
      n

let register t addr ~serve ?on_cast () =
  let n = node t addr in
  n.serve <- serve;
  (match on_cast with Some f -> n.on_cast <- f | None -> ())

let set_lifecycle t addr ~on_crash ~on_restart =
  let n = node t addr in
  n.on_crash <- on_crash;
  n.on_restart <- on_restart

let is_up t addr =
  match Hashtbl.find_opt t.nodes addr with Some n -> n.up | None -> false

let incarnation t addr =
  match Hashtbl.find_opt t.nodes addr with Some n -> n.incarnation | None -> 0

(* Node records are created once per address and never removed, so a
   record found once stays the address's record: a peer resolves it on
   first success and then reads its fields without hashing the address. *)
type peer = { net : t; addr : address; mutable found : node option }

let peer t addr = { net = t; addr; found = Hashtbl.find_opt t.nodes addr }

let resolve p =
  match p.found with
  | Some _ as n -> n
  | None ->
      let n = Hashtbl.find_opt p.net.nodes p.addr in
      p.found <- n;
      n

let peer_up p = match resolve p with Some n -> n.up | None -> false

let peer_incarnation p = match resolve p with Some n -> n.incarnation | None -> 0

let crash t addr =
  let n = node t addr in
  if n.up then begin
    n.up <- false;
    n.incarnation <- n.incarnation + 1;
    Engine.record t.engine ~actor:addr ~kind:"node.crash" "";
    n.on_crash ()
  end

let restart t addr =
  let n = node t addr in
  if not n.up then begin
    n.up <- true;
    Engine.record t.engine ~actor:addr ~kind:"node.restart" "";
    n.on_restart ()
  end

(* Most runs never cut a link: answer those without building the pair. *)
let partitioned t a b = match t.cuts with [] -> false | cuts -> List.mem (Link.make a b) cuts

let partition t a b =
  let link = Link.make a b in
  if not (List.mem link t.cuts) then begin
    t.cuts <- link :: t.cuts;
    Engine.record t.engine ~actor:a ~kind:"net.partition" (Printf.sprintf "%s <-/-> %s" a b)
  end

let heal t a b =
  let link = Link.make a b in
  if List.mem link t.cuts then begin
    t.cuts <- List.filter (fun l -> l <> link) t.cuts;
    Engine.record t.engine ~actor:a ~kind:"net.heal" (Printf.sprintf "%s <---> %s" a b)
  end

let heal_all t =
  if t.cuts <> [] then begin
    t.cuts <- [];
    Engine.record t.engine ~actor:"net" ~kind:"net.heal" "all links"
  end

let default_timeout = 1_000_000

let call t ~src ~dst ?(timeout = default_timeout) req k =
  Metrics.Counter.incr t.calls;
  match Hashtbl.find_opt t.nodes dst with
  | None -> k (Error Unreachable)
  | Some dst_node ->
      let src_peer = peer t src in
      let src_incarnation = peer_incarnation src_peer in
      let completed = ref false in
      let finish result =
        if not !completed then begin
          completed := true;
          (match result with
          | Error Timeout -> Metrics.Counter.incr t.timeouts
          | _ -> ());
          k result
        end
      in
      let timeout_timer =
        Engine.schedule ~tag:"net.timeout" t.engine ~delay:timeout (fun () ->
            finish (Error Timeout))
      in
      let deliver_reply resp =
        ignore
          (Engine.schedule ~tag:"net.reply" t.engine ~delay:(latency t) (fun () ->
               (* The reply is lost if the link is now cut, the caller died,
                  or the caller restarted into a new incarnation. *)
               if
                 (not (partitioned t src dst))
                 && peer_up src_peer
                 && peer_incarnation src_peer = src_incarnation
               then begin
                 Engine.cancel timeout_timer;
                 finish (Ok resp)
               end))
      in
      ignore
        (Engine.schedule ~tag:"net.request" t.engine ~delay:(latency t) (fun () ->
             if (not (partitioned t src dst)) && dst_node.up then
               dst_node.serve ~src req deliver_reply))

let cast t ~src ~dst payload =
  Metrics.Counter.incr t.casts;
  match Hashtbl.find_opt t.nodes dst with
  | None -> ()
  | Some dst_node ->
      ignore
        (Engine.schedule ~tag:"net.cast" t.engine ~delay:(latency t) (fun () ->
             if (not (partitioned t src dst)) && dst_node.up then
               dst_node.on_cast ~src payload))

let addresses t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.nodes [] |> List.sort String.compare

let sample_latency t = latency t

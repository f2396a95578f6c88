type 'a entry = {
  id : int;
  payload : 'a;
  mutable order : int;
  mutable live : bool;
}

(* A bucket holds the watchers registered with one exact prefix, in
   registration order. Removal flips [live]; the array is compacted
   only outside iteration, once dead slots outnumber live ones, so
   handles held by an in-flight [iter_matching] never dangle. *)
type 'a bucket = {
  mutable entries : 'a entry array;
  mutable len : int;
  mutable dead : int;
}

type 'a node = {
  mutable child_chars : string;  (* parallel to [children] *)
  mutable children : 'a node array;
  mutable bucket : 'a bucket option;
}

type 'a t = {
  root : 'a node;
  by_id : (int, 'a entry * 'a bucket) Hashtbl.t;
  mutable next_id : int;
  mutable live : int;
  mutable iterating : int;  (* defer compaction while > 0 *)
  mutable all : 'a entry array;  (* every entry in (order, id) order, when not [stale] *)
  mutable stale : bool;  (* set by every add, remove, reorder and clear *)
}

let new_node () = { child_chars = ""; children = [||]; bucket = None }

let new_bucket () = { entries = [||]; len = 0; dead = 0 }

let create () =
  {
    root = new_node ();
    by_id = Hashtbl.create 64;
    next_id = 0;
    live = 0;
    iterating = 0;
    all = [||];
    stale = false;
  }

let size t = t.live

let child_of node c =
  let rec go i =
    if i >= String.length node.child_chars then None
    else if node.child_chars.[i] = c then Some node.children.(i)
    else go (i + 1)
  in
  go 0

let child_or_create node c =
  match child_of node c with
  | Some n -> n
  | None ->
      let n = new_node () in
      node.child_chars <- node.child_chars ^ String.make 1 c;
      let grown = Array.make (Array.length node.children + 1) n in
      Array.blit node.children 0 grown 0 (Array.length node.children);
      node.children <- grown;
      n

let bucket_of_prefix t prefix =
  let node =
    match prefix with
    | None -> t.root
    | Some p ->
        let node = ref t.root in
        String.iter (fun c -> node := child_or_create !node c) p;
        !node
  in
  match node.bucket with
  | Some b -> b
  | None ->
      let b = new_bucket () in
      node.bucket <- Some b;
      b

(* The root bucket doubles as the match-all bucket: a [None] prefix is
   the empty prefix, and every key has the empty prefix. *)

let bucket_push bucket entry =
  let cap = Array.length bucket.entries in
  if bucket.len = cap then begin
    let grown = Array.make (max 4 (2 * cap)) entry in
    Array.blit bucket.entries 0 grown 0 bucket.len;
    bucket.entries <- grown
  end;
  bucket.entries.(bucket.len) <- entry;
  bucket.len <- bucket.len + 1

let bucket_compact bucket =
  if bucket.dead > 0 then begin
    let kept = ref 0 in
    for i = 0 to bucket.len - 1 do
      let e = bucket.entries.(i) in
      if e.live then begin
        bucket.entries.(!kept) <- e;
        incr kept
      end
    done;
    bucket.len <- !kept;
    bucket.dead <- 0
  end

let add t ?prefix payload =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let entry = { id; payload; order = id; live = true } in
  let bucket = bucket_of_prefix t prefix in
  bucket_push bucket entry;
  Hashtbl.replace t.by_id id (entry, bucket);
  t.live <- t.live + 1;
  t.stale <- true;
  id

let remove t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> false
  | Some (entry, bucket) ->
      Hashtbl.remove t.by_id id;
      t.stale <- true;
      entry.live <- false;
      bucket.dead <- bucket.dead + 1;
      t.live <- t.live - 1;
      if t.iterating = 0 && bucket.dead > bucket.len - bucket.dead then bucket_compact bucket;
      true

let mem t id = Hashtbl.mem t.by_id id

let find t id = Option.map (fun (e, _) -> e.payload) (Hashtbl.find_opt t.by_id id)

let set_order t id ~order =
  match Hashtbl.find_opt t.by_id id with
  | Some (entry, _) ->
      if entry.order <> order then begin
        entry.order <- order;
        t.stale <- true
      end
  | None -> ()

let clear t =
  Hashtbl.reset t.by_id;
  t.stale <- true;
  t.live <- 0;
  let rec wipe node =
    node.bucket <- None;
    Array.iter wipe node.children
  in
  wipe t.root

(* Snapshot the matched buckets' lengths up front, then sort the live
   matches: additions from inside a callback land past the snapshot
   and are skipped; removals flip [live] and are re-checked per push. *)
let collect_matching t ~key =
  let acc = ref [] in
  let take bucket =
    for i = bucket.len - 1 downto 0 do
      let e = bucket.entries.(i) in
      if e.live then acc := e :: !acc
    done
  in
  Option.iter take t.root.bucket;
  let node = ref (Some t.root) in
  String.iter
    (fun c ->
      match !node with
      | None -> ()
      | Some n ->
          let next = child_of n c in
          (match next with Some nn -> Option.iter take nn.bucket | None -> ());
          node := next)
    key;
  List.sort (fun a b -> if a.order = b.order then compare a.id b.id else compare a.order b.order) !acc

(* The sorted table is rebuilt only after the set or its order changed.
   A rebuild makes a fresh array, so a walk in progress keeps its own
   snapshot. *)
let collect_all t =
  if t.stale then begin
    let acc = Hashtbl.fold (fun _ (e, _) acc -> e :: acc) t.by_id [] in
    t.all <-
      Array.of_list
        (List.sort
           (fun a b -> if a.order = b.order then compare a.id b.id else compare a.order b.order)
           acc);
    t.stale <- false
  end;
  t.all

let with_iteration t walk =
  t.iterating <- t.iterating + 1;
  match walk () with
  | () -> t.iterating <- t.iterating - 1
  | exception exn ->
      t.iterating <- t.iterating - 1;
      raise exn

let iter_matching t ~key f =
  let entries = collect_matching t ~key in
  with_iteration t (fun () ->
      List.iter (fun (e : _ entry) -> if e.live then f e.id e.payload) entries)

let iter_all t f =
  let entries = collect_all t in
  with_iteration t (fun () ->
      Array.iter (fun (e : _ entry) -> if e.live then f e.id e.payload) entries)

let matching t ~key =
  List.filter_map
    (fun (e : _ entry) -> if e.live then Some e.payload else None)
    (collect_matching t ~key)

module Batch = struct
  type 'v stream_box = { stream : int; mutable events : 'v Event.t list (* newest first *) }

  type 'v queue = {
    boxes : (int, 'v stream_box) Hashtbl.t;
    mutable dirty_order : 'v stream_box list;  (* newest first *)
    mutable count : int;
  }

  let create () = { boxes = Hashtbl.create 32; dirty_order = []; count = 0 }

  let offer q ~stream e =
    (match Hashtbl.find_opt q.boxes stream with
    | Some box -> box.events <- e :: box.events
    | None ->
        let box = { stream; events = [ e ] } in
        Hashtbl.replace q.boxes stream box;
        q.dirty_order <- box :: q.dirty_order);
    q.count <- q.count + 1

  let pending q = q.count

  let dirty q = List.length q.dirty_order

  let flush q f =
    let batches = List.rev q.dirty_order in
    q.dirty_order <- [];
    Hashtbl.reset q.boxes;
    q.count <- 0;
    List.iter (fun box -> f ~stream:box.stream (List.rev box.events)) batches
end

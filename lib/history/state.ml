module Smap = Map.Make (String)

type 'v t = { bindings : ('v * int) Smap.t; rev : int }

let empty = { bindings = Smap.empty; rev = 0 }

let rev t = t.rev

let apply t (e : 'v Event.t) =
  let bindings =
    match e.op, e.value with
    | Event.Delete, _ -> Smap.remove e.key t.bindings
    | (Event.Create | Event.Update), Some v -> Smap.add e.key (v, e.rev) t.bindings
    | (Event.Create | Event.Update), None -> t.bindings
  in
  { bindings; rev = max t.rev e.rev }

let find t key = Smap.find_opt key t.bindings

let get t key = Option.map fst (find t key)

let mem t key = Smap.mem key t.bindings

let bindings t = Smap.bindings t.bindings

let keys t = List.map fst (bindings t)

let cardinal t = Smap.cardinal t.bindings

(* The keys sharing [prefix] form one contiguous run of the ordered map
   starting at the first key >= [prefix], so a range scan cut at the
   first non-matching key visits O(log n + k) nodes instead of
   materializing and filtering the whole keyspace. *)
let bindings_with_prefix t ~prefix =
  let rec take seq acc =
    match seq () with
    | Seq.Cons ((key, binding), rest) when String.starts_with ~prefix key ->
        take rest ((key, binding) :: acc)
    | Seq.Cons _ | Seq.Nil -> List.rev acc
  in
  take (Smap.to_seq_from prefix t.bindings) []

let keys_with_prefix t ~prefix = List.map fst (bindings_with_prefix t ~prefix)

(* Keys sharing a prefix form one contiguous run of the key order, so a
   map whose least and greatest keys both carry the prefix holds nothing
   else: a view of one prefix (an informer's store) is walked whole,
   without the sequence cells of a range scan. *)
let within t ~prefix =
  match Smap.min_binding_opt t.bindings with
  | None -> true
  | Some (lo, _) -> (
      String.starts_with ~prefix lo
      &&
      match Smap.max_binding_opt t.bindings with
      | Some (hi, _) -> String.starts_with ~prefix hi
      | None -> true)

let iter_prefix t ~prefix f =
  if within t ~prefix then Smap.iter f t.bindings
  else
    let rec go seq =
      match seq () with
      | Seq.Cons ((key, binding), rest) when String.starts_with ~prefix key ->
          f key binding;
          go rest
      | Seq.Cons _ | Seq.Nil -> ()
    in
    go (Smap.to_seq_from prefix t.bindings)

let fold f t acc = Smap.fold f t.bindings acc

let iter_under ?prefix t f =
  match prefix with None -> Smap.iter f t.bindings | Some prefix -> iter_prefix t ~prefix f

(* Compares in step, so a mismatch stops the walk and no list is built;
   views of one prefix compare as whole maps. *)
let equal_under ?prefix a b =
  match prefix with
  | Some prefix when not (within a ~prefix && within b ~prefix) ->
      let inside (key, _) = String.starts_with ~prefix key in
      let rec go sa sb =
        match (sa (), sb ()) with
        | Seq.Cons (x, ra), Seq.Cons (y, rb) when inside x && inside y -> x = y && go ra rb
        | Seq.Cons (x, _), Seq.Cons (y, _) -> (not (inside x)) && not (inside y)
        | Seq.Cons (x, _), Seq.Nil | Seq.Nil, Seq.Cons (x, _) -> not (inside x)
        | Seq.Nil, Seq.Nil -> true
      in
      go (Smap.to_seq_from prefix a.bindings) (Smap.to_seq_from prefix b.bindings)
  | Some _ | None -> Smap.equal (fun x y -> x = y) a.bindings b.bindings

let diff before after =
  let changes = ref [] in
  Smap.iter
    (fun key (_, rev_b) ->
      match Smap.find_opt key after.bindings with
      | None -> changes := (key, `Removed) :: !changes
      | Some (_, rev_a) -> if rev_a <> rev_b then changes := (key, `Changed) :: !changes)
    before.bindings;
  Smap.iter
    (fun key _ ->
      if not (Smap.mem key before.bindings) then changes := (key, `Added) :: !changes)
    after.bindings;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !changes

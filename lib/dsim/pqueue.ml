(* Array-based binary min-heap, laid out as a structure of arrays: the
   (time, seq) keys live in two unboxed int arrays, so sifting compares
   and moves plain ints, and the payloads sit in a parallel option
   array. The invariant is the usual heap property on the lexicographic
   (time, seq) key; index 0 is the minimum. A vacated payload slot is
   reset to [None]: a popped value (and the closure it carries) must
   become collectable immediately, not stay pinned in the backing array
   until overwritten by a later push. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable values : 'a option array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; size = 0 }

let is_empty t = t.size = 0

let length t = t.size

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.values <- [||];
  t.size <- 0

(* The three arrays are reallocated together. Up to 256 slots they are
   cheap minor-heap blocks and double; past that each reallocation is
   three major-heap allocations, so they grow by 4x and a bulk schedule
   (a soak's thousands of workload steps) pays for fewer of them. *)
let grow t =
  let capacity = Array.length t.times in
  if t.size = capacity then begin
    let next = if capacity < 256 then max 16 (2 * capacity) else 4 * capacity in
    let times = Array.make next 0 and seqs = Array.make next 0 in
    let values = Array.make next None in
    (* Typed loops: [Array.blit] into a major-heap array goes through the
       write barrier for every element, which int arrays do not need. *)
    for i = 0 to t.size - 1 do
      times.(i) <- t.times.(i);
      seqs.(i) <- t.seqs.(i)
    done;
    Array.blit t.values 0 values 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.values <- values
  end

(* Both sifts carry the moving entry in locals and shift the others over
   it, writing the entry once at its final slot. *)
let sift_up t i time seq value =
  let times = t.times and seqs = t.seqs and values = t.values in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  values.(!i) <- value

let sift_down t i time seq value =
  let times = t.times and seqs = t.seqs and values = t.values in
  let size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < size
          && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      let ct = times.(c) in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        values.(!i) <- values.(c);
        i := c
      end
      else continue := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  values.(!i) <- value

let push t ~time ~seq value =
  grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq (Some value)

let min_time t = if t.size = 0 then max_int else t.times.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let top = match t.values.(0) with Some v -> v | None -> assert false in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* Re-seat the tail entry from the root and clear its old slot, so
       no duplicate reference outlives the pop. *)
    let time = t.times.(last) and seq = t.seqs.(last) and value = t.values.(last) in
    t.values.(last) <- None;
    sift_down t 0 time seq value
  end
  else t.values.(0) <- None;
  top

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) in
    let value = pop_min t in
    Some (time, seq, value)
  end

let peek t =
  if t.size = 0 then None
  else
    match t.values.(0) with
    | Some v -> Some (t.times.(0), t.seqs.(0), v)
    | None -> assert false

(* Heap ordering, tie-breaking and bulk behaviour of the event queue. *)

let drain q =
  let rec go acc = match Dsim.Pqueue.pop q with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let empty_queue () =
  let q = Dsim.Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Dsim.Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Dsim.Pqueue.length q);
  Alcotest.(check bool) "pop" true (Dsim.Pqueue.pop q = None);
  Alcotest.(check bool) "peek" true (Dsim.Pqueue.peek q = None)

let pops_in_time_order () =
  let q = Dsim.Pqueue.create () in
  List.iteri
    (fun seq time -> Dsim.Pqueue.push q ~time ~seq "x")
    [ 30; 10; 20; 5; 25 ];
  Alcotest.(check (list int)) "times ascend" [ 5; 10; 20; 25; 30 ]
    (List.map (fun (t, _, _) -> t) (drain q))

let ties_break_by_seq () =
  let q = Dsim.Pqueue.create () in
  Dsim.Pqueue.push q ~time:5 ~seq:2 "second";
  Dsim.Pqueue.push q ~time:5 ~seq:1 "first";
  Dsim.Pqueue.push q ~time:5 ~seq:3 "third";
  Alcotest.(check (list string)) "fifo within a timestamp" [ "first"; "second"; "third" ]
    (List.map (fun (_, _, v) -> v) (drain q))

let peek_does_not_remove () =
  let q = Dsim.Pqueue.create () in
  Dsim.Pqueue.push q ~time:1 ~seq:1 "a";
  Alcotest.(check bool) "peek sees it" true (Dsim.Pqueue.peek q <> None);
  Alcotest.(check int) "still there" 1 (Dsim.Pqueue.length q)

let clear_empties () =
  let q = Dsim.Pqueue.create () in
  for i = 1 to 10 do
    Dsim.Pqueue.push q ~time:i ~seq:i i
  done;
  Dsim.Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Dsim.Pqueue.is_empty q)

let interleaved_push_pop () =
  let q = Dsim.Pqueue.create () in
  Dsim.Pqueue.push q ~time:10 ~seq:1 "b";
  Dsim.Pqueue.push q ~time:5 ~seq:2 "a";
  (match Dsim.Pqueue.pop q with
  | Some (5, _, "a") -> ()
  | _ -> Alcotest.fail "expected (5, a)");
  Dsim.Pqueue.push q ~time:1 ~seq:3 "c";
  match Dsim.Pqueue.pop q with
  | Some (1, _, "c") -> ()
  | _ -> Alcotest.fail "expected (1, c)"

let popped_value_is_collectable () =
  (* A popped entry must not stay referenced from the heap's backing
     array (neither its own slot nor the duplicate left by moving the
     tail to the root), or arbitrarily large closures stay pinned for a
     whole trial. The weak pointer sees the popped payload die while the
     queue itself is still live. *)
  let q = Dsim.Pqueue.create () in
  let weak = Weak.create 1 in
  Dsim.Pqueue.push q ~time:1 ~seq:1 (Bytes.make 64 'x');
  Dsim.Pqueue.push q ~time:2 ~seq:2 (Bytes.make 64 'y');
  Dsim.Pqueue.push q ~time:3 ~seq:3 (Bytes.make 64 'z');
  (match Dsim.Pqueue.pop q with
  | Some (_, _, v) -> Weak.set weak 0 (Some v)
  | None -> Alcotest.fail "expected a value");
  Gc.full_major ();
  let still_pinned = Weak.check weak 0 in
  Alcotest.(check int) "queue still live with the rest" 2 (Dsim.Pqueue.length q);
  Alcotest.(check bool) "popped value was collected" false still_pinned

let qcheck_sorted_drain =
  QCheck.Test.make ~name:"drain yields sorted (time, seq)" ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 1000))
    (fun times ->
      let q = Dsim.Pqueue.create () in
      List.iteri (fun seq time -> Dsim.Pqueue.push q ~time ~seq ()) times;
      let keys = List.map (fun (t, s, ()) -> (t, s)) (drain q) in
      keys = List.sort compare keys)

let qcheck_length_tracks =
  QCheck.Test.make ~name:"length counts pushes minus pops" ~count:200
    QCheck.(pair (int_range 0 100) (int_range 0 100))
    (fun (pushes, pops) ->
      let q = Dsim.Pqueue.create () in
      for i = 1 to pushes do
        Dsim.Pqueue.push q ~time:i ~seq:i ()
      done;
      for _ = 1 to pops do
        ignore (Dsim.Pqueue.pop q)
      done;
      Dsim.Pqueue.length q = max 0 (pushes - pops))

(* Model test: the heap against a sorted association list, over random
   interleavings of pushes (few distinct times, so ties are common and
   must break by seq), pops, peeks and full drains; a drain empties the
   heap, so the pushes after it exercise the refill of a queue whose
   arrays have already grown. *)
type op = Push of int | Pop | Peek | Drain

let gen_op =
  QCheck.Gen.(
    frequency
      [ (5, map (fun t -> Push t) (int_range 0 7)); (3, return Pop); (1, return Peek);
        (1, return Drain) ])

let show_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Pop -> "pop"
  | Peek -> "peek"
  | Drain -> "drain"

let qcheck_matches_sorted_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (0 -- 120) gen_op))
    (fun ops ->
      let q = Dsim.Pqueue.create () in
      let model = ref [] and seq = ref 0 in
      let insert (t, s, v) = List.merge compare [ (t, s, v) ] !model in
      let pop_model () =
        match !model with
        | [] -> None
        | top :: rest ->
            model := rest;
            Some top
      in
      let agree () =
        Dsim.Pqueue.length q = List.length !model
        && Dsim.Pqueue.is_empty q = (!model = [])
        && Dsim.Pqueue.min_time q = (match !model with (t, _, _) :: _ -> t | [] -> max_int)
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push time ->
                incr seq;
                Dsim.Pqueue.push q ~time ~seq:!seq (string_of_int !seq);
                model := insert (time, !seq, string_of_int !seq);
                true
            | Pop -> Dsim.Pqueue.pop q = pop_model ()
            | Peek -> Dsim.Pqueue.peek q = (match !model with [] -> None | top :: _ -> Some top)
            | Drain ->
                let rec drain () =
                  if Dsim.Pqueue.is_empty q then true
                  else
                    let time = Dsim.Pqueue.min_time q in
                    let v = Dsim.Pqueue.pop_min q in
                    (match pop_model () with
                    | Some (t, _, mv) -> t = time && String.equal v mv
                    | None -> false)
                    && drain ()
                in
                drain () && !model = []
          in
          ok && agree ())
        ops)

let pop_min_on_empty_raises () =
  let q = Dsim.Pqueue.create () in
  Alcotest.(check int) "min_time of empty" max_int (Dsim.Pqueue.min_time q);
  Alcotest.check_raises "pop_min" (Invalid_argument "Pqueue.pop_min: empty queue") (fun () ->
      ignore (Dsim.Pqueue.pop_min q))

let suites =
  [
    ( "pqueue",
      [
        Alcotest.test_case "empty queue" `Quick empty_queue;
        Alcotest.test_case "pops in time order" `Quick pops_in_time_order;
        Alcotest.test_case "ties break by seq" `Quick ties_break_by_seq;
        Alcotest.test_case "peek does not remove" `Quick peek_does_not_remove;
        Alcotest.test_case "clear empties" `Quick clear_empties;
        Alcotest.test_case "interleaved push/pop" `Quick interleaved_push_pop;
        Alcotest.test_case "popped value is collectable" `Quick popped_value_is_collectable;
        Qcheck_util.to_alcotest qcheck_sorted_drain;
        Qcheck_util.to_alcotest qcheck_length_tracks;
        Qcheck_util.to_alcotest qcheck_matches_sorted_model;
        Alcotest.test_case "pop_min on empty raises" `Quick pop_min_on_empty_raises;
      ] );
  ]

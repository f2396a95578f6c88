(* Events and materialized state, including the Figure 3c cancellation
   property of State.diff. *)

open History

let ev rev key op value = Event.make ~rev ~key ~op value

let apply_events events = List.fold_left State.apply State.empty events

let create_then_find () =
  let s = apply_events [ ev 1 "k" Event.Create (Some "v1") ] in
  Alcotest.(check (option (pair string int))) "value and rev" (Some ("v1", 1)) (State.find s "k");
  Alcotest.(check int) "state rev" 1 (State.rev s)

let update_replaces () =
  let s = apply_events [ ev 1 "k" Event.Create (Some "a"); ev 2 "k" Event.Update (Some "b") ] in
  Alcotest.(check (option string)) "updated" (Some "b") (State.get s "k");
  Alcotest.(check int) "rev advanced" 2 (State.rev s)

let delete_removes () =
  let s = apply_events [ ev 1 "k" Event.Create (Some "a"); ev 2 "k" Event.Delete None ] in
  Alcotest.(check bool) "gone" false (State.mem s "k");
  Alcotest.(check int) "rev still advances" 2 (State.rev s)

let delete_absent_tolerated () =
  let s = apply_events [ ev 1 "k" Event.Delete None ] in
  Alcotest.(check int) "cardinal" 0 (State.cardinal s)

let prefix_query () =
  let s =
    apply_events
      [
        ev 1 "pods/a" Event.Create (Some "1");
        ev 2 "nodes/x" Event.Create (Some "2");
        ev 3 "pods/b" Event.Create (Some "3");
      ]
  in
  Alcotest.(check (list string)) "pods only" [ "pods/a"; "pods/b" ]
    (State.keys_with_prefix s ~prefix:"pods/")

let bindings_with_prefix_single_scan () =
  let s =
    apply_events
      [
        ev 1 "pods/a" Event.Create (Some "1");
        ev 2 "nodes/x" Event.Create (Some "2");
        ev 3 "pods/b" Event.Create (Some "3");
        ev 4 "pods/b" Event.Update (Some "3b");
        ev 5 "pods0" Event.Create (Some "past the prefix run");
      ]
  in
  Alcotest.(check (list (pair string (pair string int))))
    "keys, values and mod-revs in one scan"
    [ ("pods/a", ("1", 1)); ("pods/b", ("3b", 4)) ]
    (State.bindings_with_prefix s ~prefix:"pods/");
  Alcotest.(check (list (pair string (pair string int))))
    "empty prefix is all bindings" (State.bindings s)
    (State.bindings_with_prefix s ~prefix:"")

let qcheck_bindings_with_prefix_agrees =
  (* The range scan cut at the first non-prefix key must agree with the
     naive full-keyspace filter for arbitrary key populations. *)
  let key_gen = QCheck.Gen.(map (fun (a, b) -> a ^ b) (pair (oneofl [ "pods/"; "pods"; "nodes/"; "p"; "" ]) (string_size ~gen:(char_range 'a' 'e') (0 -- 3)))) in
  QCheck.Test.make ~name:"bindings_with_prefix = naive filter" ~count:300
    QCheck.(pair (list_of_size Gen.(0 -- 40) (make ~print:Fun.id key_gen)) (oneofl [ ""; "p"; "pods/"; "pods/a"; "nodes/"; "zz" ]))
    (fun (keys, prefix) ->
      let s =
        List.fold_left
          (fun (s, rev) key -> (State.apply s (ev rev key Event.Create (Some key)), rev + 1))
          (State.empty, 1) keys
        |> fst
      in
      let naive =
        List.filter (fun (key, _) -> String.starts_with ~prefix key) (State.bindings s)
      in
      State.bindings_with_prefix s ~prefix = naive)

let qcheck_prefix_walks_agree =
  (* The in-place walks and the list-free comparison must answer exactly
     what the binding lists do, including for views whose keys all carry
     the prefix (walked as whole maps) and for states that differ only in
     a value outside or inside the prefix. *)
  let key_gen single =
    QCheck.Gen.(
      map
        (fun (a, b) -> a ^ b)
        (pair
           (if single then return "pods/" else oneofl [ "pods/"; "pods"; "nodes/"; "p"; "" ])
           (string_size ~gen:(char_range 'a' 'e') (0 -- 3))))
  in
  let gen =
    QCheck.Gen.(
      bool >>= fun single ->
      triple (list_size (0 -- 30) (key_gen single)) (list_size (0 -- 3) (key_gen single))
        (opt (oneofl [ ""; "p"; "pods/"; "pods/a"; "nodes/"; "zz" ])))
  in
  let print = QCheck.Print.(triple (list Fun.id) (list Fun.id) (option Fun.id)) in
  QCheck.Test.make ~name:"prefix walks agree with binding lists" ~count:300
    (QCheck.make ~print gen)
    (fun (keys, changes, prefix) ->
      let apply s keys rev =
        List.fold_left
          (fun (s, rev) key -> (State.apply s (ev rev key Event.Create (Some key)), rev + 1))
          (s, rev) keys
        |> fst
      in
      let a = apply State.empty keys 1 in
      let b = apply a changes 1000 in
      let listed s =
        match prefix with
        | None -> State.bindings s
        | Some prefix -> State.bindings_with_prefix s ~prefix
      in
      let walked s =
        let acc = ref [] in
        State.iter_under ?prefix s (fun key binding -> acc := (key, binding) :: !acc);
        List.rev !acc
      in
      walked a = listed a
      && walked b = listed b
      && State.equal_under ?prefix a b = (listed a = listed b)
      && State.equal_under ?prefix a a)

let bindings_sorted () =
  let s = apply_events [ ev 1 "b" Event.Create (Some "2"); ev 2 "a" Event.Create (Some "1") ] in
  Alcotest.(check (list string)) "sorted keys" [ "a"; "b" ] (State.keys s)

let diff_classifies () =
  let before =
    apply_events [ ev 1 "same" Event.Create (Some "x"); ev 2 "gone" Event.Create (Some "y") ]
  in
  let after =
    apply_events
      [
        ev 1 "same" Event.Create (Some "x");
        ev 3 "new" Event.Create (Some "z");
        ev 4 "same2" Event.Create (Some "w");
      ]
  in
  let after = State.apply after (ev 5 "same2" Event.Update (Some "w2")) in
  let d = State.diff before after in
  Alcotest.(check bool) "gone removed" true (List.mem ("gone", `Removed) d);
  Alcotest.(check bool) "new added" true (List.mem ("new", `Added) d);
  Alcotest.(check bool) "same absent" false (List.mem_assoc "same" d)

let diff_hides_cancelled_event () =
  (* e1 (create) is cancelled by e2 (delete) between two observations:
     the sparse reader's diff is empty — Figure 3c. *)
  let before = State.empty in
  let after =
    apply_events [ ev 1 "ghost" Event.Create (Some "v"); ev 2 "ghost" Event.Delete None ]
  in
  Alcotest.(check int) "no observable change" 0 (List.length (State.diff before after))

let pp_op_strings () =
  Alcotest.(check string) "create" "create" (Event.op_to_string Event.Create);
  Alcotest.(check string) "update" "update" (Event.op_to_string Event.Update);
  Alcotest.(check string) "delete" "delete" (Event.op_to_string Event.Delete);
  Alcotest.(check string) "describe" "@3 delete k" (Event.describe (ev 3 "k" Event.Delete None))

let qcheck_apply_monotone_rev =
  QCheck.Test.make ~name:"state rev is max applied rev" ~count:200
    QCheck.(list_of_size Gen.(0 -- 50) (pair (int_range 1 100) (int_range 0 2)))
    (fun specs ->
      let events =
        List.map
          (fun (rev, op) ->
            let op =
              match op with 0 -> Event.Create | 1 -> Event.Update | _ -> Event.Delete
            in
            ev rev (Printf.sprintf "k%d" (rev mod 5)) op
              (if op = Event.Delete then None else Some "v"))
          specs
      in
      let s = apply_events events in
      State.rev s = List.fold_left (fun acc (e : string Event.t) -> max acc e.Event.rev) 0 events)

let suites =
  [
    ( "event/state",
      [
        Alcotest.test_case "create then find" `Quick create_then_find;
        Alcotest.test_case "update replaces" `Quick update_replaces;
        Alcotest.test_case "delete removes" `Quick delete_removes;
        Alcotest.test_case "delete absent tolerated" `Quick delete_absent_tolerated;
        Alcotest.test_case "prefix query" `Quick prefix_query;
        Alcotest.test_case "bindings_with_prefix single scan" `Quick
          bindings_with_prefix_single_scan;
        Alcotest.test_case "bindings sorted" `Quick bindings_sorted;
        Alcotest.test_case "diff classifies" `Quick diff_classifies;
        Alcotest.test_case "diff hides cancelled event (Fig 3c)" `Quick diff_hides_cancelled_event;
        Alcotest.test_case "op rendering" `Quick pp_op_strings;
        Qcheck_util.to_alcotest qcheck_apply_monotone_rev;
        Qcheck_util.to_alcotest qcheck_bindings_with_prefix_agrees;
        Qcheck_util.to_alcotest qcheck_prefix_walks_agree;
      ] );
  ]

(* Test the hunt campaign engine: journal crash-safety, ordered
   fan-out, cross-job determinism, resume convergence, and finding
   deduplication. *)

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let mkdir_if_missing path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --- journal ------------------------------------------------------- *)

let sample_entries =
  [
    Hunt.Journal.Header { version = 1; seed = 42L; trials = 3; cases = [ "CA-398" ] };
    Hunt.Journal.Trial
      {
        trial = 0;
        case = "CA-398";
        origin = "planner#4";
        seed = -6180651882152404686L;
        strategy = "drop *->volumectl pvcs/vol-0/create in [903,8000]ms";
        violations =
          [
            {
              Hunt.Journal.time = 5_600_000;
              bug = "CA-398";
              signature = "CA-398/volumectl/leak:vol-0";
              detail = "pvc vol-0 never released";
            };
          ];
      };
    Hunt.Journal.Finding
      {
        signature = "CA-398/volumectl/leak:vol-0";
        trial = 0;
        case = "CA-398";
        time = 5_600_000;
        bug = "CA-398";
        detail = "pvc vol-0 never released";
        strategy = "drop *->volumectl pvcs/vol-0/create in [903,8000]ms";
        minimized = "drop *->volumectl pvcs/vol-0/create (first 1) in [903,1014]ms";
        shrink_runs = 8;
      };
  ]

let journal_roundtrip () =
  List.iter
    (fun entry ->
      match Hunt.Journal.entry_of_json (Hunt.Journal.entry_to_json entry) with
      | Some back -> Alcotest.(check bool) "roundtrips" true (back = entry)
      | None -> Alcotest.fail "entry failed to decode")
    sample_entries

let journal_tolerates_torn_tail () =
  mkdir_if_missing "_hunt_test";
  let path = "_hunt_test/torn.jsonl" in
  let writer = Hunt.Journal.create ~path in
  List.iter (Hunt.Journal.append writer) sample_entries;
  Hunt.Journal.close writer;
  let clean = read_file path in
  (* A crash mid-append leaves a record without its newline: the loader
     must keep everything before it and report the clean byte length. *)
  write_file path (clean ^ {|{"trial":99,"case":"CA-398","ori|});
  let entries, valid = Hunt.Journal.load path in
  Alcotest.(check int) "all clean records survive" (List.length sample_entries)
    (List.length entries);
  Alcotest.(check int) "valid length excludes the torn tail" (String.length clean) valid;
  Alcotest.(check bool) "records intact" true (entries = sample_entries);
  (* open_resume cuts the torn tail off the file itself, so appends land
     exactly where an uninterrupted run would have put them. *)
  let resumed, writer = Hunt.Journal.open_resume ~path in
  Hunt.Journal.close writer;
  Alcotest.(check bool) "resume sees the clean prefix" true (resumed = sample_entries);
  Alcotest.(check string) "file truncated to the clean prefix" clean (read_file path);
  (* A missing file is an empty journal, not an error. *)
  let entries, valid = Hunt.Journal.load "_hunt_test/does-not-exist.jsonl" in
  Alcotest.(check bool) "missing file is empty" true (entries = [] && valid = 0)

(* --- pool ---------------------------------------------------------- *)

let pool_emits_in_order () =
  let tasks = Array.init 100 (fun i -> i) in
  let emitted = ref [] in
  Hunt.Pool.map_ordered ~jobs:4 ~tasks
    ~f:(fun i task ->
      (* Uneven work so completion order differs from task order. *)
      let spin = if i mod 7 = 0 then 40_000 else 200 in
      let acc = ref 0 in
      for _ = 1 to spin do
        incr acc
      done;
      ignore !acc;
      task * task)
    ~emit:(fun i result -> emitted := (i, result) :: !emitted);
  let emitted = List.rev !emitted in
  Alcotest.(check int) "every task emitted" 100 (List.length emitted);
  List.iteri
    (fun expect (i, result) ->
      Alcotest.(check int) "emit order is task order" expect i;
      Alcotest.(check int) "result matches task" (expect * expect) result)
    emitted

let pool_propagates_exceptions () =
  let tasks = Array.init 8 (fun i -> i) in
  match
    Hunt.Pool.map_ordered ~jobs:3 ~tasks
      ~f:(fun _ task -> if task = 5 then failwith "boom" else task)
      ~emit:(fun _ _ -> ())
  with
  | () -> Alcotest.fail "expected the worker's exception"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

(* --- schedule ------------------------------------------------------ *)

(* The scheduler as it stood before gains became interned counters,
   kept as the reference the counter-based one must agree with. It is
   verbatim but for [gain], which [Coverage] no longer exports: it is
   rebuilt below from [cells_of] and the still-uncovered cells. *)
let reference_gain coverage strategy =
  let uncovered = Hashtbl.create 64 in
  List.iter (fun cell -> Hashtbl.replace uncovered cell ()) (Sieve.Coverage.uncovered coverage);
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun cell -> if Hashtbl.mem uncovered cell then Hashtbl.replace fresh cell ())
    (Sieve.Coverage.cells_of coverage strategy);
  Hashtbl.length fresh

let reference_order ?priority coverage (plans : Sieve.Planner.plan array) =
  let n = Array.length plans in
  let prio =
    match priority with
    | None -> Array.make n 0
    | Some f -> Array.init n (fun i -> f plans.(i))
  in
  let pending = Array.make n true in
  let out = ref [] in
  for _ = 1 to n do
    let best = ref (-1) and best_key = ref (min_int, -1) in
    for i = 0 to n - 1 do
      if pending.(i) then begin
        let key = (prio.(i), reference_gain coverage plans.(i).Sieve.Planner.strategy) in
        if key > !best_key then begin
          best := i;
          best_key := key
        end
      end
    done;
    pending.(!best) <- false;
    Sieve.Coverage.note coverage plans.(!best).Sieve.Planner.strategy;
    out := !best :: !out
  done;
  List.rev !out

(* Every corpus case's candidate pool and a maker for its (fresh)
   coverage space, built as [Campaign.plan] builds them. *)
let pools =
  lazy
    (Array.of_list
       (List.map
          (fun (case : Sieve.Bugs.case) ->
            let dialect = Sieve.Dialect.of_spec case.Sieve.Bugs.spec in
            let commits =
              Sieve.Runner.reference_commits (Sieve.Bugs.reference_test_of_case case)
            in
            let events =
              List.map
                (fun c -> (c.Sieve.Runner.time, c.Sieve.Runner.key, c.Sieve.Runner.op))
                commits
            in
            let plans =
              Array.of_list
                (dialect.Sieve.Dialect.candidates_causal ~commits ~horizon:case.Sieve.Bugs.horizon)
            in
            (plans, fun () -> dialect.Sieve.Dialect.coverage ~events))
          (Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ())))

(* A pick is one pool candidate, or a combo of a few near-neighbours of
   one (repeats allowed), so its parts often share cells. Small indices
   are drawn often, so inputs repeat candidates. *)
type pick = One of int | Combo of int * int list

let index_gen = QCheck.Gen.(frequency [ (2, int_bound 12); (1, int_bound 10_000) ])

let pick_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> One i) index_gen);
        ( 1,
          map2
            (fun i offsets -> Combo (i, offsets))
            index_gen
            (list_size (int_range 2 3) (int_bound 2)) );
      ])

let schedule_input_gen =
  QCheck.Gen.(
    triple (int_bound 1_000)
      (list_size (int_range 0 40) pick_gen)
      (list_size (int_range 0 4) pick_gen))

let print_pick = function
  | One i -> string_of_int i
  | Combo (i, offsets) ->
      Printf.sprintf "combo(%s)"
        (String.concat "+" (List.map (fun o -> string_of_int (i + o)) offsets))

let print_schedule_input (case, picks, premarks) =
  Printf.sprintf "case=%d picks=[%s] premarks=[%s]" case
    (String.concat "; " (List.map print_pick picks))
    (String.concat "; " (List.map print_pick premarks))

let plan_of_pick (pool : Sieve.Planner.plan array) pick =
  let at i = pool.(i mod Array.length pool) in
  match pick with
  | One i -> at i
  | Combo (i, offsets) ->
      {
        (at i) with
        Sieve.Planner.strategy =
          Sieve.Strategy.Combo
            (List.map (fun o -> (at (i + o)).Sieve.Planner.strategy) offsets);
      }

(* A small-range priority so equal-priority ties are common. *)
let hashed_priority (plan : Sieve.Planner.plan) =
  Hashtbl.hash (Sieve.Strategy.describe plan.Sieve.Planner.strategy) mod 3

let schedule_matches_reference (case, picks, premarks) =
  let pools = Lazy.force pools in
  let pool, space = pools.(case mod Array.length pools) in
  let plans = Array.of_list (List.map (plan_of_pick pool) picks) in
  let run order ?priority () =
    let coverage = space () in
    List.iter
      (fun pick -> Sieve.Coverage.note coverage (plan_of_pick pool pick).Sieve.Planner.strategy)
      premarks;
    let permutation = order ?priority coverage plans in
    (permutation, Sieve.Coverage.covered coverage, Sieve.Coverage.uncovered coverage)
  in
  List.for_all
    (fun priority ->
      run reference_order ?priority () = run Hunt.Schedule.order ?priority ())
    [ None; Some hashed_priority ]

let qcheck_schedule_matches_reference =
  QCheck.Test.make ~count:150 ~name:"counter greedy = pre-counter greedy"
    (QCheck.make ~print:print_schedule_input schedule_input_gen)
    schedule_matches_reference

(* Nothing left to gain: every round is a zero-gain tie, which the first
   pending candidate wins. *)
let schedule_precovered_is_index_order () =
  Array.iter
    (fun (pool, space) ->
      let coverage = space () in
      Array.iter (fun (p : Sieve.Planner.plan) -> Sieve.Coverage.note coverage p.strategy) pool;
      Alcotest.(check (list int))
        "index order"
        (List.init (Array.length pool) Fun.id)
        (Hunt.Schedule.order coverage pool))
    (Lazy.force pools)

(* --- campaign ------------------------------------------------------ *)

let campaign ?(jobs = 1) ?(resume = false) ~out () =
  Hunt.Campaign.run ~jobs ~out ~resume ~budget:32 ~seed:42L ~minimize_budget:12
    ~cases:[ Sieve.Bugs.ca_398 () ] ()

let findings_fingerprint (summary : Hunt.Campaign.summary) =
  List.map
    (fun (f : Hunt.Campaign.finding) -> (f.signature, f.trial, f.minimized, f.shrink_runs))
    summary.Hunt.Campaign.findings

let campaign_deterministic_across_jobs () =
  let sequential = campaign ~jobs:1 ~out:"_hunt_test/det-j1" () in
  let parallel = campaign ~jobs:4 ~out:"_hunt_test/det-j4" () in
  Alcotest.(check string) "byte-identical journals"
    (read_file "_hunt_test/det-j1/journal.jsonl")
    (read_file "_hunt_test/det-j4/journal.jsonl");
  Alcotest.(check bool) "found something" true (sequential.Hunt.Campaign.findings <> []);
  Alcotest.(check bool) "same findings" true
    (findings_fingerprint sequential = findings_fingerprint parallel)

let campaign_resume_converges () =
  let full = campaign ~jobs:2 ~out:"_hunt_test/res-full" () in
  let journal = read_file "_hunt_test/res-full/journal.jsonl" in
  (* Rebuild the first half of the journal plus a torn record, as if the
     campaign had been killed mid-append. *)
  let lines = String.split_on_char '\n' journal in
  let keep = List.filteri (fun i _ -> i < List.length lines / 2) lines in
  mkdir_if_missing "_hunt_test/res-half";
  write_file "_hunt_test/res-half/journal.jsonl"
    (String.concat "\n" keep ^ "\n" ^ {|{"trial":999,"torn|});
  let resumed = campaign ~jobs:2 ~resume:true ~out:"_hunt_test/res-half" () in
  Alcotest.(check bool) "some trials replayed" true (resumed.Hunt.Campaign.replayed > 0);
  Alcotest.(check bool) "some trials executed" true (resumed.Hunt.Campaign.executed > 0);
  Alcotest.(check string) "resumed journal converges byte-for-byte" journal
    (read_file "_hunt_test/res-half/journal.jsonl");
  Alcotest.(check bool) "same findings as the uninterrupted run" true
    (findings_fingerprint full = findings_fingerprint resumed)

let campaign_resume_refuses_foreign_journal () =
  mkdir_if_missing "_hunt_test/res-foreign";
  let writer = Hunt.Journal.create ~path:"_hunt_test/res-foreign/journal.jsonl" in
  Hunt.Journal.append writer
    (Hunt.Journal.Header { version = 1; seed = 7L; trials = 32; cases = [ "CA-398" ] });
  Hunt.Journal.close writer;
  match campaign ~resume:true ~out:"_hunt_test/res-foreign" () with
  | _ -> Alcotest.fail "expected resume to refuse a different campaign's journal"
  | exception Failure msg ->
      Alcotest.(check bool) "clear error" true
        (String.length msg > 0 && String.sub msg 0 4 = "hunt")

let campaign_dedups_findings () =
  let summary = campaign ~out:"_hunt_test/dedup" () in
  let entries, _ = Hunt.Journal.load "_hunt_test/dedup/journal.jsonl" in
  let exposures = Hashtbl.create 8 in
  List.iter
    (function
      | Hunt.Journal.Trial { violations; _ } ->
          List.iter
            (fun (v : Hunt.Journal.violation_record) ->
              Hashtbl.replace exposures v.signature
                (1 + Option.value (Hashtbl.find_opt exposures v.signature) ~default:0))
            violations
      | _ -> ())
    entries;
  let repeated =
    Hashtbl.fold (fun s n acc -> if n >= 2 then s :: acc else acc) exposures []
  in
  Alcotest.(check bool) "a signature is exposed by several trials" true (repeated <> []);
  let signatures =
    List.map (fun (f : Hunt.Campaign.finding) -> f.signature) summary.Hunt.Campaign.findings
  in
  Alcotest.(check bool) "findings list each signature once" true
    (List.sort_uniq compare signatures = List.sort compare signatures);
  List.iter
    (fun s ->
      Alcotest.(check bool) "the repeated signature is a single finding" true
        (List.mem s signatures))
    repeated;
  (* Every finding left an artifact directory behind. *)
  List.iter
    (fun s ->
      let dir = Filename.concat "_hunt_test/dedup/findings" (Hunt.Signature.to_dirname s) in
      Alcotest.(check bool) "artifact emitted" true
        (Sys.file_exists (Filename.concat dir "artifact.json")
        && Sys.file_exists (Filename.concat dir "finding.json")))
    signatures

let suites =
  [
    ( "hunt.journal",
      [
        Alcotest.test_case "entries roundtrip through json" `Quick journal_roundtrip;
        Alcotest.test_case "torn tail tolerated and truncated" `Quick
          journal_tolerates_torn_tail;
      ] );
    ( "hunt.pool",
      [
        Alcotest.test_case "emits in task order" `Quick pool_emits_in_order;
        Alcotest.test_case "propagates worker exceptions" `Quick pool_propagates_exceptions;
      ] );
    ( "hunt.schedule",
      [
        Qcheck_util.to_alcotest qcheck_schedule_matches_reference;
        Alcotest.test_case "fully pre-covered pool keeps index order" `Quick
          schedule_precovered_is_index_order;
      ] );
    ( "hunt.campaign",
      [
        Alcotest.test_case "journal identical across job counts" `Slow
          campaign_deterministic_across_jobs;
        Alcotest.test_case "resume converges on the full run" `Slow campaign_resume_converges;
        Alcotest.test_case "resume refuses a foreign journal" `Quick
          campaign_resume_refuses_foreign_journal;
        Alcotest.test_case "findings dedup by signature" `Slow campaign_dedups_findings;
      ] );
  ]

(* Determinism regression: equal inputs must yield byte-identical
   artifacts — the property every campaign journal, resume and
   conformance comparison stands on. *)

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let mkdir_if_missing path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

let sample_test strategy =
  Sieve.Runner.base_test ~config:Kube.Cluster.default_config
    ~workload:(Kube.Workload.pod_churn ~n:2 ())
    ~horizon:5_000_000 strategy

let same_test_same_trace () =
  List.iter
    (fun strategy ->
      let a = Sieve.Runner.run_test (sample_test strategy) in
      let b = Sieve.Runner.run_test (sample_test strategy) in
      Alcotest.(check string)
        ("byte-identical traces under " ^ Sieve.Strategy.describe strategy)
        (Sieve.Runner.trace_jsonl a) (Sieve.Runner.trace_jsonl b))
    [
      Sieve.Strategy.No_perturbation;
      Sieve.Strategy.Crash_restart { victim = "kubelet-1"; at = 1_000_000; downtime = 800_000 };
      Sieve.Strategy.Partition_window
        { a = "kubelet-2"; b = "api-1"; from = 500_000; until = 2_000_000 };
    ]

let same_trace_with_conformance () =
  (* The monitor must not perturb the trajectory: same seed, flag on,
     run twice, and against the flag-off bytes. *)
  let test =
    sample_test
      (Sieve.Strategy.Crash_restart { victim = "kubelet-1"; at = 1_000_000; downtime = 800_000 })
  in
  let off = Sieve.Runner.run_test test in
  let on1 = Sieve.Runner.run_test ~check_conformance:true test in
  let on2 = Sieve.Runner.run_test ~check_conformance:true test in
  Alcotest.(check string) "flag on is reproducible" (Sieve.Runner.trace_jsonl on1)
    (Sieve.Runner.trace_jsonl on2);
  Alcotest.(check string) "flag on equals flag off" (Sieve.Runner.trace_jsonl off)
    (Sieve.Runner.trace_jsonl on1)

let campaign ?(jobs = 1) ?(check_conformance = false) ~out () =
  Hunt.Campaign.run ~jobs ~out ~budget:16 ~seed:42L ~minimize_budget:0 ~check_conformance
    ~cases:[ Sieve.Bugs.ca_398 () ] ()

let hunt_journal_invariant_under_conformance () =
  mkdir_if_missing "_hunt_test";
  let base = campaign ~jobs:1 ~out:"_hunt_test/conf-off" () in
  let seq = campaign ~jobs:1 ~check_conformance:true ~out:"_hunt_test/conf-j1" () in
  let (_ : Hunt.Campaign.summary) =
    campaign ~jobs:4 ~check_conformance:true ~out:"_hunt_test/conf-j4" ()
  in
  let journal out = read_file (out ^ "/journal.jsonl") in
  Alcotest.(check string) "flag does not change journal bytes"
    (journal "_hunt_test/conf-off") (journal "_hunt_test/conf-j1");
  Alcotest.(check string) "parallel conformance journal identical"
    (journal "_hunt_test/conf-j1") (journal "_hunt_test/conf-j4");
  (match (base.Hunt.Campaign.conformance, seq.Hunt.Campaign.conformance) with
  | None, Some c ->
      Alcotest.(check int) "every executed trial checked" seq.Hunt.Campaign.executed
        c.Hunt.Campaign.conf_trials;
      Alcotest.(check int) "no violations on the corpus" 0 c.Hunt.Campaign.conf_total;
      Alcotest.(check (list string)) "no signatures" [] c.Hunt.Campaign.conf_signatures
  | _ -> Alcotest.fail "conformance summary present iff the flag is set");
  (* Findings artifacts must not change either: conformance results stay
     out of finding directories by design. *)
  let fingerprint (s : Hunt.Campaign.summary) =
    List.map
      (fun (f : Hunt.Campaign.finding) -> (f.Hunt.Campaign.signature, f.Hunt.Campaign.trial))
      s.Hunt.Campaign.findings
  in
  Alcotest.(check bool) "same findings" true (fingerprint base = fingerprint seq);
  List.iter
    (fun (f : Hunt.Campaign.finding) ->
      let dir = "/findings/" ^ Hunt.Signature.to_dirname f.Hunt.Campaign.signature in
      List.iter
        (fun file ->
          Alcotest.(check string)
            (file ^ " bytes unchanged by the flag")
            (read_file ("_hunt_test/conf-off" ^ dir ^ "/" ^ file))
            (read_file ("_hunt_test/conf-j1" ^ dir ^ "/" ^ file)))
        [ "artifact.json"; "finding.json" ])
    base.Hunt.Campaign.findings

(* The replicated backend sits on the same engine and draws from the
   same seeded streams: equal inputs must stay byte-identical through
   Raft elections, proposal retries and replica routing. *)
let replicated_runs_deterministic () =
  List.iter
    (fun case ->
      let a = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
      let b = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
      Alcotest.(check string)
        ("byte-identical traces for " ^ case.Sieve.Bugs.id)
        (Sieve.Runner.trace_jsonl a) (Sieve.Runner.trace_jsonl b))
    (Sieve.Bugs.replicated ())

let replicated_hunt_jobs_identity () =
  mkdir_if_missing "_hunt_test";
  let campaign ~jobs ~out =
    Hunt.Campaign.run ~jobs ~out ~budget:24 ~seed:42L ~minimize_budget:0
      ~cases:[ Sieve.Bugs.rep_stale (); Sieve.Bugs.rep_minority () ]
      ()
  in
  let (_ : Hunt.Campaign.summary) = campaign ~jobs:1 ~out:"_hunt_test/rep-j1" in
  let (_ : Hunt.Campaign.summary) = campaign ~jobs:4 ~out:"_hunt_test/rep-j4" in
  Alcotest.(check string) "parallel replicated journal identical"
    (read_file "_hunt_test/rep-j1/journal.jsonl")
    (read_file "_hunt_test/rep-j4/journal.jsonl")

(* The HBase substrate routes through the same engine discipline:
   every case's trace must be byte-stable, and a hunt over the HBase
   corpus must journal identically across job counts and across a
   kill-and-resume. *)
let hbase_runs_deterministic () =
  List.iter
    (fun case ->
      let a = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
      let b = Sieve.Runner.run_test (Sieve.Bugs.test_of_case case) in
      Alcotest.(check string)
        ("byte-identical traces for " ^ case.Sieve.Bugs.id)
        (Sieve.Runner.trace_jsonl a) (Sieve.Runner.trace_jsonl b))
    (Sieve.Bugs.hbase ())

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let hbase_hunt_jobs_and_resume_identity () =
  mkdir_if_missing "_hunt_test";
  let campaign ?(resume = false) ~jobs ~out () =
    Hunt.Campaign.run ~jobs ~out ~resume ~budget:24 ~seed:42L ~minimize_budget:0
      ~cases:(Sieve.Bugs.hbase ()) ()
  in
  let (_ : Hunt.Campaign.summary) = campaign ~jobs:1 ~out:"_hunt_test/hb-j1" () in
  let (_ : Hunt.Campaign.summary) = campaign ~jobs:4 ~out:"_hunt_test/hb-j4" () in
  let journal = read_file "_hunt_test/hb-j1/journal.jsonl" in
  Alcotest.(check string) "parallel hbase journal identical" journal
    (read_file "_hunt_test/hb-j4/journal.jsonl");
  (* Kill-and-resume: rebuild the first half of the journal plus a torn
     record, as if the campaign died mid-append; the resumed run must
     converge to the uninterrupted bytes. *)
  let lines = String.split_on_char '\n' journal in
  let keep = List.filteri (fun i _ -> i < List.length lines / 2) lines in
  mkdir_if_missing "_hunt_test/hb-res";
  write_file "_hunt_test/hb-res/journal.jsonl"
    (String.concat "\n" keep ^ "\n" ^ {|{"trial":999,"torn|});
  let resumed = campaign ~jobs:4 ~resume:true ~out:"_hunt_test/hb-res" () in
  Alcotest.(check bool) "some trials replayed" true (resumed.Hunt.Campaign.replayed > 0);
  Alcotest.(check bool) "some trials executed" true (resumed.Hunt.Campaign.executed > 0);
  Alcotest.(check string) "resumed hbase journal converges byte-for-byte" journal
    (read_file "_hunt_test/hb-res/journal.jsonl")

(* --- golden histories ------------------------------------------------ *)

(* A fixed sample of whole histories, pinned across commits: for every
   corpus case, its reference run and the first trials of its campaign
   plan. Each run's digest covers the JSONL trace, the metrics snapshot,
   the oracle's violations and the final clock, so a change that only
   reorders deliveries (and leaves the journals' violation lists alone)
   still shows. Regenerate only for an intended change to histories. *)

let golden_trials_per_case = 8

let history_digest (outcome : Sieve.Runner.outcome) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Sieve.Runner.trace_jsonl outcome);
  Buffer.add_string buf (Dsim.Json.to_string (Sieve.Runner.metrics_json outcome));
  List.iter
    (fun (time, v) -> Printf.bprintf buf "\n%d %s" time (Sieve.Oracle.describe v))
    outcome.Sieve.Runner.violations;
  Printf.bprintf buf "\nclock %d"
    (Dsim.Engine.now (Sieve.Substrate.engine outcome.Sieve.Runner.live));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_corpus () =
  Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ()

let history_digests () =
  let cases = golden_corpus () in
  let planned = Hunt.Campaign.plan ~cases () in
  List.map
    (fun (case : Sieve.Bugs.case) ->
      let id = case.Sieve.Bugs.id in
      let trials =
        Array.to_list planned.Hunt.Campaign.trials
        |> List.filter (fun (t : Hunt.Campaign.trial) -> String.equal t.Hunt.Campaign.case_id id)
        |> List.filteri (fun i _ -> i < golden_trials_per_case)
        |> List.map (fun (t : Hunt.Campaign.trial) -> t.Hunt.Campaign.test)
      in
      let runs = Sieve.Bugs.reference_test_of_case case :: trials in
      (id, List.map (fun test -> history_digest (Sieve.Runner.run_test test)) runs))
    cases

(* Generated before the kernel and delivery-path optimisations landed;
   those changes must leave every history byte-identical. *)
let golden_histories =
  [
    ( "K8s-59848",
      [
        "d3bc97caffc1297f89b34659b1fa1924";
        "c5aa587eea42121467b730c70649f352";
        "85082f76f7e5c9094de6b4d2134ad010";
        "96de5afeeef2271a03087c287c3ebaa8";
        "4e560b45326a36b9a1c057f91751c102";
        "d1428b7800022d2aa3ee82f8454a2e5a";
        "0acc4e3efbaeeb5f87df4353836c3877";
        "fbe8cb327e7b55b334552c59b855ddfc";
        "3568400bb30676e452944c1448438128"
      ] );
    ( "K8s-56261",
      [
        "a19a08f3e3c5775335b4db4c364281c3";
        "3fd635d8b11deed11baac606d152633a";
        "da5f4d3caa98f91f9247cb22dedeb719";
        "2449c98d334e6294537af9e29bc9e3ca";
        "0ed920691d3c6e63458e542b20edcb5e";
        "533f46b17795da0ac7c8ba353146bfd4";
        "3d0882a76bb8f4609e668e7e629f6a33";
        "416f04e092d368acbceb90236b7b912f";
        "065a93fa30b727c7f64a1d7ae772cea5"
      ] );
    ( "CA-398",
      [
        "88207706b4a40c323e5241e5d3347042";
        "d95f898a0470243998f43d68331e3c56";
        "3d0315a4169fd499acb6fb87e3285b19";
        "bce2fa6688e2065c8789c65dd3b6114e";
        "914650a9464c77da699e5e7c8283200d";
        "ec7b318139b89f7ffd7b53a1d1fb90b7";
        "ece117e5f4fbb37f1ee88b026409cd9a";
        "6557ad57c769664804c45f8986f96524";
        "70cadf70180f77fb61f0d40e8a7d122a"
      ] );
    ( "CA-400",
      [
        "e4415f74f6779895f945899284761775";
        "4830ec8fbad8c4986c993af3a2aa017c";
        "287ca3b4596de192ebe1e1f322f443b3";
        "474b010f1b04a2e44a99fe6fbef216aa";
        "3d9ba240739960a0870eaae3145898e8";
        "b20f60adae64d0d3cebac13480d8a2f8";
        "25b3e7ea152e77101dd92325640e66c6";
        "fbf9b9c577ad9929f9ed86eeded91ea4";
        "111cde252e1df7b35d30cd56115231a3"
      ] );
    ( "CA-402",
      [
        "a15001feae6314c78b54f961a11bb4ba";
        "3d04e70c1b2149466cbe1b6bfdf313cb";
        "25429da58c504301c3b2f84347b53961";
        "fb697d435a44ca6d2e1bad8cefc479c3";
        "5f88800ba5d2fd724894d85d2916a9f4";
        "b1d6b84b5fb3b3f0c15bd12859c0d360";
        "359b777a4a96466b09ee5597baad3edf";
        "9e630f7c1845ab9818b3160dca680b22";
        "e47f8e27b85ba668859451a39e36ce06"
      ] );
    ( "EXT-RS",
      [
        "bd05a896041f04507d4b0c5f24769ef3";
        "67e8967f34905e2db71ac2a45f39c0ae";
        "5d317c98bcc672eec18d30d33a4c2fd5";
        "6f9364b82c5cdbe2f26b6e851c061af5";
        "32bbeecad5edd6435daab92a4db323d5";
        "d5ed6aaeae98947955d6dd7b015a6fc4";
        "e5e65a9f67d340b6284757c6d29ec621";
        "3e9b4177e21b2b0dd9885c3efc638ccd";
        "9aa3a72dafca836491ec8447ff25b4ab"
      ] );
    ( "EXT-NC",
      [
        "71a663fbfe3501d2ac0a08447b72dae4";
        "0ecca8b747519c1ce9cdec673cc3500f";
        "65d3771b982df571993ddeb3ab1d6d27";
        "9fc475c7d65ab632570bfca40cc7e2e0";
        "744844868efa169523e0c35f876d6865";
        "452ef9c3f6d01a7152c7e25fa5258bd2";
        "1a5666540139f764f7ae3e3769768f6a";
        "1b2cc2d70493e9c2e79ce5ca4db1474a";
        "9cca54ed807540dc7cee7ed656b64592"
      ] );
    ( "EXT-DEP",
      [
        "806a14bf0b6107b3635be6627d38377e";
        "ec2811fe06669368e4e0c762d5343dbe";
        "c5432ee29ad33fcda0dbdf3f24ca004b";
        "e1fb13eab5fe40deab88d05e5e8f54e9";
        "7797d0f716686ec9e03c1a24d50a4f95";
        "69fbc31122e86aba028290117bfb1a1f";
        "d81fd2b8ddc05bc00a4e5b86af82d340";
        "692c85353ebfa36e6802779a8f619fa1";
        "491234ad62663f51c357b2ac7ac3e687"
      ] );
    ( "REP-STALE",
      [
        "03466bb12746e08c9ad7e29557e7eb5a";
        "6bdf30ddb932560d024f012460806268";
        "641a1934d5abc78e08cefe6445a33e95";
        "acb46918a18ddd0351bbe6354125f12b";
        "34ed41db81a3f8b61176873e4c9cb2ea";
        "d0184f86c8a917d9bbca611859011f2e";
        "755dbe5410e36e0dc9fee6dc41310bc9";
        "a09bb62aa50806f604555341158576b4";
        "1c60e52b220db795fdcc0ee1ef3b18ae"
      ] );
    ( "REP-CHURN",
      [
        "3513828ba121f7f065e4cc88abd3f4b0";
        "be0bd659f415a144ff2213a731c958a6";
        "d9c4a154fd30cc2506bfdc7ff24ef44b";
        "75d67b5459f75921362b3028faff3d57";
        "00da3bcf344276674f5ffdb2e6340e7f";
        "01c3c880aa975efc721505f6ed37ca3e";
        "316d64681bd4e95e8d44e99ef94f4bab";
        "a826423d890f8ec53462dcb159b2adf3";
        "214f79ac3ab70250265fd2af0216a11d"
      ] );
    ( "REP-MINORITY",
      [
        "670a07e81a8e5276062d021b64f82dd0";
        "27eac7bb1c22fc5b847c1866954b69d0";
        "3d16f97392178fe69e07a7287606689b";
        "9fbb8190e625090ed6d6a1f3b007e695";
        "638cef98932cbee71d2cb8abba092edf";
        "cca0886b8ff881c4de621fd696a55700";
        "3130e068d937b313214b62b9d85fb272";
        "5f3223577226b6b8cc9d0b206f634eca";
        "7f60ebe2da7c10f992125bd07dca254a"
      ] );
    ( "REP-RECOVER",
      [
        "9367bcc141ee899b680de7c776aeb919";
        "5b4d31f3dfcc49c155bb21d00bd2159e";
        "f39bef76c45813fe36f07c87d24c0c3d";
        "80bc2aeae0578b0baf76bc5f381138c7";
        "c0922a907f4f599d83dc7a7fd469b45e";
        "e78194e705c01c54d0f96c72ccaea281";
        "bdb3b0b32d817a164f49d8227cc7ee5e";
        "9939f6a183bf549439c60fa1a0d31aad";
        "f4d952a548c10c911cf9fb26721a80a1"
      ] );
    ( "HB-ASSIGN",
      [
        "8cb2ad5ed5edd42e60c4c5715a16074e";
        "2f0114813a65bc03371e9137e5c55b33";
        "18acff56d75327f4f882a320d43d23da";
        "2706e3b5afbef7a348902baebc752c8c";
        "41359d7443644d75568dbef64231f5fe";
        "b6dc2f2cbfb0a07e431f6f977b2067d2";
        "20349ae74ff287334e3aa7fda0425002";
        "25cae5e88fd74b278fceeec7fe7aa01b";
        "c8ca54bee7be90edc5017043d0d509e5"
      ] );
    ( "HB-WATCH",
      [
        "f2c43fdb6637c9ca6498a3a0f8991985";
        "bc36ab3b151a16e207942102409386c6";
        "855e63793306fa3497d5bc6e1b49dc3c";
        "44e4a767326341747a23c9e4631f6f49";
        "b0766806331bfbf49e7f2d3156c62378";
        "bcc8e5b17d518aac1d49f99de37c8e0b";
        "a3763ee05412d2009a7dc2cf1ba7a49e";
        "bbed487cbf0c5a6719139d674e67ab06";
        "75ecf6db7ca7a706d926516a111868a6"
      ] );
    ( "HB-FOLLOWER",
      [
        "d7efa4a37739162fa37d65a18b72b217";
        "485e7a45667998abbc1aad2352b2e4d6";
        "b6068bb300b637b5ac9d1d195ad941e5";
        "3f55e6795ff682b5f552505c49e5f59c";
        "29ef2dbf5dd58ea29649a9a17ecaa5ed";
        "f4cbc5e54e72f5f75622a9b0e6077e7a";
        "e5e62d35b81fca8d6309627b57621153";
        "03b1daa4da4f21b0aa62e48c890ed52d";
        "e7161faf26dbafef06c3052fea32de36"
      ] );
  ]

let histories_pinned () =
  Alcotest.(check (list (pair string (list string))))
    "per-run history digests" golden_histories (history_digests ())

(* Per-tag accounting observes and changes nothing: a profiled run has
   the unprofiled run's history, and its tags cover every event the
   engine ran. *)
let profiling_preserves_history () =
  let case = Sieve.Bugs.k8s_56261 () in
  let test = Sieve.Bugs.test_of_case case in
  let plain = Sieve.Runner.run_test test in
  let ticks = ref 0. in
  let clock () =
    ticks := !ticks +. 1.;
    !ticks
  in
  let profiled = Sieve.Runner.run_test ~profile:clock test in
  Alcotest.(check string) "same history" (history_digest plain) (history_digest profiled);
  Alcotest.(check (list string)) "no profile without the switch" []
    (List.map
       (fun (r : Dsim.Engine.profile_row) -> r.Dsim.Engine.tag)
       (Dsim.Engine.profile (Sieve.Substrate.engine plain.Sieve.Runner.live)));
  let rows = Dsim.Engine.profile (Sieve.Substrate.engine profiled.Sieve.Runner.live) in
  let tags = List.map (fun (r : Dsim.Engine.profile_row) -> r.Dsim.Engine.tag) rows in
  List.iter
    (fun tag -> Alcotest.(check bool) (tag ^ " counted") true (List.mem tag tags))
    [ "pipe.event"; "pipe.bookmark"; "net.request"; "net.reply"; "oracle.sweep";
      "kube.scheduler.resync"; "kube.lag-sample" ];
  Alcotest.(check (list string)) "rows sorted by tag" (List.sort String.compare tags) tags;
  List.iter
    (fun (r : Dsim.Engine.profile_row) ->
      Alcotest.(check bool) (r.Dsim.Engine.tag ^ " has events") true (r.Dsim.Engine.events > 0);
      (* The fake clock advances one second per reading: two per handler. *)
      Alcotest.(check (float 0.0)) (r.Dsim.Engine.tag ^ " timed per event")
        (float_of_int r.Dsim.Engine.events) r.Dsim.Engine.seconds)
    rows

let suites =
  [
    ( "determinism",
      [
        Alcotest.test_case "same test, same trace" `Slow same_test_same_trace;
        Alcotest.test_case "conformance flag preserves traces" `Slow same_trace_with_conformance;
        Alcotest.test_case "hunt journal invariant under conformance" `Slow
          hunt_journal_invariant_under_conformance;
        Alcotest.test_case "replicated runs deterministic" `Slow replicated_runs_deterministic;
        Alcotest.test_case "replicated hunt jobs identity" `Slow replicated_hunt_jobs_identity;
        Alcotest.test_case "hbase runs deterministic" `Slow hbase_runs_deterministic;
        Alcotest.test_case "hbase hunt jobs + resume identity" `Slow
          hbase_hunt_jobs_and_resume_identity;
        Alcotest.test_case "golden histories" `Slow histories_pinned;
        Alcotest.test_case "profiling preserves history" `Quick profiling_preserves_history;
      ] );
  ]

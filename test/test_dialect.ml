(* The dialect seam: every corpus case's campaign plan is pinned by a
   golden digest, and the dialect-blind layers are held to containing no
   dialect match. *)

let corpus () = Sieve.Bugs.all_with_extras () @ Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ()

(* One line per trial in dispatch order: its origin (the planner's
   candidate rank) and the strategy it runs. *)
let plan_digests ~hazard_rank =
  let planned = Hunt.Campaign.plan ~hazard_rank ~cases:(corpus ()) () in
  List.map
    (fun (case : Sieve.Bugs.case) ->
      let id = case.Sieve.Bugs.id in
      let buf = Buffer.create 4096 in
      Array.iter
        (fun (t : Hunt.Campaign.trial) ->
          if String.equal t.Hunt.Campaign.case_id id then
            Printf.bprintf buf "%s %s\n" t.Hunt.Campaign.origin
              (Sieve.Strategy.describe t.Hunt.Campaign.test.Sieve.Runner.strategy))
        planned.Hunt.Campaign.trials;
      (id, Digest.to_hex (Digest.string (Buffer.contents buf))))
    (corpus ())

(* One digest per case, with and without hazard ranking. Any change to
   candidate enumeration, its causal ranking, the coverage space or the
   hazard graph shows up as a changed digest; regenerate only for an
   intended change to the plan. *)
let golden_plain =
  [
    ("K8s-59848", "87f4065220a5b193a8a7094214e9abac");
    ("K8s-56261", "64385bb1ebf4a801692214ef019cecd9");
    ("CA-398", "19f6d22d4581d65bbfa80babda10c7c5");
    ("CA-400", "1d91cf9ddf4bd0b3a85236150b32721f");
    ("CA-402", "3180e67252a09b923a76908ff1905d31");
    ("EXT-RS", "e6bf354fdc5b784f3141882ed9d8c55a");
    ("EXT-NC", "1172dffb9d1bf96634ef1fd570077233");
    ("EXT-DEP", "5398c87579d4444c936a12e8023a542a");
    ("REP-STALE", "81f3790fa402c0956bdb99f4248a392f");
    ("REP-CHURN", "a7d424fe135280c556d7179a9b65a7db");
    ("REP-MINORITY", "38dff70b01879b1e28cbb2c15f19a227");
    ("REP-RECOVER", "494c39526945c57fd4c5d0cf723dd675");
    ("HB-ASSIGN", "7af3686742845e85f7726f3fedc33457");
    ("HB-WATCH", "157712d777006fec2b77cb2ea03cd442");
    ("HB-FOLLOWER", "9479db79e2918cea79eafe3afd640ac5")
  ]

let golden_hazard =
  [
    ("K8s-59848", "1351a3bcae37b3455ed6cea16b021c0e");
    ("K8s-56261", "b3f5e498cf92ab9b06ae826ac4de3b27");
    ("CA-398", "df6c0f7f21b0e7cedf64010790ddd153");
    ("CA-400", "bd0ca0c18b6c11e8b7fa52defdfceb0a");
    ("CA-402", "1260e8721a0cf6f56d8c35b211cb722f");
    ("EXT-RS", "a9b5cd7b4c240bcdb89e95bb0f108510");
    ("EXT-NC", "611595913c39980f44ba7bb32f847e50");
    ("EXT-DEP", "bdf55665df8e4877664bd6328d9ed677");
    ("REP-STALE", "f835e76e772bf8ab0531c2d7749dc9d0");
    ("REP-CHURN", "4376bf12a04e89f914a9f04bd064215b");
    ("REP-MINORITY", "95444429ba2789881b943a865d76b093");
    ("REP-RECOVER", "f048e61094655017578ae4efe427bfec");
    ("HB-ASSIGN", "8338c404710471e3cfa3299588fb5a92");
    ("HB-WATCH", "226ee411f043825ef869d371e9a13369");
    ("HB-FOLLOWER", "9479db79e2918cea79eafe3afd640ac5")
  ]

let check_plan ~hazard_rank golden () =
  Alcotest.(check (list (pair string string)))
    "per-case plan digests" golden (plan_digests ~hazard_rank)

(* --- no dialect match outside the record ----------------------------- *)

let forbidden = [ "Substrate.Kube"; "Substrate.Hbase"; "Kube_live"; "Hbase_live" ]

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sources dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let root path = List.fold_left Filename.concat ".." path

let dialect_blind_sources () =
  sources (root [ "lib"; "hunt" ])
  @ sources (root [ "lib"; "diagnosis" ])
  @ [ root [ "lib"; "core"; "runner.ml" ] ]
  @ sources (root [ "bin" ])

let no_dialect_match () =
  let paths = dialect_blind_sources () in
  Alcotest.(check bool) "campaign.ml is scanned" true
    (List.mem (root [ "lib"; "hunt"; "campaign.ml" ]) paths);
  let offenders =
    List.concat_map
      (fun path ->
        let text = read_file path in
        List.filter_map
          (fun needle ->
            if contains text needle then Some (Printf.sprintf "%s: %s" path needle) else None)
          forbidden)
      paths
  in
  Alcotest.(check (list string)) "dialect matches outside the record" [] offenders

let suites =
  [
    ( "dialect",
      [
        Alcotest.test_case "plan order pinned" `Slow (check_plan ~hazard_rank:false golden_plain);
        Alcotest.test_case "hazard-ranked plan order pinned" `Slow
          (check_plan ~hazard_rank:true golden_hazard);
        Alcotest.test_case "no dialect match outside the record" `Quick no_dialect_match;
      ] );
  ]

(* The hunt-and-soak benchmark: end-to-end metrics from untraced runs,
   per-layer metrics from a traced replay. See README.md for the
   workloads, the metric -> layer -> workload map and how to run it.

   Usage:
     bench.exe --workload hunt-kube|hunt-rep-hbase|soak-kube --seed N
               --seconds S --trace 0|1 [--commit ID] [--nproc N]

   The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   records the environment and the sample count behind every figure.
   Any failed correctness gate prints "correct": false and exits 1. *)

open Perfbench
module Json = Dsim.Json
module Runner = Sieve.Runner
module Substrate = Sieve.Substrate

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type workload = Hunt_kube | Hunt_rep_hbase | Soak_kube

let workload_name = function
  | Hunt_kube -> "hunt-kube"
  | Hunt_rep_hbase -> "hunt-rep-hbase"
  | Soak_kube -> "soak-kube"

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  nproc : int;
  rep : string option;  (** set in a child that runs one hunt repetition into this directory *)
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload hunt-kube|hunt-rep-hbase|soak-kube --seed N --seconds S \
     --trace 0|1 [--commit ID] [--nproc N]";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload =
    match get "workload" with
    | "hunt-kube" -> Hunt_kube
    | "hunt-rep-hbase" -> Hunt_rep_hbase
    | "soak-kube" -> Soak_kube
    | _ -> usage ()
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  {
    workload;
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace;
    commit = Option.value (List.assoc_opt "commit" kv) ~default:"unknown";
    nproc =
      Option.value ~default:0 (Option.bind (List.assoc_opt "nproc" kv) int_of_string_opt);
    rep = List.assoc_opt "rep" kv;
  }

(* ------------------------------------------------------------------ *)
(* Scratch space, gates and output                                     *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Correctness gates: each failure is reported on stderr and turns the
   result's "correct" to false. *)
let failures = ref []

let gate ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

let span_of f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Closed-loop repetition: at least two, then as many as bring the run
   nearest to [seconds] — another one starts while the run would end
   less than half a repetition past the mark. *)
let more ~t_start ~seconds n =
  let elapsed = now () -. t_start in
  n < 2 || elapsed +. (elapsed /. float_of_int n /. 2.) <= seconds

let mib_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

let peak_heap_mb () = mib_of_words (Gc.quick_stat ()).Gc.top_heap_words

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  quartiles : (float * float * float) option;  (** of the samples behind a median *)
}

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples; quartiles = None }

let median_of name unit_ values =
  {
    name;
    value = Stats.median values;
    unit_;
    samples = Array.length values;
    quartiles = Some (Stats.quartiles values);
  }

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                *)

let hunt_cases = function
  | Hunt_kube -> Sieve.Bugs.all_with_extras ()
  | Hunt_rep_hbase -> Sieve.Bugs.replicated () @ Sieve.Bugs.hbase ()
  | Soak_kube -> []

let hunt_jobs = function Hunt_rep_hbase -> 2 | Hunt_kube | Soak_kube -> 1

(* The rep/hbase hunt runs the per-trial monitor and diagnosis cards;
   the soak runs the monitor. *)
let monitored = function Hunt_kube -> false | Hunt_rep_hbase | Soak_kube -> true

(* Soak: one long fault-free pod-churn history on the default kube
   cluster — a pod every 200 ms for ~20 virtual minutes, each deleted
   3 s after creation. *)
let soak_pods = 6_000

let soak_test ~seed =
  let spacing = 200_000 and lifetime = 3_000_000 and start = 1_000_000 in
  let workload = Kube.Workload.pod_churn ~start ~spacing ~lifetime ~n:soak_pods () in
  let horizon = start + (soak_pods * spacing) + lifetime + 5_000_000 in
  Runner.base_test ~name:"soak-kube"
    ~config:{ Kube.Cluster.default_config with Kube.Cluster.seed = Int64.of_int seed }
    ~workload ~horizon Sieve.Strategy.No_perturbation

let vsec_of_horizon h = float_of_int h /. 1e6

(* ------------------------------------------------------------------ *)
(* Untraced hunt campaigns                                             *)

type campaign = {
  summary : Hunt.Campaign.summary;
  wall : float;
  setup : float;  (** Campaign.run call -> first settled trial *)
  exposures : (string * float option) list;
  journal : string;  (** journal bytes *)
  vsec : float;  (** virtual seconds the executed trials simulated *)
}

let run_campaign ~workload ~seed ~jobs ~out =
  let cases = hunt_cases workload in
  let m = monitored workload in
  let clock = Exposure.clock () in
  let first = ref None in
  let t0 = now () in
  let on_progress (p : Hunt.Campaign.progress) =
    let at = now () -. t0 in
    if !first = None then first := Some at;
    Exposure.note clock ~findings:p.Hunt.Campaign.findings ~at
  in
  let summary =
    Hunt.Campaign.run ~jobs ~out ~seed:(Int64.of_int seed) ~check_conformance:m ~diagnose:m
      ~on_progress ~cases ()
  in
  let wall = now () -. t0 in
  let exposures =
    Exposure.per_case
      ~cases:(List.map (fun (c : Sieve.Bugs.case) -> c.Sieve.Bugs.id) cases)
      ~finding_names:
        (List.map (fun (f : Hunt.Campaign.finding) -> [ f.case_id; f.bug ]) summary.findings)
      ~times:(Exposure.times clock)
  in
  let journal = read_file summary.journal in
  let horizon_of id =
    (List.find (fun (c : Sieve.Bugs.case) -> c.Sieve.Bugs.id = id) cases).Sieve.Bugs.horizon
  in
  let entries, _ = Hunt.Journal.load summary.journal in
  let vsec =
    List.fold_left
      (fun acc -> function
        | Hunt.Journal.Trial t -> acc +. vsec_of_horizon (horizon_of t.case)
        | _ -> acc)
      0. entries
  in
  gate (summary.executed = summary.trials && summary.trials > 0)
    "campaign executed %d of %d planned trials" summary.executed summary.trials;
  { summary; wall; setup = Option.value !first ~default:wall; exposures; journal; vsec }

(* One repetition, in a child process: [bench.exe ... --rep OUT] runs the
   campaign into OUT and writes [rep_result] to OUT.result. *)
type rep_result = { campaign : campaign; heap_mb : float; rep_failures : string list }

let rep_child o ~out =
  let campaign = run_campaign ~workload:o.workload ~seed:o.seed ~jobs:(hunt_jobs o.workload) ~out in
  let result = { campaign; heap_mb = peak_heap_mb (); rep_failures = List.rev !failures } in
  Out_channel.with_open_bin (out ^ ".result") (fun oc -> Marshal.to_channel oc result [])

(* Runs one repetition in a fresh process, so each one starts from an
   empty heap and its peak is its own, whatever ran before it. The
   child's stdout goes to stderr; it is waited for on every path. *)
let run_rep o ~out =
  let args =
    [|
      Sys.executable_name; "--workload"; workload_name o.workload; "--seed"; string_of_int o.seed;
      "--seconds"; "0"; "--trace"; "0"; "--rep"; out;
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  let rec wait () =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (match wait () with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "repetition %s: child process failed" out));
  let result : rep_result =
    In_channel.with_open_bin (out ^ ".result") (fun ic -> Marshal.from_channel ic)
  in
  List.iter (fun f -> gate false "%s" f) result.rep_failures;
  result

let hunt_untraced o ~workdir =
  let t_start = now () in
  let results = ref [] in
  while more ~t_start ~seconds:o.seconds (List.length !results) do
    let out = Filename.concat workdir (Printf.sprintf "rep-%d" (List.length !results)) in
    results := run_rep o ~out :: !results;
    rm_rf out;
    rm_rf (out ^ ".result")
  done;
  let results = List.rev !results in
  let reps = List.map (fun r -> r.campaign) results in
  let first = List.hd reps in
  List.iteri
    (fun i c ->
      gate (String.equal c.journal first.journal)
        "journal of repetition %d differs from repetition 0 at seed %d" i o.seed)
    reps;
  let tally =
    List.fold_left (fun acc c -> Exposure.add acc (Exposure.of_exposures c.exposures)) Exposure.zero
      reps
  in
  let per_rep name unit_ f = median_of name unit_ (Array.of_list (List.map f reps)) in
  let exposure c = Exposure.exposure_stats ~censor:c.wall c.exposures in
  let metrics =
    [
      per_rep "setup_s" "s" (fun c -> c.setup);
      per_rep "trials_per_s" "1/s" (fun c -> float_of_int c.summary.executed /. c.wall);
      per_rep "expose_p50_s" "s" (fun c -> fst (exposure c));
      per_rep "expose_all_s" "s" (fun c -> snd (exposure c));
      per_rep "vsec_per_s" "vs/s" (fun c -> c.vsec /. c.wall);
      median_of "peak_heap_mb" "MiB" (Array.of_list (List.map (fun r -> r.heap_mb) results));
    ]
  in
  let notes =
    [
      ("rep_wall_s", Json.List (List.map (fun c -> Json.Float c.wall) reps));
      ("trials", Json.Int first.summary.trials);
      ("findings", Json.Int (List.length first.summary.findings));
      ("cases", Json.Int (List.length first.exposures));
    ]
  in
  (tally, metrics, notes)

(* ------------------------------------------------------------------ *)
(* Untraced soak                                                        *)

(* Set-up as the soak pays it: build the cluster, start it, install the
   workload. Repeated after a full major collection and discarded, so
   each one sees the same collector state and the median is steady. *)
let soak_setup (test : Runner.test) =
  Gc.full_major ();
  snd
    (span_of (fun () ->
         let live = Substrate.create test.spec in
         Substrate.start live;
         Substrate.schedule live test.spec))

let soak_violations (outcome : Runner.outcome) =
  List.length outcome.violations
  + match outcome.conformance with Some c -> c.Runner.conf_total | None -> 0

let soak_untraced o =
  let test = soak_test ~seed:o.seed in
  let t_start = now () in
  let walls = ref [] and tally = ref Exposure.zero and setups = ref [] in
  while more ~t_start ~seconds:o.seconds (List.length !walls) do
    (* Set-ups are spread over the run, ten before each soak run, so
       their median sees the same machine as the runs do. *)
    for _ = 1 to 10 do
      setups := soak_setup test :: !setups
    done;
    (* Each run starts from a compacted heap, not the last run's garbage. *)
    Gc.compact ();
    let outcome, wall = span_of (fun () -> Runner.run_test ~check_conformance:true test) in
    let violations = soak_violations outcome in
    gate (violations = 0) "fault-free soak reported %d violations" violations;
    tally := Exposure.add !tally (Exposure.of_soak ~violations);
    walls := wall :: !walls
  done;
  let walls = Array.of_list (List.rev !walls) in
  let vsec = vsec_of_horizon test.horizon in
  let metrics =
    [
      median_of "setup_s" "s" (Array.of_list !setups);
      median_of "trials_per_s" "1/s" (Array.map (fun w -> 1. /. w) walls);
      (* One clean case per run: its verdict arrives when the run is
         judged, so both exposure figures are the time to verdict. *)
      median_of "expose_p50_s" "s" walls;
      median_of "expose_all_s" "s" walls;
      median_of "vsec_per_s" "vs/s" (Array.map (fun w -> vsec /. w) walls);
      metric "peak_heap_mb" "MiB" (peak_heap_mb ());
    ]
  in
  (!tally, metrics, [ ("soak_vsec", Json.Float vsec) ])

(* ------------------------------------------------------------------ *)
(* Traced replay                                                        *)

(* Span accumulators, keyed by metric name. Spans are recorded only
   around calls into the program's public functions. *)
module Spans = struct
  type t = (string, float * int) Hashtbl.t  (** total seconds, span count *)

  let create () : t = Hashtbl.create 31

  let time (t : t) name f =
    let r, dt = span_of f in
    let total, n = Option.value (Hashtbl.find_opt t name) ~default:(0., 0) in
    Hashtbl.replace t name (total +. dt, n + 1);
    r

  let get (t : t) name = Option.value (Hashtbl.find_opt t name) ~default:(0., 0)

  let total (t : t) = Hashtbl.fold (fun _ (v, _) acc -> acc +. v) t 0.
end

type trial_obs = {
  violations : (int * Sieve.Oracle.violation) list;
  conf_total : int;
  trial_s : float;
  minor_words : float;
  entries : int;
  slices : float list;  (** wall seconds of each virtual-time slice *)
}

(* [Runner.run_test], step by step in its own construction order, with
   a span around each call. With [slices] the run advances in that many
   equal virtual-time slices, calling [after_slice] (untimed) after
   each. *)
let traced_trial ?(slices = 1) ?(after_slice = ignore) spans ~monitor (test : Runner.test) =
  let span name f = Spans.time spans name f in
  let minor0 = Gc.minor_words () in
  let t0 = now () in
  let live = span "core.substrate.create_s" (fun () -> Substrate.create test.spec) in
  let judge, handle =
    match live with
    | Substrate.Kube_live cluster ->
        let oracle = span "core.trial.attach_s" (fun () -> Sieve.Oracle.attach cluster) in
        let handle =
          if monitor then
            Some
              (span "conformance.attach_s" (fun () ->
                   Conformance.Handle.of_kube (Conformance.Hooks.attach cluster)))
          else None
        in
        span "core.trial.attach_s" (fun () -> Sieve.Strategy.apply cluster test.strategy);
        ((fun () -> Sieve.Oracle.violations oracle), handle)
    | Substrate.Hbase_live cluster ->
        let oracle = span "core.trial.attach_s" (fun () -> Sieve.Hbase_oracle.attach cluster) in
        let handle =
          if monitor then
            Some
              (span "conformance.attach_s" (fun () ->
                   Conformance.Handle.of_hbase (Conformance.Hbase_hooks.attach cluster)))
          else None
        in
        span "core.trial.attach_s" (fun () -> Sieve.Strategy.apply_hbase cluster test.strategy);
        ((fun () -> Sieve.Hbase_oracle.violations oracle), handle)
  in
  span "core.substrate.start_s" (fun () ->
      Substrate.start live;
      Substrate.schedule live test.spec);
  let slice_s =
    List.init slices (fun k ->
        let until = test.horizon * (k + 1) / slices in
        let (), dt =
          span_of (fun () -> span "core.substrate.run_s" (fun () -> Substrate.run ~until live))
        in
        after_slice ();
        dt)
  in
  Option.iter (fun h -> span "conformance.finish_s" (fun () -> Conformance.Handle.finish h)) handle;
  let violations = span "core.oracle.judge_s" judge in
  {
    violations;
    conf_total = (match handle with Some h -> Conformance.Handle.total h | None -> 0);
    trial_s = now () -. t0;
    minor_words = Gc.minor_words () -. minor0;
    entries = Dsim.Trace.recorded (Substrate.trace live);
    slices = slice_s;
  }

let records_of violations =
  List.map
    (fun (time, v) ->
      {
        Hunt.Journal.time;
        bug = Sieve.Oracle.bug_id v;
        signature = Hunt.Signature.of_violation v;
        detail = Sieve.Oracle.describe v;
      })
    violations

(* The empty-workload, unperturbed run of a spec over [horizon]: the
   floor the periodic loops cost on their own. Median of three. *)
let idle_run_s (spec : Substrate.spec) ~horizon =
  let spec =
    match spec with
    | Substrate.Kube { config; _ } -> Substrate.Kube { config; workload = [] }
    | Substrate.Hbase { config; _ } -> Substrate.Hbase { config; workload = [] }
  in
  Stats.median
    (Array.init 3 (fun _ ->
         let live = Substrate.create spec in
         Substrate.start live;
         Substrate.schedule live spec;
         snd (span_of (fun () -> Substrate.run ~until:horizon live))))

(* Monitored vs unmonitored runs of the same tests, interleaved per test
   so drift bills both arms alike. *)
let conformance_probe tests =
  let spans = Spans.create () and scratch = Spans.create () in
  let off = ref 0. and on = ref 0. in
  List.iter
    (fun test ->
      off := !off +. (traced_trial scratch ~monitor:false test).trial_s;
      on := !on +. (traced_trial spans ~monitor:true test).trial_s)
    tests;
  [
    metric ~samples:(List.length tests) "conformance.attach_s" "s"
      (fst (Spans.get spans "conformance.attach_s"));
    metric ~samples:(List.length tests) "conformance.finish_s" "s"
      (fst (Spans.get spans "conformance.finish_s"));
    metric ~samples:(List.length tests) "conformance.overhead_ratio" "ratio" (!on /. !off);
  ]

let trial_metrics (obs : trial_obs list) =
  let n = List.length obs in
  let ms = Array.of_list (List.map (fun o -> o.trial_s *. 1e3) obs) in
  let tail_p, tail_v = Stats.tail ms in
  let with_violations = List.length (List.filter (fun o -> o.violations <> []) obs) in
  ( [
      metric "core.trial.count" "count" (float_of_int n);
      metric ~samples:n "core.trial.p50_ms" "ms" (Stats.median ms);
      metric ~samples:n "core.trial.p99_ms" "ms" tail_v;
      metric ~samples:n "core.trial.minor_words" "words"
        (List.fold_left (fun acc o -> acc +. o.minor_words) 0. obs /. float_of_int n);
      metric "core.trial.trace_entries" "count"
        (float_of_int (List.fold_left (fun acc o -> acc + o.entries) 0 obs));
      metric "core.trial.violation_share" "ratio" (Exposure.share with_violations n);
    ],
    tail_p )

let span_metrics spans names =
  List.map
    (fun (name, unit_) ->
      let total, n = Spans.get spans name in
      metric ~samples:n name unit_ total)
    names

let core_span_names =
  [
    ("core.substrate.create_s", "s");
    ("core.trial.attach_s", "s");
    ("core.substrate.start_s", "s");
    ("core.substrate.run_s", "s");
    ("core.oracle.judge_s", "s");
  ]

let hunt_span_names =
  [
    ("hunt.plan.reference_s", "s");
    ("hunt.plan.candidates_s", "s");
    ("hunt.plan.coverage_s", "s");
    ("hunt.schedule.order_s", "s");
    ("core.minimize_s", "s");
    ("core.artifact_s", "s");
    ("diagnosis.card_s", "s");
    ("hunt.journal.append_s", "s");
  ]

(* Every per-layer metric is printed on every workload; a layer the
   workload never calls reads 0. *)
let soak_zero =
  [
    metric "soak.slice_first_ms" "ms" 0.;
    metric "soak.slice_last_ms" "ms" 0.;
    metric "soak.heap_mb_per_100vsec" "MiB/100vs" 0.;
    metric "soak.trace_entries" "count" 0.;
  ]

let hunt_zero =
  List.map (fun (name, unit_) -> metric name unit_ 0.) hunt_span_names
  @ [
      metric "hunt.plan.candidates" "count" 0.;
      metric "core.minimize.runs" "count" 0.;
      metric "diagnosis.cards" "count" 0.;
      metric "hunt.journal.bytes" "count" 0.;
      metric "hunt.pool.speedup" "ratio" 0.;
      metric "hunt.pool.driver_s" "s" 0.;
      metric "hunt.pool.major_collections" "count" 0.;
    ]

(* Planning, replayed call by call: per case the reference run, the
   causal candidates, the coverage space and the coverage-gain order,
   then the campaign's round-robin interleave and per-trial seeds. *)
let replay_plan spans ~seed cases =
  let span name f = Spans.time spans name f in
  let candidates = ref 0 in
  let queues =
    List.map
      (fun (case : Sieve.Bugs.case) ->
        let horizon = case.Sieve.Bugs.horizon in
        let commits =
          span "hunt.plan.reference_s" (fun () ->
              Runner.reference_commits (Sieve.Bugs.reference_test_of_case case))
        in
        let events = List.map (fun (c : Runner.commit) -> (c.time, c.key, c.op)) commits in
        let plans, coverage =
          match case.Sieve.Bugs.spec with
          | Substrate.Kube { config; _ } ->
              ( span "hunt.plan.candidates_s" (fun () ->
                    Sieve.Planner.candidates_causal ~config ~commits ~horizon ()),
                span "hunt.plan.coverage_s" (fun () -> Sieve.Coverage.create ~config ~events) )
          | Substrate.Hbase { config; _ } ->
              ( span "hunt.plan.candidates_s" (fun () ->
                    Sieve.Planner.candidates_causal_hbase ~config ~commits ~horizon ()),
                span "hunt.plan.coverage_s" (fun () -> Sieve.Coverage.create_hbase ~config ~events)
              )
        in
        let plans = Array.of_list plans in
        candidates := !candidates + Array.length plans;
        let order = span "hunt.schedule.order_s" (fun () -> Hunt.Schedule.order coverage plans) in
        Queue.of_seq
          (List.to_seq
             (List.map
                (fun k ->
                  let origin = Printf.sprintf "planner#%d" k in
                  ( case.Sieve.Bugs.id,
                    origin,
                    {
                      Runner.name = Printf.sprintf "%s:%s" case.Sieve.Bugs.id origin;
                      spec = case.Sieve.Bugs.spec;
                      horizon;
                      strategy = plans.(k).Sieve.Planner.strategy;
                    } ))
                order)))
      cases
  in
  let slots = ref [] in
  while List.exists (fun q -> not (Queue.is_empty q)) queues do
    List.iter (fun q -> if not (Queue.is_empty q) then slots := Queue.pop q :: !slots) queues
  done;
  let rng = Dsim.Rng.create (Int64.of_int seed) in
  let trials =
    Array.of_list
      (List.map
         (fun (case, origin, test) -> (case, origin, Dsim.Rng.int64 (Dsim.Rng.split rng), test))
         (List.rev !slots))
  in
  (trials, !candidates)

let trial_entry index (case, origin, seed, (test : Runner.test)) records =
  Hunt.Journal.Trial
    {
      trial = index;
      case;
      origin;
      seed;
      strategy = Sieve.Strategy.describe test.strategy;
      violations = records;
    }

(* [Pool.map_ordered] over the trials' [run_test] at [jobs], with the
   campaign's per-trial emit (a journal append) on the driver domain. *)
let pool_run ~jobs ~monitor ~path trials =
  let results = Array.make (Array.length trials) [] in
  let driver = ref 0. in
  let writer = Hunt.Journal.create ~path in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let (), wall =
    span_of (fun () ->
        Hunt.Pool.map_ordered ~jobs ~tasks:trials
          ~f:(fun _ (_, _, _, test) ->
            records_of (Runner.run_test ~check_conformance:monitor test).violations)
          ~emit:(fun i records ->
            let (), dt =
              span_of (fun () -> Hunt.Journal.append writer (trial_entry i trials.(i) records))
            in
            driver := !driver +. dt;
            results.(i) <- records))
  in
  Hunt.Journal.close writer;
  (results, wall, !driver, (Gc.quick_stat ()).Gc.major_collections - majors0)

let hunt_traced o ~workdir =
  let cases = hunt_cases o.workload in
  let m = monitored o.workload in
  (* The untraced reference: the same campaign at one job, so its wall
     time compares with the serial replay. *)
  let reference =
    run_campaign ~workload:o.workload ~seed:o.seed ~jobs:1 ~out:(Filename.concat workdir "campaign")
  in
  let journal_entries, _ = Hunt.Journal.load reference.summary.journal in
  let spans = Spans.create () in
  let span name f = Spans.time spans name f in
  let replay_t0 = now () in
  let trials, candidates = replay_plan spans ~seed:o.seed cases in
  let journaled =
    Array.of_list
      (List.filter_map
         (function
           | Hunt.Journal.Trial { case; origin; strategy; violations; _ } ->
               Some (case, origin, strategy, violations)
           | _ -> None)
         journal_entries)
  in
  gate (Array.length trials = Array.length journaled)
    "replayed plan has %d trials, Campaign.plan %d" (Array.length trials)
    (Array.length journaled);
  let replay_path = Filename.concat workdir "replay.jsonl" in
  let writer = Hunt.Journal.create ~path:replay_path in
  (match journal_entries with
  | (Hunt.Journal.Header _ as h) :: _ ->
      span "hunt.journal.append_s" (fun () -> Hunt.Journal.append writer h)
  | _ -> gate false "campaign journal has no header");
  let known = Hashtbl.create 17 in
  let findings = ref reference.summary.findings in
  let shrink_runs = ref 0 and cards = ref 0 in
  let obs =
    List.init (Array.length trials) (fun index ->
        let ((case, origin, _, test) as trial) = trials.(index) in
        let ob = traced_trial spans ~monitor:m test in
        let records = records_of ob.violations in
        (if index < Array.length journaled then
           let j_case, j_origin, j_strategy, j_violations = journaled.(index) in
           gate
             (j_case = case && j_origin = origin
             && String.equal j_strategy (Sieve.Strategy.describe test.strategy))
             "trial %d: replayed plan gives %s %s, Campaign.plan %s %s" index case origin j_case
             j_origin;
           gate (j_violations = records)
             "trial %d (%s): replayed violations differ from Runner.run_test's" index case);
        span "hunt.journal.append_s" (fun () ->
            Hunt.Journal.append writer (trial_entry index trial records));
        List.iter
          (fun (r : Hunt.Journal.violation_record) ->
            if not (Hashtbl.mem known r.signature) then begin
              Hashtbl.replace known r.signature ();
              let target v = String.equal (Hunt.Signature.of_violation v) r.signature in
              let minimized, runs =
                span "core.minimize_s" (fun () -> Sieve.Minimize.minimize ~test ~target ())
              in
              shrink_runs := !shrink_runs + runs;
              let described = Sieve.Strategy.describe minimized.strategy in
              span "core.artifact_s" (fun () ->
                  ignore (Json.to_string (Runner.artifact (Runner.run_test minimized))));
              if m then
                span "diagnosis.card_s" (fun () ->
                    let outcome = Runner.run_test ~diagnose:true minimized in
                    match
                      Diagnosis.Diagnose.of_outcome ~target ~minimized:described outcome
                    with
                    | Some card ->
                        ignore (Json.to_string (Diagnosis.Card.to_json card));
                        incr cards
                    | None -> ());
              match !findings with
              | (f : Hunt.Campaign.finding) :: rest ->
                  findings := rest;
                  gate
                    (f.signature = r.signature && f.trial = index
                    && String.equal f.minimized described
                    && f.shrink_runs = runs)
                    "finding %s: replay disagrees with the campaign's" r.signature;
                  span "hunt.journal.append_s" (fun () ->
                      Hunt.Journal.append writer
                        (Hunt.Journal.Finding
                           {
                             signature = f.signature;
                             trial = f.trial;
                             case = f.case_id;
                             time = f.time;
                             bug = f.bug;
                             detail = f.detail;
                             strategy = f.strategy;
                             minimized = f.minimized;
                             shrink_runs = f.shrink_runs;
                           }))
              | [] -> gate false "replay found signature %s the campaign did not" r.signature
            end)
          records;
        ob)
  in
  Hunt.Journal.close writer;
  let replay_wall = now () -. replay_t0 in
  let replay_journal = read_file replay_path in
  gate (!findings = []) "the campaign has findings the replay did not reach";
  gate (!cards = reference.summary.cards) "replay made %d cards, the campaign %d" !cards
    reference.summary.cards;
  gate (String.equal replay_journal reference.journal)
    "replayed journal differs from the campaign's journal";
  (* Pool: the same run_test tasks at one and two jobs. *)
  let r1, w1, _, _ =
    pool_run ~jobs:1 ~monitor:m ~path:(Filename.concat workdir "pool-1.jsonl") trials
  in
  let r2, w2, driver2, majors2 =
    pool_run ~jobs:2 ~monitor:m ~path:(Filename.concat workdir "pool-2.jsonl") trials
  in
  gate (r1 = r2) "Pool.map_ordered results differ between 1 and 2 jobs";
  (* Idle floor: each case's periodic loops alone, weighted by its trials. *)
  let idle =
    List.fold_left
      (fun acc (case : Sieve.Bugs.case) ->
        let id = case.Sieve.Bugs.id in
        let per_case =
          Array.fold_left (fun n (c, _, _, _) -> if c = id then n + 1 else n) 0 trials
        in
        let idle = idle_run_s case.Sieve.Bugs.spec ~horizon:case.Sieve.Bugs.horizon in
        acc +. (float_of_int per_case *. idle))
      0. cases
  in
  (* Conformance probe over an evenly spaced sample of the trials. *)
  let stride = max 1 (Array.length trials / 128) in
  let sample =
    List.filteri
      (fun i _ -> i mod stride = 0)
      (Array.to_list (Array.map (fun (_, _, _, t) -> t) trials))
  in
  let trial_ms, tail_p = trial_metrics obs in
  let metrics =
    span_metrics spans hunt_span_names
    @ [ metric "hunt.plan.candidates" "count" (float_of_int candidates) ]
    @ trial_ms
    @ span_metrics spans core_span_names
    @ [ metric ~samples:(List.length cases) "core.substrate.idle_run_s" "s" idle ]
    @ conformance_probe sample
    @ [
        metric "core.minimize.runs" "count" (float_of_int !shrink_runs);
        metric "diagnosis.cards" "count" (float_of_int !cards);
        metric "hunt.journal.bytes" "count" (float_of_int (String.length replay_journal));
        metric "hunt.pool.speedup" "ratio" (w1 /. w2);
        metric "hunt.pool.driver_s" "s" driver2;
        metric "hunt.pool.major_collections" "count" (float_of_int majors2);
      ]
    @ soak_zero
    @ [
        metric "bench.unaccounted_s" "s" (reference.wall -. Spans.total spans);
        metric "bench.tracing_overhead_ratio" "ratio" (replay_wall /. reference.wall);
      ]
  in
  let notes =
    [
      ("trials", Json.Int (Array.length trials));
      ("tail_percentile", Json.Float tail_p);
      ("conformance_probe_trials", Json.Int (List.length sample));
      ("untraced_wall_s", Json.Float reference.wall);
      ("replay_wall_s", Json.Float replay_wall);
    ]
  in
  (Exposure.of_exposures reference.exposures, metrics, notes)

let soak_traced o =
  let test = soak_test ~seed:o.seed in
  let outcome, untraced_wall = span_of (fun () -> Runner.run_test ~check_conformance:true test) in
  let reference_entries = Dsim.Trace.recorded (Substrate.trace outcome.live) in
  let reference_violations = soak_violations outcome in
  let spans = Spans.create () in
  let slices = 20 in
  let ob, replay_wall = span_of (fun () -> traced_trial ~slices spans ~monitor:true test) in
  (* State growth: a second, identical run that compacts and weighs the
     live heap after every slice, outside the timed replay. *)
  let live_mib = ref [] in
  let (_ : trial_obs) =
    traced_trial ~slices
      ~after_slice:(fun () ->
        Gc.full_major ();
        live_mib := mib_of_words (Gc.stat ()).Gc.live_words :: !live_mib)
      (Spans.create ()) ~monitor:true test
  in
  let live_mib = List.rev !live_mib in
  let violations = List.length ob.violations + ob.conf_total in
  gate (reference_violations = 0) "fault-free soak reported %d violations" reference_violations;
  gate (violations = 0) "traced fault-free soak reported %d violations" violations;
  gate (ob.entries = reference_entries)
    "traced soak recorded %d trace entries, Runner.run_test %d" ob.entries reference_entries;
  let slice_ms = List.map (fun dt -> dt *. 1e3) ob.slices in
  let vsec = vsec_of_horizon test.horizon in
  let growth_vsec = vsec *. float_of_int (slices - 1) /. float_of_int slices in
  let trial_ms, _ = trial_metrics [ ob ] in
  let metrics =
    hunt_zero @ trial_ms
    @ span_metrics spans core_span_names
    @ [ metric "core.substrate.idle_run_s" "s" (idle_run_s test.spec ~horizon:test.horizon) ]
    @ conformance_probe [ test ]
    @ [
        metric "soak.slice_first_ms" "ms" (List.hd slice_ms);
        metric "soak.slice_last_ms" "ms" (List.nth slice_ms (slices - 1));
        metric ~samples:slices "soak.heap_mb_per_100vsec" "MiB/100vs"
          ((List.nth live_mib (slices - 1) -. List.hd live_mib) /. growth_vsec *. 100.);
        metric "soak.trace_entries" "count" (float_of_int ob.entries);
        metric "bench.unaccounted_s" "s" (untraced_wall -. Spans.total spans);
        metric "bench.tracing_overhead_ratio" "ratio" (replay_wall /. untraced_wall);
      ]
  in
  ( Exposure.of_soak ~violations:(violations + reference_violations),
    metrics,
    [ ("slices", Json.Int slices); ("soak_vsec", Json.Float vsec) ] )

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

let () =
  let o = parse_args () in
  Option.iter (fun out -> rep_child o ~out; exit 0) o.rep;
  let workdir = Filename.concat ".bench_build" (Printf.sprintf "perfbench-%d" (Unix.getpid ())) in
  mkdir_p workdir;
  let tally, metrics, notes =
    Fun.protect
      ~finally:(fun () -> rm_rf workdir)
      (fun () ->
        match o.workload, o.trace with
        | (Hunt_kube | Hunt_rep_hbase), false -> hunt_untraced o ~workdir
        | (Hunt_kube | Hunt_rep_hbase), true -> hunt_traced o ~workdir
        | Soak_kube, false -> soak_untraced o
        | Soak_kube, true -> soak_traced o)
  in
  List.iter
    (fun m -> gate (Float.is_finite m.value) "metric %s is not finite" m.name)
    metrics;
  let failures = List.rev !failures in
  List.iter (fun f -> prerr_endline ("perfbench: gate failed: " ^ f)) failures;
  let env =
    Json.Obj
      ([
         ("workload", Json.String (workload_name o.workload));
         ("seed", Json.Int o.seed);
         ("seconds", Json.Float o.seconds);
         ("trace", Json.Bool o.trace);
         ("commit", Json.String o.commit);
         ("ocaml", Json.String Sys.ocaml_version);
         ("nproc", Json.Int o.nproc);
         ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
         ( "ocamlrunparam",
           match Sys.getenv_opt "OCAMLRUNPARAM" with Some s -> Json.String s | None -> Json.Null );
         ("samples", Json.Obj (List.map (fun m -> (m.name, Json.Int m.samples)) metrics));
         ( "quartiles",
           Json.Obj
             (List.filter_map
                (fun m ->
                  Option.map
                    (fun (q1, q2, q3) ->
                      (m.name, Json.List [ Json.Float q1; Json.Float q2; Json.Float q3 ]))
                    m.quartiles)
                metrics) );
         ("gate_failures", Json.List (List.map (fun f -> Json.String f) failures));
       ]
      @ notes)
  in
  print_endline (Json.to_string (Json.Obj [ ("perfbench", env) ]));
  let value v = if Float.is_finite v then Json.Float v else Json.Float 0. in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", Json.Int tally.Exposure.attempted);
            ("failed", Json.Int tally.Exposure.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj [ ("value", value m.value); ("unit", Json.String m.unit_) ] ))
                   metrics) );
          ]));
  if failures <> [] then exit 1

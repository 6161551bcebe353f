(* perfbench: one benchmark for the verifier and the simulator.

     main.exe --workload explore|throughput|serve|campaign --seed N
              --seconds S --trace 0|1 [--commit SHA]

   Run from the repository root (perfbench/run.py builds this and does
   so).  Set-up runs fifteen times, each in a fresh process of this
   program ([--setup-only]): runtime start, module initialisation,
   configs, inputs and warm-up.  The set-ups are spread over the run —
   five before the first round, one after each round, the rest after the
   last — and each process times calibration probes ([Calib]) where it
   ran once its set-up is done.  setup_s is the median set-up in units of
   its own process's probe, read as seconds of the machine the benchmark
   was tuned on ([Calib.nominal_probe_s]); raw seconds are printed beside
   it.

   After one more set-up in this process, as warm-up, rounds of the
   workload's fixed work repeat while another fits in [--seconds], at
   least twice; every round checks its verdict.  [--trace 0] reports the
   end-to-end metrics: setup_s, and wall_cal, the median round time in
   units of the round's median calibration probe ([median_cal]), which
   stays put while the host's speed drifts; raw seconds are printed
   beside it.  [--trace 1] alternates plain and traced rounds
   and reports the per-layer metrics, the per-layer self-time table and
   the tracing overhead, and writes the traced round's spans to
   .perfbench/trace-<workload>-seed<N>.json (Chrome trace_event format,
   loads in ui.perfetto.dev).  Seed 1 is the default; seed 7919 is held
   out for checking claims made on the default.

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Any failed check —
   a verdict, or a deterministic counter that does not repeat between
   rounds or between runs on the same source — exits 1. *)

let default_seed = 1
let held_out_seed = 7919

(* ---- per-layer metric catalogue (the same names on every workload) ---- *)

let per_layer_units =
  [
    ("sim.dispatches", "count");
    ("sim.dispatches_per_exec", "count");
    ("sim.ns_per_dispatch", "ns/dispatch");
    ("sim.crashes", "count");
    ("nvm.reads", "count");
    ("nvm.writes", "count");
    ("nvm.cas", "count");
    ("nvm.cas_fail_frac", "frac");
    ("nvm.hit_frac", "frac");
    ("nvm.pwbs", "count");
    ("nvm.pwb_high_frac", "frac");
    ("nvm.pfences", "count");
    ("nvm.psyncs", "count");
    ("nvm.allocs", "count");
    ("nvm.wb_dropped_frac", "frac");
    ("structures.calls", "count");
    ("structures.recover_calls", "count");
    ("structures.busy_s", "s");
    ("structures.us_per_call", "us/call");
    ("structures.check_s", "s");
    ("explore.executions", "count");
    ("explore.decision_points", "count");
    ("explore.pruned", "count");
    ("explore.crash_points", "count");
    ("explore.wb_choices", "count");
    ("explore.execs_to_cex", "count");
    ("explore.us_per_exec", "us/exec");
    ("explore.block_ms_p50", "ms/block");
    ("explore.block_ms_tail", "ms/block");
    ("explore.self_frac", "frac");
    ("crashes.runs", "count");
    ("crashes.crashes", "count");
    ("crashes.recovered_ops", "count");
    ("crashes.us_per_run", "us/run");
    ("crashes.self_frac", "frac");
    ("runner.sim_ops", "count");
    ("runner.us_per_sim_op", "us/op");
    ("runner.self_frac", "frac");
  ]
  @ List.map
      (fun p -> ("runner.vmops." ^ Suite.point_label p, "Mops/s"))
      Suite.points
  @ List.map
      (fun p -> ("runner.vpwb_per_op." ^ Suite.point_label p, "pwb/op"))
      Suite.points
  @ [
      ("store.executions", "count");
      ("store.fired", "count");
      ("store.us_per_exec", "us/exec");
      ("store.requests", "count");
      ("store.lost", "count");
      ("store.retried", "count");
      ("store.recovered", "count");
      ("store.deferred", "count");
      ("store.forwarded", "count");
      ("store.promotions", "count");
      ("store.max_queue", "count");
      ("store.vdegraded_ns", "vns");
      ("store.self_frac", "frac");
      ("store.vmops", "Mops/s");
      ("store.vmax_rate_mops", "Mops/s");
    ]
  @ List.map
      (fun r -> ("store.vp99_ns." ^ Suite.rate_label r, "vns"))
      Suite.ladder_rates
  @ [
      ("observers.overhead_frac", "frac");
      ("observers.metrics_events", "count");
      ("observers.space_allocs", "count");
      ("observers.postmortems", "count");
      (* The major heap's high-water mark is reported here, without a
         bound: it swings by a fifth on a few words' difference in
         allocation history (where the peak falls in the major cycle). *)
      ("gc.heap_peak_mb", "MB");
      ("gc.minor_words_per_exec", "words/exec");
      ("gc.major_collections", "count");
      ("gc.promoted_frac", "frac");
      ("trace.overhead_ratio", "ratio");
    ]

(* ---- arguments ---------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  setup_only : bool;
}

(* determinism records and Chrome traces *)
let out_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: main.exe --workload explore|throughput|serve|campaign --seed N \
     --seconds S --trace 0|1 [--commit SHA]";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: r -> go { a with workload = v } r
    | "--seed" :: v :: r -> go { a with seed = int_of_string v } r
    | "--seconds" :: v :: r -> go { a with seconds = float_of_string v } r
    | "--trace" :: ("0" | "1" as v) :: r -> go { a with trace = v = "1" } r
    | "--commit" :: v :: r -> go { a with commit = v } r
    | "--setup-only" :: r -> go { a with setup_only = true } r
    | x :: _ ->
        prerr_endline ("unknown or incomplete argument: " ^ x);
        usage ()
  in
  try
    go
      {
        workload = "";
        seed = default_seed;
        seconds = 15.;
        trace = false;
        commit = "unknown";
        setup_only = false;
      }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

(* ---- source digest and the cross-run determinism record ---------------- *)

let rec files_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files_under p
             else if
               Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
             then [ p ]
             else [])

(* Digest of the sources a run executes: equal digests mean equal
   programs, whose deterministic counters must agree exactly. *)
let source_digest () =
  files_under "lib" @ files_under "perfbench"
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let det_lines det = List.map (fun (k, v) -> k ^ " " ^ v) (List.sort compare det)

(* Compare two renderings of the same counters; each differing or
   missing key is one failure. *)
let compare_det ~what a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) b;
  List.filter_map
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some v' when v' = v -> None
      | Some v' ->
          Some (Printf.sprintf "determinism (%s): %s = %s vs %s" what k v v')
      | None -> Some (Printf.sprintf "determinism (%s): %s missing" what k))
    a

let split_line l =
  match String.index_opt l ' ' with
  | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
  | None -> (l, "")

(* Check [det] against the record an earlier run of the same source,
   workload and seed left behind, or leave the record. *)
let cross_run_guard ~dir ~name det =
  mkdir_p dir;
  let path = Filename.concat dir name in
  if Sys.file_exists path then
    compare_det ~what:"vs an earlier run" det
      (List.map split_line (read_lines path))
  else begin
    write_lines path (det_lines det);
    []
  end

(* ---- rounds ------------------------------------------------------------- *)

type round = {
  traced : bool;
  wall : float;
  stretches : float array;  (** the round between probes, in probes *)
  cal : float;  (** the round's duration in probes: the stretches' sum *)
  probe_s : float;  (** median probe time over the round *)
  out : Suite.out;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  acct : Wrap.t option;
  prof : Prof.t option;
}

let run_round (w : Suite.workload) ~seed ~traced =
  let acct = if traced then Some (Wrap.create ()) else None in
  let prof = if traced then Some (Prof.create ()) else None in
  (match acct with
  | Some a ->
      a.prof <- prof;
      Wrap.install a
  | None -> ());
  Pstats.reset ();
  Gc.compact ();
  Calib.start ();
  let g0 = Gc.quick_stat () and c0 = Calib.words () in
  let t0 = Prof.now () in
  let out =
    Fun.protect ~finally:Wrap.uninstall (fun () ->
        Prof.span prof ~layer:"bench" ("workload " ^ w.name) (fun () ->
            w.round { Suite.seed; acct; prof }))
  in
  let wall = Prof.now () -. t0 in
  let g1 = Gc.quick_stat () and c1 = Calib.words () in
  let stretches = Calib.finish () in
  let probe_s = Calib.probe_s () in
  let cal = Array.fold_left ( +. ) 0. stretches in
  let t = Pstats.totals () in
  Suite.det_int out "pstats.pwbs" t.pwbs;
  Suite.det_int out "pstats.pfences" t.pfences;
  Suite.det_int out "pstats.psyncs" t.psyncs;
  Suite.det_int out "pstats.high" t.high;
  {
    traced;
    wall;
    stretches;
    cal;
    probe_s;
    out;
    (* the workload's allocation, without the probes' inside the round *)
    minor_words = g1.minor_words -. g0.minor_words -. (fst c1 -. fst c0);
    promoted_words =
      g1.promoted_words -. g0.promoted_words -. (snd c1 -. snd c0);
    major_collections = g1.major_collections - g0.major_collections;
    acct;
    prof;
  }

(* Counters only a traced round has. *)
let traced_det (a : Wrap.t) =
  [
    ("sim.dispatches", string_of_int a.dispatches);
    ("sim.crashes", string_of_int a.crashes);
    ("nvm.reads", string_of_int a.reads);
    ("nvm.writes", string_of_int a.writes);
    ("nvm.hits", string_of_int a.hits);
    ("nvm.cas", string_of_int a.cas);
    ("nvm.cas_fail", string_of_int a.cas_fail);
    ("nvm.pwbs", string_of_int a.pwbs);
    ("nvm.pwb_high", string_of_int a.pwb_high);
    ("nvm.pfences", string_of_int a.pfences);
    ("nvm.psyncs", string_of_int a.psyncs);
    ("nvm.allocs", string_of_int a.allocs);
    ("nvm.wb_fates", string_of_int a.wb_fates);
    ("nvm.wb_dropped", string_of_int a.wb_dropped);
    ("structures.calls", string_of_int a.calls);
    ("structures.recover_calls", string_of_int a.recover_calls);
  ]

let gc_det r = ("gc.minor_words", Printf.sprintf "%.0f" r.minor_words)

(* The median round in probes, stretch by stretch: each stretch of the
   fixed work takes its median over the rounds, and the round is their
   sum, so that a slow spell of the host spoils one stretch of one round
   rather than the round.  Every round of a workload probes at the same
   points, so the stretches line up. *)
let median_cal rs =
  List.init
    (Array.length (List.hd rs).stretches)
    (fun k -> Prof.median (Array.of_list (List.map (fun r -> r.stretches.(k)) rs)))
  |> List.fold_left ( +. ) 0.

(* ---- per-layer metrics of a traced round -------------------------------- *)

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let layer_metrics r ~overhead ~heap_peak_mb =
  let a = Option.get r.acct and spans = Prof.spans (Option.get r.prof) in
  let self = Prof.layer_self spans in
  let self_of l = Option.value (List.assoc_opt l self) ~default:0. in
  let units = Float.max 1. r.out.units in
  (* host time inside the layer calls outside structure segments *)
  let in_layers =
    List.fold_left
      (fun acc (l, s) ->
        if l = "bench" || l = "structures" || l = "observers" then acc
        else acc +. s)
      0. self
  in
  let tbl = Hashtbl.create 128 in
  let set k v = Hashtbl.replace tbl k v in
  List.iter (fun (k, v) -> set k v) r.out.layer;
  set "sim.dispatches" (float_of_int a.dispatches);
  set "sim.dispatches_per_exec" (float_of_int a.dispatches /. units);
  set "sim.ns_per_dispatch"
    (if a.dispatches = 0 then 0. else in_layers *. 1e9 /. float_of_int a.dispatches);
  set "sim.crashes" (float_of_int a.crashes);
  set "nvm.reads" (float_of_int a.reads);
  set "nvm.writes" (float_of_int a.writes);
  set "nvm.cas" (float_of_int a.cas);
  set "nvm.cas_fail_frac" (frac a.cas_fail a.cas);
  set "nvm.hit_frac" (frac a.hits (a.reads + a.writes));
  set "nvm.pwbs" (float_of_int a.pwbs);
  set "nvm.pwb_high_frac" (frac a.pwb_high a.pwbs);
  set "nvm.pfences" (float_of_int a.pfences);
  set "nvm.psyncs" (float_of_int a.psyncs);
  set "nvm.allocs" (float_of_int a.allocs);
  set "nvm.wb_dropped_frac" (frac a.wb_dropped a.wb_fates);
  set "structures.calls" (float_of_int a.calls);
  set "structures.recover_calls" (float_of_int a.recover_calls);
  set "structures.busy_s" a.busy_s;
  set "structures.us_per_call"
    (if a.calls = 0 then 0. else a.busy_s *. 1e6 /. float_of_int a.calls);
  set "structures.check_s" a.check_s;
  List.iter
    (fun l -> set (l ^ ".self_frac") (self_of l /. r.wall))
    [ "explore"; "crashes"; "runner"; "store" ];
  set "gc.heap_peak_mb" heap_peak_mb;
  set "gc.minor_words_per_exec" (r.minor_words /. units);
  set "gc.major_collections" (float_of_int r.major_collections);
  set "gc.promoted_frac"
    (if r.minor_words = 0. then 0. else r.promoted_words /. r.minor_words);
  set "trace.overhead_ratio" overhead;
  ( List.map
      (fun (k, u) -> (k, Option.value (Hashtbl.find_opt tbl k) ~default:0., u))
      per_layer_units,
    self )

(* ---- output ------------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (k, v, u) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Prof.json_string k)
          (json_num v) (Prof.json_string u))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

(* ---- set-up ------------------------------------------------------------ *)

let setup_reps = 15
let setup_first = 5

(* One set-up in a fresh process, which reports when its set-up ended
   and how long a calibration probe then takes where it runs: the
   set-up's seconds and that probe time, or why the process failed. *)
let time_setup args =
  let argv =
    [|
      Sys.executable_name;
      "--workload";
      args.workload;
      "--seed";
      string_of_int args.seed;
      "--setup-only";
    |]
  in
  let t0 = Prof.now () in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let report = List.rev (In_channel.input_lines ic) in
  match (Unix.close_process_in ic, report) with
  | Unix.WEXITED 0, last :: _ -> (
      match Scanf.sscanf_opt last "%f %f" (fun t1 p -> (t1 -. t0, p)) with
      | Some r -> Ok r
      | None -> Error ("set-up process: unreadable report: " ^ last))
  | WEXITED 0, [] -> Error "set-up process: no report"
  | WEXITED c, _ -> Error (Printf.sprintf "set-up process exited with code %d" c)
  | (WSIGNALED n | WSTOPPED n), _ ->
      Error (Printf.sprintf "set-up process stopped by signal %d" n)

(* The [--setup-only] process: set up, then report the time the set-up
   ended and the median of three probes. *)
let setup_only (w : Suite.workload) ~seed =
  w.setup ~seed;
  let t1 = Prof.now () in
  let probe = Prof.median (Array.init 3 (fun _ -> Calib.time_probe ())) in
  Printf.printf "%.6f %.9f\n" t1 probe;
  exit 0

let print_timing name unit xs =
  let n = Array.length xs in
  Printf.printf "  %-16s median %.4f %s over %d sample%s" name (Prof.median xs)
    unit n
    (if n = 1 then "" else "s");
  (match Prof.tail xs with
  | Some (q, v) -> Printf.printf ", p%g %.4f %s" (q *. 100.) v unit
  | None ->
      Printf.printf " (too few for a tail percentile: %s)"
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%.4f") xs))));
  print_newline ()

let () =
  let args = parse Sys.argv in
  let w =
    match List.find_opt (fun (w : Suite.workload) -> w.name = args.workload) Suite.all with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ args.workload);
        usage ()
  in
  if not (Sys.file_exists "lib" && Sys.is_directory "lib") then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  if args.setup_only then setup_only w ~seed:args.seed;
  let digest = source_digest () in
  Printf.printf
    "# perfbench workload=%s seed=%d (default %d, held-out %d) seconds=%g \
     trace=%d\n"
    w.name args.seed default_seed held_out_seed args.seconds
    (Bool.to_int args.trace);
  Printf.printf "# stamp nproc=%d ocaml=%s commit=%s source=%s\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version args.commit digest;
  (* set-up samples: (seconds, its process's probe), newest first *)
  let setups = ref [] and setup_failures = ref [] and setups_run = ref 0 in
  let sample_setup () =
    incr setups_run;
    match time_setup args with
    | Ok r -> setups := r :: !setups
    | Error e -> setup_failures := e :: !setup_failures
  in
  for _ = 1 to setup_first do
    sample_setup ()
  done;
  (* the rounds' warm-up *)
  w.setup ~seed:args.seed;
  (* Rounds while another one fits in the time, and at least two plain
     ones, so that even a workload whose round outlasts the time has a
     median of two and a determinism check between rounds.  Under trace 1
     plain and traced rounds alternate. *)
  let t_start = Prof.now () in
  let rounds = ref [] and heap_words = ref 0 in
  let rec loop i =
    let traced = args.trace && i mod 2 = 1 in
    let r = run_round w ~seed:args.seed ~traced in
    rounds := r :: !rounds;
    (* the process's peak heap through set-up and the first round: a
       function of the seed, unlike a peak over a timed loop *)
    if i = 0 then heap_words := (Gc.quick_stat ()).top_heap_words;
    Printf.printf "  round %d%s: %.4f s, %d checks, %d failed\n%!" (i + 1)
      (if traced then " (traced)" else "")
      r.wall r.out.attempted
      (List.length r.out.failures);
    if !setups_run < setup_reps then sample_setup ();
    let two_plain = i >= if args.trace then 2 else 1 in
    if (not two_plain) || Prof.now () -. t_start +. r.wall <= args.seconds
    then loop (i + 1)
  in
  loop 0;
  while !setups_run < setup_reps do
    sample_setup ()
  done;
  if !setups = [] then begin
    List.iter (fun f -> Printf.printf "FAILED: %s\n" f) !setup_failures;
    exit 1
  end;
  let setup_secs = Array.of_list (List.rev_map fst !setups) in
  let setup_cal = Array.of_list (List.rev_map (fun (s, p) -> s /. p) !setups) in
  let rounds = List.rev !rounds in
  let plain = List.filter (fun r -> not r.traced) rounds in
  let traced = List.filter (fun r -> r.traced) rounds in
  (* Determinism guard: one check per comparison.  Minor words are
     compared between runs only: the first round of every run follows the
     same process history, while later rounds inherit state earlier
     rounds grew. *)
  let first = List.hd plain in
  let tdet r = traced_det (Option.get r.acct) in
  (* Records are kept per source and per argument list: the runtime's
     minor-word count shifts with the heap left by what ran before the
     first round, so only runs invoked identically must agree on it. *)
  let record suffix =
    let argv = String.concat "\x00" (Array.to_list Sys.argv) in
    Printf.sprintf "%s-seed%d-%s-%s%s.txt" w.name args.seed digest
      (String.sub (Digest.to_hex (Digest.string argv)) 0 8)
      suffix
  in
  let det_dir = Filename.concat out_dir "det" in
  let guard =
    List.map
      (fun r -> compare_det ~what:"between rounds" r.out.det first.out.det)
      (List.tl plain)
    @ List.map
        (fun r -> compare_det ~what:"traced vs untraced" r.out.det first.out.det)
        traced
    @ (match traced with
      | t0 :: rest ->
          List.map
            (fun r -> compare_det ~what:"between traced rounds" (tdet r) (tdet t0))
            rest
          @ [ cross_run_guard ~dir:det_dir ~name:(record "-traced") (tdet t0) ]
      | [] -> [])
    @ [
        cross_run_guard ~dir:det_dir ~name:(record "")
          (gc_det first :: first.out.det);
      ]
  in
  let attempted =
    List.fold_left (fun n r -> n + r.out.attempted) 0 rounds
    + List.length guard + setup_reps
  in
  let failures =
    List.rev !setup_failures
    @ List.concat_map (fun r -> List.rev r.out.failures) rounds
    @ List.filter_map
        (function [] -> None | diffs -> Some (String.concat "; " diffs))
        guard
  in
  let failed = List.length failures in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  let walls = Array.of_list (List.map (fun r -> r.wall) plain) in
  let rel rs = Array.of_list (List.map (fun r -> r.cal) rs) in
  let setup_s = Prof.median setup_cal *. Calib.nominal_probe_s in
  let wall_cal = median_cal plain in
  let heap_peak_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1e6 in
  let failed_frac = float_of_int failed /. float_of_int attempted in
  Printf.printf "\n== end-to-end (%s; host timings untraced) ==\n" w.name;
  print_timing "setup_s" "s" (Array.map (( *. ) Calib.nominal_probe_s) setup_cal);
  print_timing "setup (raw)" "s" setup_secs;
  print_timing "wall_s" "s" walls;
  print_timing "round (cal)" "cal" (rel plain);
  Printf.printf "  %-16s %.4f cal (stretch by stretch)\n" "wall_cal" wall_cal;
  Printf.printf "  %-16s %.2f us (median probe; 1 cal = one probe)\n"
    "calibration"
    (1e6 *. Prof.median (Array.of_list (List.map (fun r -> r.probe_s) plain)));
  Printf.printf "  %-16s %.3f MB (after set-up and round 1)\n" "heap_peak_mb"
    heap_peak_mb;
  Printf.printf "  %-16s %.6f ratio (%d of %d checks failed)\n" "failed_frac"
    failed_frac failed attempted;
  List.iter
    (fun (k, v, u) -> Printf.printf "  %-16s %.6g %s\n" k v u)
    (List.rev first.out.e2e);
  let metrics =
    if not args.trace then
      [
        ("setup_s", setup_s, "s");
        ("wall_cal", wall_cal, "cal");
      ]
    else begin
      let t = List.nth traced (List.length traced - 1) in
      let traced_cal = median_cal traced in
      let overhead = traced_cal /. wall_cal in
      let ls, self = layer_metrics t ~overhead ~heap_peak_mb in
      Printf.printf "\n== per-layer self time (traced round, %.4f s) ==\n" t.wall;
      List.iter
        (fun (l, s) ->
          Printf.printf "  %-12s %9.4f s  %5.1f%%\n" l s (100. *. s /. t.wall))
        self;
      Printf.printf
        "  tracing overhead: traced %.1f cal / untraced %.1f cal = %.4f\n"
        traced_cal wall_cal overhead;
      Printf.printf "\n== per-layer metrics (an exec is one %s) ==\n"
        t.out.unit_name;
      List.iter (fun (k, v, u) -> Printf.printf "  %-44s %.6g %s\n" k v u) ls;
      mkdir_p out_dir;
      let path =
        Filename.concat out_dir
          (Printf.sprintf "trace-%s-seed%d.json" w.name args.seed)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Prof.chrome_trace (Prof.spans (Option.get t.prof))));
      Printf.printf "  spans written to %s\n" path;
      ls
    end
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)

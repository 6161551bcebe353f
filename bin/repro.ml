(* Command-line driver for the reproduction: regenerate figures, run
   crash-injection campaigns, sweep throughput, classify pwb sites. *)

open Cmdliner

(* -- shared CLI vocabulary ------------------------------------------------ *)

(* Each flag is defined once here; commands differ only in the default
   (and, where the flag means something different, the doc). *)

let algo_conv =
  let parse s =
    match Set_intf.by_name s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  let print ppf f = Format.pp_print_string ppf f.Set_intf.fname in
  Arg.conv (parse, print)

let mix_conv =
  let parse = function
    | "read" | "read-intensive" -> Ok Workload.read_intensive
    | "update" | "update-intensive" -> Ok Workload.update_intensive
    | s -> (
        match int_of_string_opt s with
        | Some p when p >= 0 && p <= 100 -> Ok (Workload.mix_of_find_pct p)
        | _ -> Error (`Msg "expected read | update | <find-%>"))
  in
  let print ppf m = Format.pp_print_string ppf m.Workload.name in
  Arg.conv (parse, print)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Coarse sweep, single seed.")

let algo =
  Arg.(
    value
    & opt algo_conv Set_intf.tracking
    & info [ "algo"; "a" ] ~docv:"ALGO" ~doc:"Implementation to drive.")

let mix =
  Arg.(
    value
    & opt mix_conv Workload.update_intensive
    & info [ "mix"; "m" ] ~docv:"MIX" ~doc:"Operation mix: read | update | <find-%>.")

let cfg_of_quick quick =
  if quick then Figures.quick_config
  else { Figures.default_config with duration_ns = 200_000.; seeds = 2 }

(* [-j 0] resolves to one domain per core here, once for every command *)
let jobs_arg =
  Term.(
    const (fun j -> if j <= 0 then Parallel.default_jobs () else j)
    $ Arg.(
        value & opt int 1
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "Fan the campaign across $(docv) domains (0 = one per core). \
               Reported results and repro files are deterministic and \
               byte-identical to -j 1; worker domains are not traced."))

let int_flag names ~doc default =
  Arg.(value & opt int default & info names ~doc)

let threads ~default =
  int_flag [ "threads"; "t" ] ~doc:"Logical threads." default

let ops ?(doc = "Operations per thread.") ~default () =
  int_flag [ "ops" ] ~doc default

let crashes ?(doc = "Max crashes injected.") ~default () =
  int_flag [ "crashes" ] ~doc default

let keys ~default = int_flag [ "keys" ] ~doc:"Key range size." default

let seed ?(doc = "Workload seed.") ~default () = int_flag [ "seed" ] ~doc default

let prefill ~default =
  int_flag [ "prefill" ] ~doc:"Keys inserted before the run." default

let file_flag name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let json ~doc = file_flag "json" ~doc
let csv ~doc = file_flag "csv" ~doc

let trace ~what =
  file_flag "trace"
    ~doc:(Printf.sprintf "Write a JSONL event trace of %s to $(docv)." what)

let repro_out ?(what = "repro") () =
  file_flag "repro"
    ~doc:(Printf.sprintf "On failure, save a replayable %s to $(docv)." what)

let check ~doc = Arg.(value & flag & info [ "check" ] ~doc)

let with_trace trace f =
  match trace with Some p -> Trace.with_file p f | None -> f ()

(* [--json -] / [--csv -] own stdout: the caller suppresses its human
   report, and "wrote" notices move to stderr so the stream stays
   parseable. *)
let owns_stdout dsts = List.mem (Some "-") dsts

let notice ~owned = if owned then Format.eprintf else Format.printf

let write_output ~owned dst text =
  match dst with
  | None -> ()
  | Some "-" -> print_string text
  | Some p ->
      Out_channel.with_open_text p (fun oc -> Out_channel.output_string oc text);
      notice ~owned "wrote %s@." p

(* The volatile Harris list has no recovery: a command that would crash
   it refuses up front. *)
let require_crash_capable ?(crashing = true) algo =
  if crashing && algo.Set_intf.fname = "harris" then begin
    Format.printf "harris is volatile: it cannot recover from crashes@.";
    exit 1
  end

let campaign_cfg ?prefill algo mix ~threads ~ops ~crashes ~keys =
  {
    Crashes.factory = algo;
    threads;
    ops_per_thread = ops;
    workload =
      {
        (Workload.default mix) with
        key_range = keys;
        prefill_n = Option.value prefill ~default:(keys / 2);
      };
    max_crashes = crashes;
  }

(* -- failure reporting ---------------------------------------------------- *)

(* Postmortems are printed through the same formatter as the violation
   message so the two can never interleave out of order. *)
let pp_postmortem pm = Format.printf "@.%s" (Forensics.render_text pm)

let pp_no_postmortem reason = Format.printf "@.(no postmortem: %s)@." reason

let pp_explained = function
  | Ok pm -> pp_postmortem pm
  | Error e -> pp_no_postmortem e

let pp_violation msg = Format.printf "DETECTABILITY VIOLATION — %s@." msg

let save_repro ?(notice = "repro saved to") save dst r =
  Option.iter
    (fun p ->
      save p r;
      Format.printf "%s %s@." notice p)
    dst

(* [Crashes.run_campaign] failures carry a "seed N: " prefix; pull the
   failing seed back out so the campaign can be re-run under the
   forensic recorder. *)
let seed_of_campaign_failure msg =
  let n = String.length msg in
  if n > 5 && String.sub msg 0 5 = "seed " then begin
    let i = ref 5 and v = ref 0 and seen = ref false in
    while !i < n && msg.[!i] >= '0' && msg.[!i] <= '9' do
      v := (10 * !v) + (Char.code msg.[!i] - Char.code '0');
      seen := true;
      incr i
    done;
    if !seen && !i < n && msg.[!i] = ':' then Some !v else None
  end
  else None

(* Attach a postmortem to a campaign failure by re-running the failing
   seed under the forensic recorder (seeded runs are deterministic, so
   the free re-run reproduces the recorded failure). *)
let campaign_postmortem cfg ~seed =
  match Crashes.forensic_run cfg ~seed with
  | Error _, _, Some pm -> pp_postmortem pm
  | Ok _, _, _ -> pp_no_postmortem "the forensic re-run passed"
  | Error _, _, None -> pp_no_postmortem "forensic re-run produced no report"

let campaign_failure_postmortem cfg msg =
  match seed_of_campaign_failure msg with
  | Some seed -> campaign_postmortem cfg ~seed
  | None -> pp_no_postmortem "failing seed not found in the message"

(* -- replay files --------------------------------------------------------- *)

(* Campaign and serve repros share the replay and explain entry points;
   the magic line says which format owns the file. *)
type repro = Campaign of Repro.t | Serve of Store_repro.t

let load_repro file =
  let first_line =
    try In_channel.with_open_text file In_channel.input_line
    with Sys_error _ -> None
  in
  let loaded =
    if first_line = Some Store_repro.magic then
      Result.map (fun r -> Serve r) (Store_repro.load file)
    else Result.map (fun r -> Campaign r) (Repro.load file)
  in
  match loaded with
  | Ok r -> r
  | Error msg ->
      Format.printf "cannot load %s: %s@." file msg;
      exit 2

(* -- figures ------------------------------------------------------------ *)

let figure_ids =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FIG"
        ~doc:"Figure ids (3a..4f, 5r, 5u, 6r, 6u, 7r, 7u); all if none.")

let figures_cmd =
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write one CSV per figure into $(docv).")
  in
  let run quick ids csv =
    let cfg = cfg_of_quick quick in
    (if ids = [] then Report.print_all cfg
     else
       List.iter
         (fun f ->
           if List.mem f.Figures.id ids then
             Format.printf "%a" Report.pp_figure f)
         (Figures.all cfg));
    match csv with
    | Some dir -> Report.write_csv_dir ~dir cfg
    | None -> ()
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures (§5).")
    Term.(const run $ quick $ figure_ids $ csv)

(* -- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let threads =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16; 24; 32; 48; 60 ]
      & info [ "threads"; "t" ] ~docv:"N,N,..." ~doc:"Thread counts.")
  in
  let duration =
    Arg.(
      value & opt float 200_000.
      & info [ "duration-ns" ] ~doc:"Virtual nanoseconds per point.")
  in
  let run algo mix threads duration =
    List.iter
      (fun n ->
        let p =
          Runner.measure ~duration_ns:duration algo ~threads:n
            (Workload.default mix)
        in
        Format.printf "%a@." Runner.pp_point p)
      threads
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Throughput sweep for one implementation.")
    Term.(const run $ algo $ mix $ threads $ duration)

(* -- crash campaigns ------------------------------------------------------ *)

let crash_cmd =
  let seeds =
    Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"Number of seeded runs.")
  in
  let run algo mix seeds threads ops crashes keys trace repro_file =
    require_crash_capable algo;
    let cfg = campaign_cfg algo mix ~threads ~ops ~crashes ~keys in
    let result =
      with_trace trace (fun () ->
          Crashes.run_campaign ?repro_file cfg ~seeds:(List.init seeds Fun.id))
    in
    match result with
    | Ok (n, o) ->
        Format.printf
          "%s: %d runs passed — %d operations, %d recovered through crashes, \
           %d crashes injected@."
          algo.Set_intf.fname n o.Crashes.completed_ops o.Crashes.recovered_ops
          o.Crashes.crashes
    | Error msg ->
        pp_violation msg;
        (* the campaign itself saved the file *)
        Option.iter (Format.printf "repro saved to %s@.") repro_file;
        campaign_failure_postmortem cfg msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Crash-injection campaign with detectability checking.")
    Term.(
      const run $ algo $ mix $ seeds $ threads ~default:4 $ ops ~default:15 ()
      $ crashes ~doc:"Max crashes per run." ~default:3 ()
      $ keys ~default:64
      $ trace ~what:"the whole campaign"
      $ repro_out ())

(* -- explore -------------------------------------------------------------- *)

let explore_cmd =
  let preemptions =
    Arg.(
      value & opt int 2
      & info [ "preemptions" ]
          ~doc:"CHESS preemption bound: max preemptive context switches \
                explored per execution.")
  in
  let wb =
    Arg.(
      value & opt int 2
      & info [ "wb" ]
          ~doc:"Write-back sweep width: prefix depths tried per crash, \
                besides drop-all and complete-all.")
  in
  let max_execs =
    Arg.(
      value & opt int 100_000
      & info [ "max-execs" ] ~doc:"Execution budget; 0 = run until exhausted.")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going" ]
          ~doc:"Keep exploring after the first failure (count them all).")
  in
  let no_reduce =
    Arg.(
      value & flag
      & info [ "no-reduce" ]
          ~doc:
            "Enumerate every schedule of the preemption-bounded tree instead \
             of one per trace class.  By default the explorer runs a \
             partial-order reduction: dispatches that touch no common cache \
             line (or only read it) commute, and alternatives are added only \
             where a race between dependent dispatches needs reversing.  \
             Crash points and write-back subsets are enumerated in full \
             either way; this flag is the oracle the reduction is tested \
             against.")
  in
  let run algo mix threads ops keys prefill preemptions crashes wb max_execs
      seed keep_going no_reduce trace repro_file jobs =
    require_crash_capable algo;
    if jobs > 1 && trace <> None then
      Format.eprintf
        "note: -j %d traces only the calling domain (discovery execution); \
         worker-domain executions are not traced@."
        jobs;
    let cfg =
      {
        Explore.campaign =
          campaign_cfg ~prefill algo mix ~threads ~ops
            ~crashes:(max crashes 1) ~keys;
        seed;
        preemptions;
        crashes;
        wb_width = wb;
        max_execs;
      }
    in
    let o =
      with_trace trace (fun () ->
          Explore.run ~stop_on_failure:(not keep_going)
            ~progress:Report.explore_progress ~jobs ~reduce:(not no_reduce) cfg)
    in
    Format.printf "%a" Report.pp_explore o.Explore.stats;
    match o.Explore.failure with
    | None -> ()
    | Some r ->
        pp_violation r.Repro.error;
        save_repro Repro.save repro_file r;
        pp_explained (Crashes.explain r);
        exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded exhaustive exploration: enumerate every schedule (up to a \
          preemption bound), crash point and write-back subset of a small \
          campaign, checking detectability on each execution.")
    Term.(
      const run $ algo $ mix $ threads ~default:2 $ ops ~default:1 ()
      $ keys ~default:8 $ prefill ~default:4 $ preemptions
      $ crashes ~doc:"Max crashes injected per execution." ~default:1 ()
      $ wb $ max_execs $ seed ~default:0 () $ keep_going $ no_reduce
      $ trace ~what:"the exploration" $ repro_out () $ jobs_arg)

(* -- replay --------------------------------------------------------------- *)

let replay_run file do_shrink any_error out trace =
  let recorded, replay =
    match load_repro file with
    | Campaign r ->
        Format.printf "%a@." Repro.pp r;
        let r =
          if not do_shrink then r
          else begin
            let r' = Crashes.shrink ~match_error:(not any_error) r in
            Format.printf "shrunk to: threads=%d ops/thread=%d rounds=%d@."
              r'.Repro.threads r'.Repro.ops_per_thread
              (List.length r'.Repro.rounds);
            r'
          end
        in
        save_repro ~notice:"wrote" Repro.save out r;
        (r.Repro.error, fun () -> Crashes.replay r)
    | Serve r ->
        Format.printf "%a" Store_repro.pp r;
        if do_shrink then begin
          Format.printf "cannot shrink %s: only campaign repros shrink@." file;
          exit 2
        end;
        save_repro ~notice:"wrote" Store_repro.save out r;
        (r.Store_repro.error, fun () -> Store_repro.replay r)
  in
  match with_trace trace replay with
  | Error msg when String.equal msg recorded ->
      Format.printf "reproduced: %s@." msg
  | Error msg ->
      Format.printf "reproduced a DIFFERENT failure: %s@." msg;
      Format.printf "(recorded: %s)@." recorded;
      exit 1
  | Ok () ->
      Format.printf "did NOT reproduce — the replay passed@.";
      exit 1

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Repro file written by the crash command.")
  in
  let shrinkf =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily minimize the repro (fewer threads, fewer ops, \
                earlier crash) before replaying.")
  in
  let any_error =
    Arg.(
      value & flag
      & info [ "any-error" ]
          ~doc:"While shrinking, accept probe runs that fail with a \
                different error than the recorded one (default: only \
                matching failures are adopted).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the (possibly shrunk) repro back out to $(docv).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically replay (and optionally shrink) a saved \
          failing-campaign repro.")
    Term.(
      const replay_run $ file $ shrinkf $ any_error $ out
      $ trace ~what:"the replay")

(* -- explain (crash forensics) -------------------------------------------- *)

let explain_run file json =
  let result =
    match load_repro file with
    | Campaign r -> Crashes.explain r
    | Serve r -> Store_repro.explain r
  in
  match result with
  | Error msg ->
      Format.printf "cannot explain %s: %s@." file msg;
      exit 1
  | Ok pm ->
      if json then print_endline (Forensics.render_json pm)
      else print_string (Forensics.render_text pm)

let explain_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Repro file (campaign or serve) written on a failure.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Render the postmortem as one JSON object instead of text.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Crash-forensics postmortem for a saved failing repro: replay it \
          under the forensic recorder and report each crash's write-back \
          fates (persisted vs dropped, with the resolution that decided \
          them), the durable-vs-volatile state diff naming every \
          never-persisted cache line and the site that wrote it, the \
          culprit analysis (including registered-but-disabled persist \
          sites), and the lineage of the operations touching the failure.  \
          Output is deterministic: byte-identical across replays.")
    Term.(const explain_run $ file $ json)

(* -- soak ----------------------------------------------------------------- *)

let soak_cmd =
  let rounds =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~doc:"Campaign rounds; 0 = run until interrupted.")
  in
  let run algo mix rounds threads =
    require_crash_capable algo;
    let cfg = campaign_cfg algo mix ~threads ~ops:20 ~crashes:4 ~keys:64 in
    let round = ref 0 in
    let continue () = rounds = 0 || !round < rounds in
    while continue () do
      incr round;
      let seeds = List.init 50 (fun i -> (!round * 1000) + i) in
      match Crashes.run_campaign cfg ~seeds with
      | Ok (n, o) ->
          Format.printf
            "round %d: %d runs ok — %d ops, %d recovered, %d crashes@."
            !round n o.Crashes.completed_ops o.Crashes.recovered_ops
            o.Crashes.crashes
      | Error msg ->
          Format.printf "round %d: DETECTABILITY VIOLATION — %s@." !round msg;
          campaign_failure_postmortem cfg msg;
          exit 1
    done
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run crash-injection campaigns indefinitely (or for --rounds),           50 fresh seeds per round.")
    Term.(const run $ algo $ mix $ rounds $ threads ~default:6)

(* -- stats ---------------------------------------------------------------- *)

let stats_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~doc:"Contended cache lines to report.")
  in
  let run algo mix threads ops crashes keys seed top json =
    require_crash_capable ~crashing:(crashes > 0) algo;
    let cfg = campaign_cfg algo mix ~threads ~ops ~crashes ~keys in
    let owned = owns_stdout [ json ] in
    Metrics.enable ();
    let result =
      Fun.protect
        ~finally:(fun () -> Metrics.disable ())
        (fun () ->
          let r = Crashes.run_once cfg ~seed in
          if not owned then begin
            Format.printf "%s: %d threads × %d ops, mix %s, seed %d@.@."
              algo.Set_intf.fname threads ops mix.Workload.name seed;
            Report.pp_metrics ~top Format.std_formatter ();
            (* a blank line before the "wrote" notice *)
            if json <> None then Format.printf "@."
          end;
          write_output ~owned json (Report.metrics_json ~top () ^ "\n");
          r)
    in
    match result with
    | Ok _ -> ()
    | Error msg ->
        Format.printf "@.";
        pp_violation msg;
        campaign_postmortem cfg ~seed;
        exit 1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one seeded crash campaign with metrics enabled and print the \
          report: latency histograms per op kind, the most contended cache \
          lines, recovery durations.  Nothing is written to disk.")
    Term.(
      const run $ algo $ mix $ threads ~default:4 $ ops ~default:50 ()
      $ crashes ~default:2 () $ keys ~default:64 $ seed ~default:1 () $ top
      $ json
          ~doc:"Also write the report as JSON to $(docv) (\"-\" = stdout).")

(* -- space ---------------------------------------------------------------- *)

let space_cmd =
  let variants =
    Arg.(
      value & pos_all algo_conv []
      & info [] ~docv:"ALGO"
          ~doc:
            "Implementations to account (default: tracking, tracking-hash, \
             capsules-opt, memento-list, memento-comb).")
  in
  let find_pct =
    Arg.(
      value & opt int 20
      & info [ "find-pct" ] ~docv:"P" ~doc:"Percentage of find operations.")
  in
  let run variants threads ops find_pct crashes key_range prefill seed jobs
      json csv strict =
    let variants =
      if variants <> [] then variants
      else
        List.map
          (fun n ->
            match Set_intf.by_name n with
            | Ok f -> f
            | Error msg -> failwith msg)
          [ "tracking"; "tracking-hash"; "capsules-opt"; "memento-list";
            "memento-comb" ]
    in
    let cfg =
      Space.
        {
          threads;
          ops_per_thread = ops;
          find_pct;
          key_range;
          prefill;
          max_crashes = crashes;
          seed;
        }
    in
    let rs = Space.campaign ~jobs cfg variants in
    let owned = owns_stdout [ json; csv ] in
    if not owned then print_string (Space.render_text cfg rs);
    write_output ~owned json (Space.render_json cfg rs);
    write_output ~owned csv (Space.render_csv rs);
    if strict then
      match Space.check rs with
      | Ok () -> ()
      | Error msg ->
          Format.printf "@.SPACE CHECK FAILED — %s@." msg;
          exit 1
  in
  Cmd.v
    (Cmd.info "space"
       ~doc:
         "Run one seeded crash campaign per implementation with the \
          allocation registry attached and account every persistent cache \
          line: live payload vs detectability metadata vs garbage, \
          space-per-op, metadata-overhead ratio, garbage growth over \
          virtual time, and the detectable-object space lower bound \
          (arXiv 2002.11378).")
    Term.(
      const run $ variants $ threads ~default:4 $ ops ~default:120 ()
      $ find_pct $ crashes ~default:3 () $ keys ~default:64
      $ prefill ~default:16 $ seed ~default:1 () $ jobs_arg
      $ json
          ~doc:"Also write the report as JSON to $(docv) (\"-\" = stdout)."
      $ csv
          ~doc:
            "Also write the summary table as CSV to $(docv) (\"-\" = stdout)."
      $ check
          ~doc:
            "Exit nonzero if any run failed or any detectable variant fell \
             below the metadata space lower bound.")

(* -- causal --------------------------------------------------------------- *)

let causal_cmd =
  let factors =
    Arg.(
      value
      & opt (list float) [ 0.; 0.5; 2. ]
      & info [ "factors" ] ~docv:"F,F,..."
          ~doc:"Cost-scaling sweep besides the implicit 1x baseline.")
  in
  let no_sites =
    Arg.(value & flag & info [ "no-sites" ] ~doc:"Skip per-site rows.")
  in
  let no_categories =
    Arg.(
      value & flag
      & info [ "no-categories" ] ~doc:"Skip per-impact-category rows.")
  in
  let mechanisms =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "mechanisms" ] ~docv:"KNOB,..."
          ~doc:
            "Cost-table knobs to sweep (default: the persistence and \
             contention set; \"none\" = skip mechanism rows).")
  in
  let run algo mix quick threads ops seed factors no_sites no_categories
      mechanisms json csv check jobs =
    let base =
      if quick then Causal.quick_config algo mix
      else Causal.default_config algo mix
    in
    let cfg =
      {
        base with
        Causal.threads = (if quick then base.Causal.threads else threads);
        ops_per_thread =
          (if quick then base.Causal.ops_per_thread else ops);
        seed;
        factors;
        sites = not no_sites;
        categories = not no_categories;
        mechanisms =
          (match mechanisms with
          | Some [ "none" ] -> []
          | Some ms -> ms
          | None -> base.Causal.mechanisms);
      }
    in
    let p = Causal.profile ~jobs cfg in
    let owned = owns_stdout [ json; csv ] in
    if not owned then Report.pp_causal Format.std_formatter p;
    write_output ~owned csv (Causal.to_csv p);
    write_output ~owned json (Causal.to_json p ^ "\n");
    if check then begin
      (* The paper's ordering is per-instruction impact: one high-impact
         pwb costs far more than one low-impact pwb, even though the low
         ones dominate in count (and hence in aggregate sensitivity). *)
      let sens_of t =
        List.find_map
          (fun (r : Causal.row) ->
            if r.Causal.target = t && r.Causal.executions > 0 then
              Some (r.Causal.sensitivity /. float_of_int r.Causal.executions)
            else None)
          p.Causal.rows
      in
      let high = sens_of (Causal.Category Pstats.High) in
      let low = sens_of (Causal.Category Pstats.Low) in
      let psync_ok =
        (* psync sites must be (nearly) off the critical path: their
           sensitivity should be a sliver of the baseline cost. *)
        List.for_all
          (fun (r : Causal.row) ->
            r.Causal.group <> "psync"
            || Float.abs r.Causal.sensitivity
               < 0.05 *. p.Causal.baseline_ns_per_op)
          p.Causal.rows
      in
      let ordering_ok =
        match (high, low) with
        | Some h, Some l -> h > l
        | _ -> false
      in
      if ordering_ok && psync_ok then
        notice ~owned
          "@.check OK: high-impact above low-impact per execution, psyncs \
           near zero@."
      else begin
        notice ~owned "@.CHECK FAILED:%s%s@."
          (if ordering_ok then ""
           else " high-impact per-execution sensitivity not above low-impact;")
          (if psync_ok then "" else " a psync site has material sensitivity;");
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "causal"
       ~doc:
         "Causal what-if profile: rerun a fixed workload under the recorded \
          baseline schedule with each pwb site / impact category / cost \
          knob virtually scaled, and rank targets by throughput \
          sensitivity.")
    Term.(
      const run $ algo $ mix $ quick $ threads ~default:16
      $ ops ~doc:"Operations per thread (fixed work, not time)." ~default:250 ()
      $ seed ~default:1 () $ factors $ no_sites $ no_categories $ mechanisms
      $ json ~doc:"Write the profile as JSON to $(docv) (\"-\" = stdout)."
      $ csv ~doc:"Write the attribution table as CSV to $(docv)."
      $ check
          ~doc:
            "Smoke assertion: exit nonzero unless the profile reproduces \
             the paper's ordering (high-impact pwbs above low-impact ones, \
             psync sensitivity near zero)."
      $ jobs_arg)

(* -- trace (Perfetto export) ---------------------------------------------- *)

let trace_cmd =
  let from =
    Arg.(
      value
      & opt (some file) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Convert an existing JSONL trace instead of running a campaign.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also keep the intermediate JSONL trace at $(docv).")
  in
  let perfetto =
    Arg.(
      required
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Write Chrome trace_event JSON to $(docv) (open in \
                ui.perfetto.dev).")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Re-parse the emitted JSON and check every thread track has at \
             least one complete span; exit nonzero otherwise.")
  in
  let run algo mix threads ops crashes keys seed from jsonl perfetto validate =
    let src, cleanup =
      match from with
      | Some f -> (f, fun () -> ())
      | None ->
          let path, cleanup =
            match jsonl with
            | Some p -> (p, fun () -> ())
            | None ->
                let t = Filename.temp_file "repro-trace" ".jsonl" in
                (t, fun () -> try Sys.remove t with Sys_error _ -> ())
          in
          let cfg = campaign_cfg algo mix ~threads ~ops ~crashes ~keys in
          Metrics.enable ();
          let result =
            Fun.protect
              ~finally:(fun () -> Metrics.disable ())
              (fun () ->
                Trace.with_file path (fun () -> Crashes.run_once cfg ~seed))
          in
          (match result with
          | Ok o ->
              Format.printf
                "campaign: %d ops, %d recovered, %d crashes@."
                o.Crashes.completed_ops o.Crashes.recovered_ops
                o.Crashes.crashes
          | Error msg ->
              (* still convert: a trace of a failing run is the useful one *)
              Format.printf "campaign FAILED (converting anyway): %s@." msg);
          (path, cleanup)
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    match Perfetto.convert ~jsonl:src ~out:perfetto with
    | Error msg ->
        Format.printf "conversion failed: %s@." msg;
        exit 2
    | Ok s ->
        Format.printf "wrote %s: %d spans on %d thread tracks (%d events)@."
          perfetto s.Perfetto.out_spans s.Perfetto.out_threads
          s.Perfetto.in_events;
        if validate then begin
          match Perfetto.validate_file perfetto with
          | Ok v ->
              Format.printf
                "validated: parses, %d spans, every one of %d tracks has a \
                 complete span@."
                v.Perfetto.out_spans v.Perfetto.out_threads
          | Error msg ->
              Format.printf "VALIDATION FAILED: %s@." msg;
              exit 1
        end  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a small traced campaign (or convert --from an existing JSONL \
          trace) and export Chrome trace_event JSON for ui.perfetto.dev: \
          one track per logical thread, operation spans, persistence \
          instants, crash/round markers.")
    Term.(
      const run $ algo $ mix $ threads ~default:3 $ ops ~default:10 ()
      $ crashes ~default:2 () $ keys ~default:32 $ seed ~default:1 () $ from
      $ jsonl $ perfetto $ validate)

(* -- serve (sharded store service) ----------------------------------------- *)

let wb_conv =
  let parse s =
    match Pmem.resolution_of_string s with
    | Ok wb -> Ok wb
    | Error _ -> Error (`Msg "expected rng | drop | all | prefix:<k>")
  in
  let print ppf wb = Format.pp_print_string ppf (Pmem.resolution_to_string wb) in
  Arg.conv (parse, print)

(* A failing serve: save its repro, then explain it from that repro. *)
let serve_failure msg sr repro_file =
  pp_violation msg;
  save_repro ~notice:"serve repro saved to" Store_repro.save repro_file sr;
  pp_explained (Store_repro.explain sr);
  exit 1

let serve_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Number of shards.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Client fibers.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ]
          ~doc:"Max requests a server drains per mailbox activation.")
  in
  let skew =
    Arg.(
      value
      & opt (some float) None
      & info [ "skew" ] ~docv:"S"
          ~doc:
            "Skewed keys: fraction $(docv) of requests target the hottest \
             20% of keys (0.2 = uniform, 0.8 = classic hot set).")
  in
  let open_loop =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ] ~docv:"NS"
          ~doc:
            "Open-loop clients with mean interarrival $(docv) virtual ns \
             (Poisson); default is closed-loop.")
  in
  let crash_shard =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-shard" ] ~docv:"SID"
          ~doc:"Crash shard $(docv) mid-traffic and recover it live.")
  in
  let crash_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Inject the crash once $(docv) requests completed store-wide \
             (default: a third of the total).")
  in
  let crash_both =
    Arg.(
      value
      & opt (some (pair int int)) None
      & info [ "crash-both" ] ~docv:"A,B"
          ~doc:
            "Correlated power loss: crash shards $(docv) together, each \
             at its own --crash-dispatch'th dispatch, each heap's \
             write-backs resolved independently (--wb / --wb2).")
  in
  let crash_cascade =
    Arg.(
      value
      & opt (some (pair int int)) None
      & info [ "crash-cascade" ] ~docv:"A,B"
          ~doc:
            "Cascade: crash shard A at its --crash-dispatch'th dispatch, \
             then crash B while A is still recovering.")
  in
  let crash_dispatch =
    Arg.(
      value & opt int 8
      & info [ "crash-dispatch" ] ~docv:"N"
          ~doc:
            "Server dispatch index at which --crash-both/--crash-cascade \
             interrupts fire.")
  in
  let wb =
    Arg.(
      value & opt wb_conv `Rng
      & info [ "wb" ] ~docv:"RES"
          ~doc:
            "Write-back resolution at the crash: rng | drop | all | \
             prefix:<k>.")
  in
  let wb2 =
    Arg.(
      value
      & opt (some wb_conv) None
      & info [ "wb2" ] ~docv:"RES"
          ~doc:
            "Write-back resolution of the second correlated-crash victim \
             (default: same as --wb).")
  in
  let backend =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated per-shard structure names (length must equal \
             --shards), e.g. tracking,rqueue-topic,tracking-cas.  Default: \
             every shard uses the -a algorithm.")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:
            "Mirror every committed update to a per-shard replica heap; a \
             crashed primary promotes its replica (failover) instead of \
             restarting.")
  in
  let failover_ns =
    Arg.(
      value & opt float 500.
      & info [ "failover-ns" ]
          ~doc:"Virtual replica-promotion latency (with --replicate).")
  in
  let migrate =
    Arg.(
      value
      & opt (some int) None
      & info [ "migrate" ] ~docv:"SID"
          ~doc:
            "Live-split shard $(docv) mid-traffic: migrate half its key \
             space to a new shard with detectable handoff.")
  in
  let migrate_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "migrate-after" ] ~docv:"N"
          ~doc:
            "Release the migration once $(docv) requests completed \
             (default: a quarter of the total).")
  in
  let broken_handoff =
    Arg.(
      value & flag
      & info [ "broken-handoff" ]
          ~doc:
            "Negative control: elide the migration's handoff-commit pwb — \
             crash campaigns must catch the key lost from both shards.")
  in
  let check_balance =
    Arg.(
      value
      & opt (some float) None
      & info [ "check-balance" ] ~docv:"R"
          ~doc:
            "With --check: also require the max/min per-shard resident \
             key-count ratio across set-model shards to be at most $(docv).")
  in
  let restart_ns =
    Arg.(
      value & opt float 5_000.
      & info [ "restart-ns" ]
          ~doc:"Virtual restart latency charged before shard recovery.")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a saved serve repro instead of running.")
  in
  let explore =
    Arg.(
      value & flag
      & info [ "explore" ]
          ~doc:
            "Bounded exhaustive crash-point sweep instead of one run: every \
             victim shard x server dispatch index x deterministic \
             write-back resolution (keep the config small).")
  in
  let dispatch_budget =
    Arg.(
      value & opt int 64
      & info [ "dispatch-budget" ]
          ~doc:"Crash-point depth per victim explored by --explore.")
  in  let run algo mix shards clients ops batch key_range skew open_loop
      crash_shard crash_after crash_both crash_cascade crash_dispatch wb wb2
      backend replicate failover_ns migrate migrate_after broken_handoff
      check_balance restart_ns seed json csv check repro_file replay trace
      explore dispatch_budget jobs =
    match replay with
    | Some f -> replay_run f false false None trace
    | None -> (
        require_crash_capable
          ~crashing:
            (crash_shard <> None || crash_both <> None || crash_cascade <> None
           || explore || migrate <> None || replicate)
          algo;
        let backends =
          match backend with
          | None -> None
          | Some csv ->
              let names = String.split_on_char ',' csv in
              let resolve name =
                match Set_intf.by_name (String.trim name) with
                | Ok f -> f
                | Error msg ->
                    Format.printf "bad --backend: %s@." msg;
                    exit 2
              in
              Some (Array.of_list (List.map resolve names))
        in
        let dist =
          match skew with
          | None -> Workload.Uniform
          | Some s -> (
              try Workload.skewed s
              with Invalid_argument msg ->
                Format.printf "bad --skew: %s@." msg;
                exit 2)
        in
        let total = clients * ops in
        let crash =
          match (crash_shard, crash_both, crash_cascade) with
          | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
              Format.printf
                "--crash-shard, --crash-both and --crash-cascade are \
                 mutually exclusive@.";
              exit 2
          | Some victim, None, None ->
              let requests =
                match crash_after with Some n -> n | None -> max 1 (total / 3)
              in
              Some (Store.After_requests { victim; requests })
          | None, Some (a, b), None ->
              Some (Store.Both_at_dispatch { a; b; dispatch = crash_dispatch })
          | None, None, Some (first, second) ->
              Some (Store.Cascade { first; second; dispatch = crash_dispatch })
          | None, None, None -> None
        in
        let migrate =
          match migrate with
          | None ->
              if broken_handoff then begin
                Format.printf "--broken-handoff needs --migrate@.";
                exit 2
              end;
              None
          | Some msrc ->
              let m_after =
                match migrate_after with
                | Some n -> n
                | None -> max 1 (total / 4)
              in
              Some { Store.msrc; m_after; m_broken = broken_handoff }
        in
        let cfg =
          {
            Store.factory = algo;
            backends;
            shards;
            clients;
            ops_per_client = ops;
            batch;
            workload =
              {
                Workload.mix;
                key_range;
                prefill_n = key_range / 2;
                dist;
              };
            open_loop_ns = open_loop;
            crash;
            wb;
            wb2;
            restart_ns;
            failover_ns;
            replicate;
            migrate;
            seed;
          }
        in
        if explore then begin
          match
            with_trace trace (fun () ->
                Store.explore ~dispatch_budget ~jobs cfg)
          with
          | Error msg ->
              Format.printf "explore failed: %s@." msg;
              exit 2
          | Ok st -> (
              Format.printf
                "store explore: %d executions, %d crashes fired, %d failures@."
                st.Store.ex_executions st.Store.ex_fired st.Store.ex_failures;
              Array.iter
                (fun (label, d) ->
                  Format.printf
                    "  %s: crash points explored through dispatch %d@." label
                    d)
                st.Store.ex_max_dispatch;
              match st.Store.ex_first_failure with
              | None -> ()
              | Some msg -> (
                  match st.Store.ex_first_cex with
                  | Some (cex, sched, bare) ->
                      serve_failure msg
                        (Store_repro.of_config cex ~error:bare ~schedule:sched)
                        repro_file
                  | None ->
                      pp_violation msg;
                      pp_no_postmortem "no counterexample was recorded";
                      exit 1))
        end
        else begin
          let sched = ref [] in
          let record c = sched := c :: !sched in
          match with_trace trace (fun () -> Store.run ~record cfg) with
          | Error msg ->
              serve_failure msg
                (Store_repro.of_config cfg ~error:msg
                   ~schedule:(Array.of_list (List.rev !sched)))
                repro_file
          | Ok report ->
              let owned = owns_stdout [ json; csv ] in
              if not owned then Format.printf "%a" Slo.pp report;
              write_output ~owned csv (Slo.windows_csv report);
              write_output ~owned json (Slo.to_json report ^ "\n");
              if check || check_balance <> None then begin
                match
                  Slo.check ?balance_max:check_balance
                    ~crash_expected:(crash <> None) report
                with
                | Ok () -> notice ~owned "check OK@."
                | Error msg ->
                    notice ~owned "CHECK FAILED: %s@." msg;
                    exit 1
              end
        end)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive the sharded recoverable KV service: client fibers \
          (closed- or open-loop) routed over N independently recoverable \
          shards, optionally crashing one shard mid-traffic and recovering \
          it while the survivors keep serving; reports throughput, latency \
          quantiles, per-shard recovery durations and the degraded window.")
    Term.(
      const run $ algo $ mix $ shards $ clients
      $ ops ~doc:"Requests per client." ~default:200 ()
      $ batch $ keys ~default:128 $ skew $ open_loop $ crash_shard
      $ crash_after $ crash_both $ crash_cascade $ crash_dispatch $ wb $ wb2
      $ backend $ replicate $ failover_ns $ migrate $ migrate_after
      $ broken_handoff $ check_balance $ restart_ns
      $ seed ~doc:"Run seed." ~default:1 ()
      $ json ~doc:"Write the SLO report as JSON to $(docv) (\"-\" = stdout)."
      $ csv
          ~doc:
            "Write the per-shard windowed time-series (throughput and mean \
             latency per virtual-time window) as CSV to $(docv)."
      $ check
          ~doc:
            "Smoke assertion: exit nonzero unless zero requests were lost \
             and (with a crash planned) survivors kept completing requests \
             inside the recovery window."
      $ repro_out ~what:"serve repro" () $ replay $ trace ~what:"the serve"
      $ explore $ dispatch_budget $ jobs_arg)

(* -- classify ------------------------------------------------------------- *)

let classify_cmd =
  let run algo mix quick =
    let cfg = cfg_of_quick quick in
    Report.pp_classification Format.std_formatter
      (Figures.classification cfg mix algo)
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Measure each pwb code line's impact (paper §5 methodology) and \
          print the low/medium/high classification.")
    Term.(const run $ algo $ mix $ quick)

let () =
  let doc =
    "Reproduction of 'Detectable Recovery of Lock-Free Data Structures' \
     (PPoPP 2022) on a simulated multicore with NVMM."
  in
  (* [repro --replay FILE] works without naming the subcommand. *)
  let default =
    let replay_opt =
      Arg.(
        value
        & opt (some file) None
        & info [ "replay" ] ~docv:"FILE"
            ~doc:"Replay a saved repro $(docv) (same as the replay command).")
    in
    Term.(
      ret
        (const (function
           | Some f -> `Ok (replay_run f false false None None)
           | None -> `Help (`Pager, None))
        $ replay_opt))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "repro" ~doc)
          [ figures_cmd; sweep_cmd; crash_cmd; explore_cmd; replay_cmd;
            explain_cmd; soak_cmd; classify_cmd; stats_cmd; space_cmd;
            trace_cmd; causal_cmd; serve_cmd ]))

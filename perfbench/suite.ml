(* The four workloads.  Each is fixed work at a stated input size: a
   [round] does the work once and checks its verdict; [setup] runs a
   miniature of the same work (configs, inputs, warm-up).  Rounds are
   pure functions of the seed as far as every virtual metric and every
   deterministic counter is concerned — the determinism guard in [Main]
   holds them to that. *)

type ctx = {
  seed : int;
  acct : Wrap.t option;  (** traced run: structure/Sim/Pmem probes *)
  prof : Prof.t option;  (** traced run: span recorder *)
}

type out = {
  mutable attempted : int;
  mutable failures : string list;  (** newest first *)
  mutable e2e : (string * float * string) list;
      (** the workload's own end-to-end metrics (name, value, unit) *)
  mutable det : (string * string) list;
      (** deterministic counters, rendered exactly *)
  mutable layer : (string * float) list;
      (** per-layer values read from the layer's own results *)
  mutable units : float;  (** executions (or ops, runs) done: the "exec" base *)
  mutable unit_name : string;
}

let new_out () =
  {
    attempted = 0;
    failures = [];
    e2e = [];
    det = [];
    layer = [];
    units = 0.;
    unit_name = "exec";
  }

let check o ok what =
  o.attempted <- o.attempted + 1;
  if not ok then o.failures <- what :: o.failures

let det o name v = o.det <- (name, String.escaped v) :: o.det
let det_int o name v = det o name (string_of_int v)
let det_float o name v = det o name (Printf.sprintf "%h" v)
let layer o name v = o.layer <- (name, v) :: o.layer
let e2e o name v unit = o.e2e <- (name, v, unit) :: o.e2e

let fac ctx f =
  match ctx.acct with Some a -> Wrap.factory ~acct:a f | None -> f

let timed f =
  let t0 = Prof.now () in
  let r = f () in
  (r, Prof.now () -. t0)

type workload = {
  name : string;
  setup : seed:int -> unit;
  round : ctx -> out;
}

(* ---- explore ------------------------------------------------------------ *)

(* The tree [bench --wallclock] exhausts: tracking list, 2 threads x 2 ops,
   keys 8, preemption bound 1, 1 crash, write-back width 1.  It is fixed,
   not drawn from the seed: tree size swings about 4x across workload
   seeds (46k to 193k executions for seeds 1..4), which would drown any
   host-time change in input variation.  [repro explore -a ALGO -t 2
   --ops 2 --keys 8 --prefill 2 --preemptions 1 --crashes 1 --wb 1
   --max-execs 0 --seed 0] runs the same trees. *)
let explore_cfg ?(max_execs = 0) factory =
  Explore.
    {
      campaign =
        Crashes.
          {
            factory;
            threads = 2;
            ops_per_thread = 2;
            workload =
              {
                (Workload.default Workload.update_intensive) with
                key_range = 8;
                prefill_n = 2;
              };
            max_crashes = 1;
          };
      seed = 0;
      preemptions = 1;
      crashes = 1;
      wb_width = 1;
      max_execs;
    }

let explore_controls = [ Set_intf.tracking_broken; Set_intf.memento_broken ]

let explore_setup ~seed:_ =
  List.iter
    (fun f -> ignore (Explore.run ~stop_on_failure:false (explore_cfg ~max_execs:1_000 f)))
    (Set_intf.tracking :: explore_controls)

let explore_round ctx =
  let o = new_out () in
  (* Host time of each full 500-execution block.  No calibration probe
     runs inside the tree: with the probe called from this callback every
     2,000 executions, the OCaml 5.1.1 runtime aborted ("allocation
     failure during minor GC") three times in about thirty rounds, and
     never in over a hundred rounds with a non-allocating probe there or
     none. *)
  let blocks = ref [] and last = ref (0, Prof.now ()) in
  let progress (st : Explore.stats) =
    let t = Prof.now () and n0, t0 = !last in
    if st.executions - n0 = 500 then blocks := (t -. t0) *. 1e3 :: !blocks;
    last := (st.executions, t)
  in
  let tree, tree_s =
    timed (fun () ->
        Prof.span ctx.prof ~layer:"explore" "Explore.run tracking" (fun () ->
            Explore.run ~stop_on_failure:false ~progress
              (explore_cfg (fac ctx Set_intf.tracking))))
  in
  let st = tree.stats in
  o.attempted <- o.attempted + st.executions;
  if st.failures > 0 then
    o.failures <-
      Printf.sprintf "explore tracking: %d failing executions" st.failures
      :: o.failures;
  check o st.complete "explore tracking: tree not exhausted";
  det_int o "explore.executions" st.executions;
  det_int o "explore.decision_points" st.decision_points;
  det_int o "explore.crash_points" st.crash_points;
  det_int o "explore.wb_choices" st.wb_choices;
  det_int o "explore.pruned" st.pruned;
  (* negative controls: first counterexample, then a faithful replay *)
  let cex_s = ref 0. and execs_to_cex = ref 0 and replays = ref 0 in
  let replay_s = ref 0. in
  List.iter
    (fun (f : Set_intf.factory) ->
      Calib.probe ();
      let r, s =
        timed (fun () ->
            Prof.span ctx.prof ~layer:"explore" ("Explore.run " ^ f.fname)
              (fun () -> Explore.run (explore_cfg (fac ctx f))))
      in
      cex_s := !cex_s +. s;
      execs_to_cex := !execs_to_cex + r.stats.executions;
      det_int o ("explore.execs_to_cex." ^ f.fname) r.stats.executions;
      check o (r.failure <> None) (f.fname ^ ": negative control not caught");
      match r.failure with
      | None -> ()
      | Some repro ->
          incr replays;
          let rep, s =
            timed (fun () ->
                Prof.span ctx.prof ~layer:"crashes" ("Crashes.replay " ^ f.fname)
                  (fun () -> Crashes.replay repro))
          in
          replay_s := !replay_s +. s;
          check o
            (match rep with Error e -> e = repro.Repro.error | Ok () -> false)
            (f.fname ^ ": counterexample does not replay with zero divergences");
          det o ("explore.cex." ^ f.fname) repro.Repro.error)
    explore_controls;
  e2e o "cex_s" !cex_s "s";
  let blocks = Array.of_list !blocks in
  layer o "explore.executions" (float_of_int st.executions);
  layer o "explore.decision_points" (float_of_int st.decision_points);
  layer o "explore.pruned" (float_of_int st.pruned);
  layer o "explore.crash_points" (float_of_int st.crash_points);
  layer o "explore.wb_choices" (float_of_int st.wb_choices);
  layer o "explore.execs_to_cex" (float_of_int !execs_to_cex);
  layer o "explore.us_per_exec" (tree_s *. 1e6 /. float_of_int st.executions);
  if Array.length blocks > 0 then begin
    layer o "explore.block_ms_p50" (Prof.quantile blocks 0.5);
    match Prof.tail blocks with
    | Some (_, v) -> layer o "explore.block_ms_tail" v
    | None -> ()
  end;
  layer o "crashes.runs" (float_of_int !replays);
  layer o "crashes.us_per_run" (!replay_s *. 1e6 /. float_of_int (max 1 !replays));
  o.units <- float_of_int (st.executions + !execs_to_cex);
  o.unit_name <- "execution";
  o

(* ---- throughput --------------------------------------------------------- *)

(* Fixed-virtual-duration [Runner.measure] points: the paper's keys 500
   (prefill 250) for three algorithms x two mixes x 1 and 32 threads,
   plus tracking at keys 2000, whose working set is four times larger.
   At the default seed 1 each point equals [repro sweep -a ALGO -m MIX
   -t N --duration-ns 400000]. *)
let duration_ns = 400_000.

type point = {
  pf : Set_intf.factory;
  mix : Workload.mix;
  threads : int;
  keys : int;
}

let mix_label (m : Workload.mix) =
  if m == Workload.read_intensive then "read" else "update"

let point_label p =
  Printf.sprintf "%s.%s.t%d.k%d" p.pf.fname (mix_label p.mix) p.threads p.keys

let points =
  List.concat_map
    (fun pf ->
      List.concat_map
        (fun mix ->
          List.map
            (fun threads -> { pf; mix; threads; keys = 500 })
            [ 1; 32 ])
        [ Workload.read_intensive; Workload.update_intensive ])
    [ Set_intf.tracking; Set_intf.capsules_opt; Set_intf.memento_list ]
  @ [
      {
        pf = Set_intf.tracking;
        mix = Workload.update_intensive;
        threads = 32;
        keys = 2000;
      };
    ]

let headline_point = "tracking.update.t32.k500"

let point_workload p =
  { (Workload.default p.mix) with key_range = p.keys; prefill_n = p.keys / 2 }

let throughput_setup ~seed =
  List.iter
    (fun p ->
      ignore
        (Runner.measure ~duration_ns:40_000. ~seed p.pf ~threads:p.threads
           (point_workload p)))
    points

let throughput_round ctx =
  let o = new_out () in
  let sim_ops = ref 0 and runner_s = ref 0. in
  List.iter
    (fun p ->
      let label = point_label p in
      let last = ref None in
      let f = Wrap.factory ?acct:ctx.acct ~last p.pf in
      (* every point starts from a compacted heap, like the ladder rungs *)
      Gc.compact ();
      let pt, s =
        timed (fun () ->
            Prof.span ctx.prof ~layer:"runner" ("Runner.measure " ^ label)
              (fun () ->
                Runner.measure ~duration_ns ~seed:ctx.seed f ~threads:p.threads
                  (point_workload p)))
      in
      runner_s := !runner_s +. s;
      Calib.probe ();
      sim_ops := !sim_ops + pt.ops;
      (match !last with
      | None -> check o false (label ^ ": no instance to check")
      | Some inst ->
          let r = inst.check () in
          check o (r = Ok ())
            (Printf.sprintf "%s: structure check: %s" label
               (match r with Error e -> e | Ok () -> "ok")));
      det_int o ("runner.ops." ^ label) pt.ops;
      det_float o ("runner.vpwb_per_op." ^ label) pt.pwbs_per_op;
      det_float o ("runner.vpsync_per_op." ^ label) pt.psyncs_per_op;
      layer o ("runner.vmops." ^ label) pt.throughput_mops;
      layer o ("runner.vpwb_per_op." ^ label) pt.pwbs_per_op;
      if label = headline_point then begin
        e2e o "vmops" pt.throughput_mops "Mops/s";
        e2e o "vpwb_per_op" pt.pwbs_per_op "pwb/op"
      end)
    points;
  layer o "runner.sim_ops" (float_of_int !sim_ops);
  layer o "runner.us_per_sim_op" (!runner_s *. 1e6 /. float_of_int !sim_ops);
  o.units <- float_of_int !sim_ops;
  o.unit_name <- "simulated op";
  o

(* ---- serve -------------------------------------------------------------- *)

(* Part 1: the elastic store's crash-point sweep over a live 2-shard split
   with replicas — source, destination and both endpoints, crossed
   write-back pairs (the [bench --wallclock] migrate point plus
   replication).  Part 2: an open-loop Poisson rate ladder on 4 shards
   with 2 client fibers, replicas, and shard 2 crashed after a third of
   the requests.  Latency runs from each request's scheduled arrival.

   The sweep is a fixed verification target like the explore tree: its
   seed pins the schedule, and the number of crash points it enumerates
   moves with it.  The ladder draws its arrivals and keys from the
   workload seed. *)
let sweep_budget = 100

let sweep_cfg =
  {
    (Store.default_config Set_intf.tracking) with
    Store.shards = 2;
    clients = 2;
    ops_per_client = 16;
    workload =
      {
        (Workload.default Workload.update_intensive) with
        key_range = 16;
        prefill_n = 8;
      };
    migrate = Some { Store.msrc = 0; m_after = 3; m_broken = false };
    replicate = true;
    seed = 1;
  }

let ladder_rates = [ 2.0; 2.5; 3.0; 3.5; 4.0; 5.0 ]
let headline_rate = 2.0
let p99_limit_ns = 10_000.
let ladder_clients = 2
let ladder_ops = 10_000

(* Replica promotion latency.  [Slo.check] requires survivor completions
   inside the failover window; at the default 500 ns an open loop at
   2 Mops/s offered has well under one survivor arrival in that window,
   so the check would pass or fail by chance of the arrival draw.  5 µs
   holds several arrivals at every rung. *)
let failover_ns = 5_000.

let rate_label r = Printf.sprintf "%.1f" r

let ladder_cfg ?(ops = ladder_ops) ~seed rate =
  {
    (Store.default_config Set_intf.tracking) with
    Store.shards = 4;
    clients = ladder_clients;
    ops_per_client = ops;
    (* [rate] Mops/s offered in total = rate/clients requests per µs per
       client; mean interarrival in ns *)
    open_loop_ns = Some (float_of_int ladder_clients *. 1000. /. rate);
    crash =
      Some
        (Store.After_requests
           { victim = 2; requests = max 1 (ladder_clients * ops / 3) });
    replicate = true;
    failover_ns;
    seed;
  }

let serve_setup ~seed =
  ignore (Store.explore ~dispatch_budget:10 sweep_cfg);
  ignore (Store.run (ladder_cfg ~ops:2_000 ~seed headline_rate))

let serve_round ctx =
  let o = new_out () in
  let with_fac (c : Store.config) = { c with Store.factory = fac ctx c.factory } in
  let sweep, sweep_s =
    timed (fun () ->
        Prof.span ctx.prof ~layer:"store" "Store.explore migrate+replicas"
          (fun () ->
            Store.explore ~dispatch_budget:sweep_budget
              (with_fac sweep_cfg)))
  in
  let execs =
    match sweep with
    | Error e ->
        check o false ("serve sweep: " ^ e);
        0
    | Ok st ->
        o.attempted <- o.attempted + st.ex_executions;
        if st.ex_failures > 0 then
          o.failures <-
            Printf.sprintf "serve sweep: %d failing executions (first: %s)"
              st.ex_failures
              (Option.value st.ex_first_failure ~default:"?")
            :: o.failures;
        det_int o "store.executions" st.ex_executions;
        det_int o "store.fired" st.ex_fired;
        layer o "store.executions" (float_of_int st.ex_executions);
        layer o "store.fired" (float_of_int st.ex_fired);
        layer o "store.us_per_exec"
          (sweep_s *. 1e6 /. float_of_int (max 1 st.ex_executions));
        st.ex_executions
  in
  let sum = Hashtbl.create 8 in
  let add k v =
    Hashtbl.replace sum k (v +. Option.value (Hashtbl.find_opt sum k) ~default:0.)
  in
  let max_queue = ref 0 and vmax = ref 0. and top_mops = ref 0. in
  List.iter
    (fun rate ->
      let label = rate_label rate in
      (* each rung starts from a compacted heap, as a fresh [repro serve]
         would, so the heap peak is the rung's own and not a matter of
         where the previous rung left the major cycle *)
      Gc.compact ();
      Calib.probe ();
      match
        Prof.span ctx.prof ~layer:"store" ("Store.run " ^ label ^ " Mops/s")
          (fun () -> Store.run (with_fac (ladder_cfg ~seed:ctx.seed rate)))
      with
      | Error e -> check o false (Printf.sprintf "serve %s Mops/s: %s" label e)
      | Ok (r : Slo.report) ->
          o.attempted <- o.attempted + r.total_requests;
          if r.lost > 0 then
            o.failures <-
              Printf.sprintf "serve %s Mops/s: %d lost requests" label r.lost
              :: o.failures;
          let slo = Slo.check ~crash_expected:true r in
          check o (slo = Ok ())
            (Printf.sprintf "serve %s Mops/s: %s" label
               (match slo with Error e -> e | Ok () -> "ok"));
          let p99 = Option.value r.lat_p99_ns ~default:infinity in
          (* no growing backlog: the service keeps up with what is offered *)
          let keeps_up = r.throughput_mops >= 0.9 *. rate in
          if slo = Ok () && p99 <= p99_limit_ns && keeps_up then vmax := rate;
          det_float o ("store.vp99_ns." ^ label) p99;
          det_float o ("store.vmops." ^ label) r.throughput_mops;
          det_int o ("store.completed." ^ label) r.completed;
          layer o ("store.vp99_ns." ^ label) p99;
          add "store.requests" (float_of_int r.total_requests);
          add "store.lost" (float_of_int r.lost);
          add "store.retried" (float_of_int r.retried);
          add "store.recovered" (float_of_int r.recovered);
          List.iter
            (fun (s : Slo.shard_stat) ->
              add "store.deferred" (float_of_int s.ss_deferred);
              add "store.forwarded" (float_of_int s.ss_forwarded);
              add "store.promotions" (float_of_int s.ss_promotions);
              max_queue := max !max_queue s.ss_max_queue)
            r.shards;
          top_mops := r.throughput_mops;
          if rate = headline_rate then begin
            e2e o "vp99_ns" p99 "vns";
            match r.degraded with
            | Some d -> layer o "store.vdegraded_ns" d.dg_window_ns
            | None -> ()
          end)
    ladder_rates;
  e2e o "vmops" !top_mops "Mops/s";
  e2e o "vmax_rate_mops" !vmax "Mops/s";
  layer o "store.vmops" !top_mops;
  layer o "store.vmax_rate_mops" !vmax;
  Hashtbl.iter (fun k v -> layer o k v) sum;
  layer o "store.max_queue" (float_of_int !max_queue);
  o.units <- float_of_int (execs + List.length ladder_rates);
  o.unit_name <- "store run";
  o

(* ---- campaign ----------------------------------------------------------- *)

(* Seeded random crash campaigns (several crashes per run) over every
   healthy crash-capable set variant, baselines included.  The same runs
   go twice: observers off, then with Metrics, Space and Forensics
   attached. *)
let campaign_variants =
  List.filter
    (fun (f : Set_intf.factory) ->
      let s = f.make (Pmem.heap ~track_for_crash:false ()) ~threads:1 in
      s.supports_crash && s.model = Set_intf.Set_model
      && not (String.ends_with ~suffix:"-broken" f.fname))
    Set_intf.all

let campaign_seeds = 48

let campaign_cfg factory =
  Crashes.
    {
      factory;
      threads = 4;
      ops_per_thread = 8;
      workload =
        {
          (Workload.default Workload.update_intensive) with
          key_range = 32;
          prefill_n = 16;
        };
      max_crashes = 3;
    }

let seeds_of ~seed n = List.init n (fun i -> (seed * 10_000) + i)

(* One observed run: Metrics (enabled by the caller), the Space registry
   and sweep, and the Forensics recorder, which builds a postmortem for
   any failure. *)
let observed_run cfg ~seed =
  Space.reset ();
  Space.enable ();
  Forensics.start ();
  Fun.protect
    ~finally:(fun () ->
      Forensics.stop ();
      Space.disable ())
    (fun () ->
      let swept = ref None in
      let observe heap inst =
        swept :=
          Some (Space.sweep ~threads:cfg.Crashes.threads ~ops:0 ~crashes:0 heap inst)
      in
      let r = Crashes.run_once ~observe cfg ~seed in
      let pm =
        match r with
        | Ok _ -> None
        | Error error ->
            Some (Forensics.build ~algo:cfg.factory.fname ~seed ~error)
      in
      let allocs = List.length (Space.recs ()) in
      let sweep =
        match (r, !swept) with
        | Ok _, Some s -> Ok s
        | Ok _, None -> Error "space: observe hook never fired"
        | Error e, _ -> Error e
      in
      (r, sweep, pm, allocs, Metrics.events_recorded ()))

let campaign_setup ~seed =
  List.iter
    (fun f ->
      let cfg = campaign_cfg f and seeds = seeds_of ~seed 4 in
      ignore (Crashes.run_campaign cfg ~seeds);
      Metrics.enable ();
      Fun.protect ~finally:Metrics.disable (fun () ->
          List.iter (fun seed -> ignore (observed_run cfg ~seed)) seeds))
    campaign_variants;
  Metrics.reset ();
  Space.reset ()

let campaign_round ctx =
  let o = new_out () in
  let seeds = seeds_of ~seed:ctx.seed campaign_seeds in
  let runs = ref 0 and crashes = ref 0 and recovered = ref 0 in
  let (), off_s =
    timed (fun () ->
        List.iter
          (fun (f : Set_intf.factory) ->
            match
              Prof.span ctx.prof ~layer:"crashes"
                ("Crashes.run_campaign " ^ f.fname)
                (fun () ->
                  Crashes.run_campaign (campaign_cfg (fac ctx f)) ~seeds)
            with
            | Ok (n, oc) ->
                o.attempted <- o.attempted + n;
                runs := !runs + n;
                crashes := !crashes + oc.crashes;
                recovered := !recovered + oc.recovered_ops;
                det_int o ("crashes.crashes." ^ f.fname) oc.crashes;
                det_int o ("crashes.recovered_ops." ^ f.fname) oc.recovered_ops;
                det_int o ("crashes.completed_ops." ^ f.fname) oc.completed_ops
            | Error e -> check o false (f.fname ^ ": campaign: " ^ e))
          campaign_variants)
  in
  Calib.probe ();
  (* From here Forensics holds the write-back observer slot, so a traced
     round counts write-back fates of the observers-off phase only. *)
  let sweeps = ref [] and postmortems = ref 0 and allocs = ref 0 in
  let events = ref 0 in
  Metrics.enable ();
  let (), on_s =
    timed (fun () ->
        Fun.protect ~finally:Metrics.disable (fun () ->
            List.iter
              (fun (f : Set_intf.factory) ->
                let cfg = campaign_cfg (fac ctx f) in
                List.iter
                  (fun seed ->
                    let r, sweep, pm, a, ev =
                      Prof.span ctx.prof ~layer:"crashes"
                        ("Crashes.run_once+observers " ^ f.fname)
                        (fun () -> observed_run cfg ~seed)
                    in
                    incr runs;
                    allocs := !allocs + a;
                    events := !events + ev;
                    sweeps := (f.fname, sweep) :: !sweeps;
                    check o (Result.is_ok r)
                      (Printf.sprintf "%s seed %d (observed): %s" f.fname seed
                         (match r with Error e -> e | Ok _ -> "ok"));
                    if pm <> None then begin
                      incr postmortems;
                      o.failures <-
                        Printf.sprintf "%s seed %d: postmortem on a healthy variant"
                          f.fname seed
                        :: o.failures
                    end)
                  seeds)
              campaign_variants))
  in
  let space = Prof.span ctx.prof ~layer:"observers" "Space.check" (fun () ->
      Space.check (List.rev !sweeps))
  in
  check o (space = Ok ())
    ("Space.check: " ^ match space with Error e -> e | Ok () -> "ok");
  det_int o "observers.space_allocs" !allocs;
  det_int o "observers.metrics_events" !events;
  layer o "crashes.runs" (float_of_int !runs);
  layer o "crashes.crashes" (float_of_int !crashes);
  layer o "crashes.recovered_ops" (float_of_int !recovered);
  layer o "crashes.us_per_run"
    (off_s *. 1e6 /. float_of_int (max 1 (List.length campaign_variants * campaign_seeds)));
  layer o "observers.overhead_frac" ((on_s /. off_s) -. 1.);
  layer o "observers.metrics_events" (float_of_int !events);
  layer o "observers.space_allocs" (float_of_int !allocs);
  layer o "observers.postmortems" (float_of_int !postmortems);
  o.units <- float_of_int !runs;
  o.unit_name <- "campaign run";
  o

let all =
  [
    { name = "explore"; setup = explore_setup; round = explore_round };
    { name = "throughput"; setup = throughput_setup; round = throughput_round };
    { name = "serve"; setup = serve_setup; round = serve_round };
    { name = "campaign"; setup = campaign_setup; round = campaign_round };
  ]

(* Bounded exhaustive exploration: the correct implementation must
   survive the entire bounded tree of a tiny campaign; the negative
   control must be caught within the bound, and the emitted repro must
   replay bit-for-bit through the ordinary script path. *)

let explore_cfg ~algo ~seed ~preemptions =
  Explore.
    {
      campaign =
        Crashes.
          {
            factory = Result.get_ok (Set_intf.by_name algo);
            threads = 2;
            ops_per_thread = 1;
            workload =
              {
                (Workload.default Workload.update_intensive) with
                key_range = 4;
                prefill_n = 1;
              };
            max_crashes = 1;
          };
      seed;
      preemptions;
      crashes = 1;
      wb_width = 2;
      max_execs = 0;
    }

let test_tracking_survives_full_tree () =
  let o = Explore.run (explore_cfg ~algo:"tracking" ~seed:1 ~preemptions:1) in
  Alcotest.(check bool) "tree exhausted" true o.Explore.stats.Explore.complete;
  Alcotest.(check int) "no failures" 0 o.Explore.stats.Explore.failures;
  Alcotest.(check bool) "failure is absent" true (o.Explore.failure = None);
  (* the run actually explored something on every axis *)
  let s = o.Explore.stats in
  Alcotest.(check bool) "many executions" true (s.Explore.executions > 100);
  Alcotest.(check bool) "crash points seen" true (s.Explore.crash_points > 0);
  Alcotest.(check bool) "wb choices seen" true (s.Explore.wb_choices > 0);
  Alcotest.(check bool) "sched points seen" true
    (s.Explore.decision_points > 0)

let test_budget_reported_honestly () =
  let cfg =
    { (explore_cfg ~algo:"tracking" ~seed:1 ~preemptions:2) with
      Explore.max_execs = 10 }
  in
  let o = Explore.run cfg in
  Alcotest.(check int) "stopped at the budget" 10
    o.Explore.stats.Explore.executions;
  Alcotest.(check bool) "not claimed complete" false
    o.Explore.stats.Explore.complete

let test_broken_found_and_replays () =
  (* seed 1 makes one thread insert an absent key: the elided new-node
     pwb leaves the node never-persisted, and some crash point + wb
     choice makes it durably reachable — the explorer must find it
     without any preemption budget at all. *)
  let o =
    Explore.run (explore_cfg ~algo:"tracking-broken" ~seed:1 ~preemptions:0)
  in
  Alcotest.(check bool) "found a violation" true
    (o.Explore.stats.Explore.failures > 0);
  let r =
    match o.Explore.failure with
    | Some r -> r
    | None -> Alcotest.fail "no repro emitted"
  in
  Alcotest.(check string) "repro names the algo" "tracking-broken"
    r.Repro.algo;
  (* an explorer-found failure needs a deliberate write-back choice: the
     poisoned node is reachable only if its predecessor's post-CAS pwb
     survives the crash, which `Rng-free exploration expresses as an
     explicit resolution on the crashing round *)
  Alcotest.(check bool) "some round carries an explicit wb" true
    (List.exists (fun rd -> rd.Repro.wb <> `Rng) r.Repro.rounds);
  (* the repro replays through the ordinary script path, reproducing the
     identical failure; any schedule divergence would surface as a
     different error message *)
  match Crashes.replay r with
  | Error e -> Alcotest.(check string) "bit-for-bit" r.Repro.error e
  | Ok () -> Alcotest.fail "explorer repro did not reproduce"

let suite =
  [
    Alcotest.test_case "tracking survives the full bounded tree" `Quick
      test_tracking_survives_full_tree;
    Alcotest.test_case "execution budget reported honestly" `Quick
      test_budget_reported_honestly;
    Alcotest.test_case "broken variant found and replays" `Quick
      test_broken_found_and_replays;
  ]

(* ---- partial-order reduction: outcome-equivalence oracle ---------------

   The reduced search must reach every outcome the full bounded tree
   reaches.  An execution's outcome is recorded through a wrapping
   factory — independent of the footprint buffer the reduction reads —
   as each thread's operation results in its own order (an op cut short
   by an exception is recorded as such), the number of crashes (one
   [recover_structure] each), the final contents and the structure
   check.  Together with the fixed workload these determine the
   verdict, so equal outcome sets mean the reduction lost nothing. *)

let outcome_recorder () =
  let outcomes = Hashtbl.create 1024 in
  let cur = ref None in
  let close () =
    match !cur with
    | None -> ()
    | Some (per_tid, crashes, contents, check) ->
        let b = Buffer.create 128 in
        Array.iteri
          (fun t evs ->
            Printf.bprintf b "t%d:%s;" t (String.concat "," (List.rev evs)))
          per_tid;
        Printf.bprintf b "crashes=%d;final=%s;check=%s" !crashes
          (String.concat "," (List.map string_of_int !contents))
          !check;
        Hashtbl.replace outcomes (Buffer.contents b) ();
        cur := None
  in
  let factory (f : Set_intf.factory) =
    {
      f with
      Set_intf.make =
        (fun heap ~threads ->
          close ();
          let per_tid = Array.make threads [] in
          let crashes = ref 0 and contents = ref [] and check = ref "" in
          cur := Some (per_tid, crashes, contents, check);
          let s = f.make heap ~threads in
          let note tag g x =
            let tid = if Sim.in_sim () then Sim.tid () else -1 in
            let log r = if tid >= 0 then per_tid.(tid) <- r :: per_tid.(tid) in
            match g x with
            | r ->
                log (Printf.sprintf "%s=%b" tag r);
                r
            | exception e ->
                log (Printf.sprintf "%s!%s" tag (Printexc.to_string e));
                raise e
          in
          {
            s with
            Set_intf.insert = (fun k -> note (Printf.sprintf "i%d" k) s.insert k);
            delete = (fun k -> note (Printf.sprintf "d%d" k) s.delete k);
            find = (fun k -> note (Printf.sprintf "f%d" k) s.find k);
            recover = note "rec" s.recover;
            recover_structure =
              (fun () ->
                incr crashes;
                s.recover_structure ());
            contents =
              (fun () ->
                let c = s.contents () in
                contents := c;
                c);
            check =
              (fun () ->
                let r = s.check () in
                check := (match r with Ok () -> "ok" | Error e -> e);
                r);
          });
    }
  in
  let finish () =
    close ();
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) outcomes [])
  in
  (factory, finish)

let por_cfg ?(mix = Workload.update_intensive) ?(prefill = 1) ?(wb = 1) ~algo
    ~seed ~ops ~preemptions ~crashes () =
  let c = explore_cfg ~algo ~seed ~preemptions in
  {
    c with
    Explore.campaign =
      {
        c.Explore.campaign with
        Crashes.ops_per_thread = ops;
        max_crashes = crashes;
        workload =
          { (Workload.default mix) with key_range = 2; prefill_n = prefill };
      };
    crashes;
    wb_width = wb;
  }

let outcomes ~reduce cfg =
  let factory, finish = outcome_recorder () in
  let cfg =
    {
      cfg with
      Explore.campaign =
        { cfg.Explore.campaign with Crashes.factory = factory cfg.Explore.campaign.Crashes.factory };
    }
  in
  let o = Explore.run ~stop_on_failure:false ~reduce cfg in
  (o.Explore.stats, finish ())

let test_por_outcomes cfg () =
  let full, all = outcomes ~reduce:false cfg in
  let red, reduced = outcomes ~reduce:true cfg in
  Alcotest.(check bool) "full tree exhausted" true full.Explore.complete;
  Alcotest.(check bool) "reduced tree exhausted" true red.Explore.complete;
  Alcotest.(check (list string)) "same outcome set" all reduced;
  Alcotest.(check int) "same failure verdict" (min 1 full.Explore.failures)
    (min 1 red.Explore.failures);
  Alcotest.(check bool)
    (Printf.sprintf "no more executions (%d reduced vs %d)"
       red.Explore.executions full.Explore.executions)
    true
    (red.Explore.executions <= full.Explore.executions)

let test_por_controls () =
  (* both negative controls are still caught with reduction on, on the
     benchmark tree, and the counterexamples replay with zero
     divergences *)
  List.iter
    (fun algo ->
      let c = explore_cfg ~algo ~seed:0 ~preemptions:1 in
      let cfg =
        {
          c with
          Explore.campaign =
            {
              c.Explore.campaign with
              Crashes.ops_per_thread = 2;
              workload =
                {
                  (Workload.default Workload.update_intensive) with
                  key_range = 8;
                  prefill_n = 2;
                };
            };
          wb_width = 1;
        }
      in
      let o = Explore.run cfg in
      match o.Explore.failure with
      | None -> Alcotest.failf "%s: negative control not caught" algo
      | Some r -> (
          match Crashes.replay r with
          | Error e -> Alcotest.(check string) (algo ^ " replays") r.Repro.error e
          | Ok () -> Alcotest.failf "%s: repro did not reproduce" algo))
    [ "tracking-broken"; "memento-broken" ]

let por_case name cfg speed =
  Alcotest.test_case ("reduction keeps every outcome: " ^ name) speed
    (test_por_outcomes cfg)

let suite =
  suite
  @ [
      por_case "tracking, 1 op, bound 1, 1 crash"
        (por_cfg ~algo:"tracking" ~seed:3 ~ops:1 ~preemptions:1 ~crashes:1 ())
        `Quick;
      por_case "memento-list, 1 op, bound 1, 1 crash"
        (por_cfg ~algo:"memento-list" ~seed:4 ~ops:1 ~preemptions:1 ~crashes:1 ())
        `Quick;
      por_case "capsules-opt, 1 op, bound 1, 1 crash"
        (por_cfg ~algo:"capsules-opt" ~seed:3 ~ops:1 ~preemptions:1 ~crashes:1 ())
        `Quick;
      (* with nothing prefilled, capsules-opt's sentinels are never
         persisted: recovery touches poisoned lines, and which thread
         touches one first must still be explored both ways *)
      por_case "capsules-opt, empty, 1 op, bound 1, 1 crash"
        (por_cfg ~algo:"capsules-opt" ~prefill:0 ~wb:0 ~seed:1 ~ops:1
           ~preemptions:1 ~crashes:1 ())
        `Quick;
      (* two crashes multiply the tree by every crash point of the
         recovery rounds: bound 0 keeps it small enough for a unit test
         (free switches at thread completion are still explored) *)
      por_case "memento-list, 1 op, bound 0, 2 crashes"
        (por_cfg ~algo:"memento-list" ~mix:Workload.read_intensive ~wb:0
           ~seed:1 ~ops:1 ~preemptions:0 ~crashes:2 ())
        `Quick;
      (* three threads: a thread finishing in a dispatch that takes no
         scheduling step shifts where a crash at a fixed step cuts, which
         sleep sets must respect *)
      por_case "tracking, 3 threads, 1 op, bound 0, 1 crash"
        (let c =
           por_cfg ~algo:"tracking" ~mix:Workload.read_intensive ~wb:0 ~seed:1
             ~ops:1 ~preemptions:0 ~crashes:1 ()
         in
         { c with Explore.campaign = { c.Explore.campaign with Crashes.threads = 3 } })
        `Quick;
      por_case "memento-list, 1 op, bound 2, 1 crash"
        (por_cfg ~algo:"memento-list" ~mix:Workload.read_intensive ~seed:1
           ~ops:1 ~preemptions:2 ~crashes:1 ())
        `Slow;
      por_case "memento-list, 2 ops, bound 1, 1 crash"
        (por_cfg ~algo:"memento-list" ~mix:Workload.read_intensive ~seed:4
           ~ops:2 ~preemptions:1 ~crashes:1 ())
        `Slow;
      Alcotest.test_case "reduction still catches both negative controls"
        `Quick test_por_controls;
    ]

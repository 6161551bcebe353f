(* Tests of the benchmark's own code: self-time arithmetic, the
   tail-percentile rule, and transparency of the tracing probes (a
   wrapped factory under installed hooks runs exactly the simulation a
   plain factory does). *)

let check name ok = Alcotest.(check bool) name true ok

let close a b = Float.abs (a -. b) < 1e-9

(* ---- self time ---------------------------------------------------------- *)

let span ~id ~parent ~layer t0 t1 leaf =
  { Prof.id; name = layer; layer; parent; t0; t1; leaf_s = leaf }

let test_self_time () =
  check "union of disjoint intervals"
    (close (Prof.union_length [ (0., 1.); (2., 3.) ]) 2.);
  check "union of overlapping intervals"
    (close (Prof.union_length [ (0., 2.); (1., 3.); (5., 6.) ]) 4.);
  check "union of nested intervals"
    (close (Prof.union_length [ (0., 10.); (2., 3.) ]) 10.);
  (* root 0..10 with children 1..4 and 5..9; the second has a grandchild
     6..7 and 1 s of structure time; the root has 0.5 s of its own *)
  let spans =
    [
      span ~id:0 ~parent:(-1) ~layer:"bench" 0. 10. 0.5;
      span ~id:1 ~parent:0 ~layer:"explore" 1. 4. 0.;
      span ~id:2 ~parent:0 ~layer:"store" 5. 9. 1.;
      span ~id:3 ~parent:2 ~layer:"crashes" 6. 7. 0.25;
    ]
  in
  let self = Prof.self_times spans in
  let self_of id = snd (List.find (fun ((s : Prof.span), _) -> s.id = id) self) in
  check "root self = 10 - 7 covered - 0.5 leaf" (close (self_of 0) 2.5);
  check "leaf span self = duration" (close (self_of 1) 3.);
  check "inner span self = 4 - 1 child - 1 leaf" (close (self_of 2) 2.);
  check "grandchild self = 1 - 0.25 leaf" (close (self_of 3) 0.75);
  let layers = Prof.layer_self spans in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. layers in
  check "layer self times sum to the root's duration" (close total 10.);
  check "structure time is its own layer"
    (close (List.assoc "structures" layers) 1.75);
  (* a child that runs past its parent's end is clipped *)
  let clipped =
    Prof.self_times
      [
        span ~id:0 ~parent:(-1) ~layer:"a" 0. 2. 0.;
        span ~id:1 ~parent:0 ~layer:"b" 1. 3. 0.;
      ]
  in
  check "child clipped to its parent"
    (close (snd (List.hd clipped)) 1.)

(* ---- percentile rule ---------------------------------------------------- *)

let test_tail () =
  let sample n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "n=20: the median leaves ten beyond"
    (Prof.tail (sample 20) = Some (0.5, 10.));
  check "n=19: fewer than ten beyond the median" (Prof.tail (sample 19) = None);
  check "n=100: p90 leaves exactly ten beyond"
    (Prof.tail (sample 100) = Some (0.9, 90.));
  check "n=199: p95 leaves nine, so p90"
    (Prof.tail (sample 199) = Some (0.9, 180.));
  check "n=200: p95 leaves ten" (Prof.tail (sample 200) = Some (0.95, 190.));
  check "n=1000: p99" (Prof.tail (sample 1000) = Some (0.99, 990.));
  check "n=10000: p99.9" (Prof.tail (sample 10000) = Some (0.999, 9990.));
  check "tail is order-independent"
    (Prof.tail (Array.init 100 (fun i -> float_of_int (100 - i)))
    = Some (0.9, 90.));
  check "median of even sample" (close (Prof.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "nearest-rank quantile" (Prof.quantile (sample 10) 0.5 = 5.)

(* ---- transparency ------------------------------------------------------- *)

let traced f =
  let a = Wrap.create () in
  a.prof <- Some (Prof.create ());
  Wrap.install a;
  Fun.protect ~finally:Wrap.uninstall (fun () -> f a)

let test_explore_transparent () =
  let cfg f =
    Explore.
      {
        campaign =
          Crashes.
            {
              factory = f;
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
        seed = 3;
        preemptions = 1;
        crashes = 1;
        wb_width = 1;
        max_execs = 0;
      }
  in
  let plain = Explore.run ~stop_on_failure:false (cfg Set_intf.tracking) in
  let wrapped, a =
    traced (fun a ->
        ( Explore.run ~stop_on_failure:false
            (cfg (Wrap.factory ~acct:a Set_intf.tracking)),
          a ))
  in
  check "explore: wrapped stats equal plain stats" (plain.stats = wrapped.stats);
  check "explore: the tree was non-trivial" (plain.stats.executions > 10);
  check "explore: structure calls were timed" (a.calls > 0 && a.busy_s > 0.);
  check "explore: dispatches were counted" (a.dispatches > 0);
  (* and a failing tree yields the identical counterexample *)
  let bad f =
    Explore.run
      {
        (cfg f) with
        campaign =
          {
            (cfg f).campaign with
            threads = 1;
            ops_per_thread = 3;
            workload = { (cfg f).campaign.workload with key_range = 3; prefill_n = 0 };
          };
      }
  in
  let p = bad Set_intf.memento_broken in
  let w, _ = traced (fun a -> (bad (Wrap.factory ~acct:a Set_intf.memento_broken), a)) in
  check "explore: negative control caught" (p.failure <> None);
  check "explore: wrapped counterexample identical"
    (p.stats = w.stats && p.failure = w.failure)

let test_serve_transparent () =
  let cfg f =
    {
      (Store.default_config f) with
      Store.shards = 2;
      clients = 2;
      ops_per_client = 200;
      workload =
        {
          (Workload.default Workload.update_intensive) with
          key_range = 32;
          prefill_n = 16;
        };
      open_loop_ns = Some 800.;
      crash = Some (Store.After_requests { victim = 1; requests = 130 });
      replicate = true;
      failover_ns = 5_000.;
    }
  in
  let report = function
    | Ok r -> Slo.to_json r
    | Error e -> "error: " ^ e
  in
  let plain = report (Store.run (cfg Set_intf.tracking)) in
  let wrapped, a =
    traced (fun a ->
        (report (Store.run (cfg (Wrap.factory ~acct:a Set_intf.tracking))), a))
  in
  check "serve: wrapped Slo report equals plain report" (plain = wrapped);
  check "serve: the run completed" (not (String.starts_with ~prefix:"error" plain));
  check "serve: structure calls were timed" (a.calls > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "self-time arithmetic" `Quick test_self_time;
          Alcotest.test_case "tail-percentile rule" `Quick test_tail;
          Alcotest.test_case "wrapped explore is transparent" `Quick
            test_explore_transparent;
          Alcotest.test_case "wrapped serve is transparent" `Quick
            test_serve_transparent;
        ] );
    ]

let () =
  Alcotest.run "tracking_nvm"
    [
      ("sim", Test_sim.suite);
      ("pmem", Test_pmem.suite);
      ("substrate", Test_substrate.suite);
      ("rlist", Test_rlist.suite);
      ("rbst", Test_rbst.suite);
      ("rqueue", Test_rqueue.suite);
      ("rstack", Test_rstack.suite);
      ("rhash", Test_rhash.suite);
      ("rexchanger", Test_rexchanger.suite);
      ("oracle", Test_oracle.suite);
      ("linearize", Test_linearize.suite);
      ("tracking-engine", Test_tracking.suite);
      ("harness", Test_harness.suite);
      ("causal", Test_causal.suite);
      ("metrics", Test_metrics.suite);
      ("harris", Test_harris.suite);
      ("baselines", Test_baselines.suite);
      ("crashes", Test_crashes.suite);
      ("memento", Test_memento.suite);
      ("repro", Test_repro.suite);
      ("store-repro", Test_store_repro.suite);
      ("json", Test_json.suite);
      ("explore", Test_explore.suite);
      ("forensics", Test_forensics.suite);
      ("crash-sweeps", Test_crash_sweeps.suite);
      ("ablations", Test_ablations.suite);
      ("space", Test_space.suite);
      ("store", Test_store.suite);
      ("parallel", Test_parallel.suite);
      ("elastic", Test_elastic.suite);
    ]

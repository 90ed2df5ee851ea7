let () =
  Alcotest.run "mcs"
    [
      Suite_util.suite;
      Suite_graph.suite;
      Suite_ilp.suite;
      Suite_cdfg.suite;
      Suite_sched.suite;
      Suite_connect.suite;
      Suite_core.suite;
      Suite_sim.suite;
      Suite_rtl.suite;
      Suite_partition.suite;
      Suite_integration.suite;
      Suite_obs.suite;
      Suite_engine.suite;
      Suite_resilience.suite;
      Suite_check.suite;
      Suite_refine.suite;
      Suite_prof.suite;
      Suite_server.suite;
      Suite_chaos.suite;
    ]

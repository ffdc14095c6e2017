let () =
  Alcotest.run "check"
    [
      ("invariants", Test_invariants.suite);
      ("determinism", Test_determinism.suite);
      ("scenario", Test_scenario.suite);
      ("experiment", Test_experiment.suite);
    ]

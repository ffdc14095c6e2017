let spec () =
  {
    Baseline.default_spec with
    Baseline.placement = Baseline.Layouts.socket_round_robin_scatter;
    steal = Baseline.Numa_first;
  }

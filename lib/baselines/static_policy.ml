(* Both policies change only thread placement (paper §5.7 modifies ERMIA's
   scheduling, not its allocator): shared arenas are interleaved across
   nodes, as database engines allocate them. *)
let local_cache () =
  {
    Baseline.default_spec with
    Baseline.placement = Baseline.Layouts.sequential;
    shared_policy = Chipsim.Simmem.Interleave;
  }

let distributed_cache () =
  {
    Baseline.default_spec with
    Baseline.placement = Baseline.Layouts.one_per_chiplet;
    shared_policy = Chipsim.Simmem.Interleave;
  }

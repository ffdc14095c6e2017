open Chipsim

let dram_discount = 0.92  (* huge pages / DMA copy engines *)

let spec () =
  {
    Baseline.default_spec with
    Baseline.placement = Baseline.Layouts.sequential;
    shared_policy = Simmem.Interleave;
    steal = Baseline.Numa_first;
    profile_adjust =
      (fun p ->
        {
          p with
          Latency.dram_local_ns = p.Latency.dram_local_ns *. dram_discount;
          dram_remote_ns = p.Latency.dram_remote_ns *. dram_discount;
        });
  }

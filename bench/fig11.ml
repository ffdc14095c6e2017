(* Fig. 11: SGD (logistic regression) loss and gradient throughput across
   core counts for DimmWitted's native strategies, DW+CHARM, and
   DW+CHARM+std::async.  Paper shape: DW-NUMA-node is the best native
   strategy but plateaus (~50 GB/s loss, ~40 GB/s gradient); DW+CHARM
   scales far beyond (165 / 106 GB/s peaks); the std::async variant drops
   below the native strategies. *)

open Workloads
module Sys_ = Harness.Systems

let cache_scale = 16
let samples = 1024
let features = 1024

type config = {
  label : string;
  sys : Sys_.sys;
  replica : Sgd.replica;
  coarse : bool;  (** DimmWitted-native task grain: one chunk per core *)
}

let configs =
  [
    { label = "DW-per-core"; sys = Sys_.Dw_native; replica = Sgd.Per_core; coarse = true };
    { label = "DW-NUMA-node"; sys = Sys_.Dw_native; replica = Sgd.Per_node; coarse = true };
    { label = "DW-per-machine"; sys = Sys_.Dw_native; replica = Sgd.Per_machine; coarse = true };
    { label = "DW+CHARM"; sys = Sys_.Charm; replica = Sgd.Per_node; coarse = false };
    { label = "DW+CHARM+async"; sys = Sys_.Charm_os_threads; replica = Sgd.Per_node; coarse = false };
  ]

let core_counts = [ 8; 16; 32; 64; 128 ]

let run_config config ~workers =
  let inst = Sys_.make ~cache_scale config.sys (Util.machine Sys_.Amd_milan) ~n_workers:workers () in
  Util.attach_trace inst;
  let env = inst.Sys_.env in
  let data =
    Dataset.generate
      ~alloc:(fun ~elt_bytes ~count -> env.Exec_env.alloc_shared ~elt_bytes ~count)
      ~samples ~features ()
  in
  let grain = if config.coarse then Some (max 1 (samples / workers)) else None in
  let o = Dimmwitted.run env ~replica:config.replica ?grain data in
  (o.Dimmwitted.loss_gbps, o.Dimmwitted.gradient_gbps)

let table pick title =
  Util.subsection title;
  Util.row "  %-6s" "cores";
  List.iter (fun c -> Util.row " %16s" c.label) configs;
  Util.row "\n";
  List.iter
    (fun workers ->
      Util.row "  %-6d" workers;
      List.iter
        (fun config ->
          let loss, grad = run_config config ~workers in
          Util.row " %14.1fGB" (pick (loss, grad)))
        configs;
      Util.row "\n")
    core_counts

let run () =
  Util.section "Fig. 11 - SGD throughput (GB/s of virtual time)";
  table fst "(a) logistic loss";
  table snd "(b) gradient"

(* Replicated execution: deterministic result tokens, seeded corruption,
   plurality voting (and the planted voter bug), group placement over
   distinct chiplets, --replicate spec parsing, and end-to-end serving
   with voting under injected silent data corruption. *)

module Replica = Serving.Replica
module Server = Serving.Server
module Metrics = Serving.Metrics
module Machine = Chipsim.Machine
module Modifiers = Chipsim.Modifiers
module Sys_ = Harness.Systems

let t64 = Alcotest.int64

(* -- tokens and corruption --------------------------------------------- *)

let test_token_deterministic () =
  let a = Replica.token ~job_seed:42 ~kind:"bfs" in
  Alcotest.(check t64) "same seed and kind, same token" a
    (Replica.token ~job_seed:42 ~kind:"bfs");
  Alcotest.(check bool) "seed changes the token" true
    (a <> Replica.token ~job_seed:43 ~kind:"bfs");
  Alcotest.(check bool) "kind changes the token" true
    (a <> Replica.token ~job_seed:42 ~kind:"pagerank")

let test_corrupt_single_bit () =
  let tok = Replica.token ~job_seed:7 ~kind:"gups" in
  let bad = Replica.corrupt tok ~seed:6 in
  Alcotest.(check bool) "corruption changes the token" true (bad <> tok);
  let diff = Int64.logxor tok bad in
  Alcotest.(check bool) "exactly one bit flipped" true
    (Int64.logand diff (Int64.sub diff 1L) = 0L && diff <> 0L);
  Alcotest.(check t64) "corruption is an involution"
    tok
    (Replica.corrupt bad ~seed:6);
  Alcotest.(check bool) "different seeds can hit different bits" true
    (Replica.corrupt tok ~seed:1 <> Replica.corrupt tok ~seed:2)

(* -- voting ------------------------------------------------------------ *)

let test_majority_masks_minority () =
  let tok = Replica.token ~job_seed:1 ~kind:"bfs" in
  let bad = Replica.corrupt tok ~seed:9 in
  Alcotest.(check t64) "unanimous group" tok
    (Replica.vote [| tok; tok; tok |]);
  Alcotest.(check t64) "one corrupted of three is outvoted" tok
    (Replica.vote [| bad; tok; tok |]);
  Alcotest.(check t64) "two identical corruptions win the plurality" bad
    (Replica.vote [| bad; tok; bad |]);
  Alcotest.(check t64) "singleton group" tok (Replica.vote [| tok |])

let test_majority_tie_break () =
  let tok = Replica.token ~job_seed:2 ~kind:"bfs" in
  let bad = Replica.corrupt tok ~seed:3 in
  (* a 2-way tie resolves to the lowest replica index, deterministically —
     which is also why the vote-skip plant is undetectable at k = 2 and
     the CI gate runs 3-replica groups *)
  Alcotest.(check t64) "tie goes to replica 0" bad
    (Replica.vote [| bad; tok |]);
  Alcotest.(check t64) "tie goes to replica 0 (swapped)" tok
    (Replica.vote [| tok; bad |])

let test_empty_group_invalid () =
  let invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted an empty group" name
  in
  invalid "vote" (fun () -> Replica.vote [||]);
  invalid "vote_on" (fun () ->
      Replica.vote_on (Modifiers.create ~cores:1 ~chiplets:1 ~nodes:1) [||])

(* amd1s has 4 cores per chiplet: 24 workers span 6 chiplets, so a
   3-replica group really lands on 3 distinct chiplets (k = 2 would make
   a single corruption an undetectable 1-1 tie).  [faults] is a fault
   spec the instance's scheduler replays. *)
let replicated_inst ?(faults = "") () =
  let faults =
    Faults.Schedule.parse_exn
      ~topo:(Sys_.topology Sys_.Amd_milan_1s ~cache_scale:16)
      faults
  in
  Sys_.make ~cache_scale:16 ~faults Sys_.Charm Sys_.Amd_milan_1s ~n_workers:24 ()

let test_vote_and_plant () =
  let tok = Replica.token ~job_seed:5 ~kind:"tpch" in
  let bad = Replica.corrupt tok ~seed:6 in
  let group = [| bad; tok; tok |] in
  Alcotest.(check t64) "honest vote equals the plurality" tok
    (Replica.vote group);
  (* a plant is a fault event: the scheduler arms it on its own machine
     once the run's frontier reaches its time, and the vote cast on that
     machine returns replica 0 unchecked *)
  let planted = replicated_inst ~faults:"0:plant:vote-skip" () in
  let mods = Machine.modifiers planted.Sys_.machine in
  Alcotest.(check t64) "not armed before the run reaches it" tok
    (Replica.vote_on mods group);
  ignore (Workloads.Exec_env.run planted.Sys_.env (fun _ -> ()) : float);
  Alcotest.(check t64) "planted voter returns replica 0" bad
    (Replica.vote_on mods group);
  Alcotest.(check t64) "another machine votes honestly" tok
    (Replica.vote_on (Machine.modifiers (replicated_inst ()).Sys_.machine) group)

let test_unanimous () =
  let tok = Replica.token ~job_seed:8 ~kind:"bfs" in
  Alcotest.(check bool) "all equal" true (Replica.unanimous [| tok; tok |]);
  Alcotest.(check bool) "divergent" false
    (Replica.unanimous [| tok; Replica.corrupt tok ~seed:1 |]);
  Alcotest.(check bool) "singleton" true (Replica.unanimous [| tok |])

(* -- placement --------------------------------------------------------- *)

let test_placement_distinct () =
  let chiplets = [| 1; 3; 5; 7 |] in
  for job_id = 0 to 50 do
    for replicas = 2 to 4 do
      let p = Replica.placement ~chiplets ~job_id ~replicas in
      Alcotest.(check int) "requested group size" replicas (Array.length p);
      let sorted = Array.copy p in
      Array.sort compare sorted;
      for i = 1 to Array.length sorted - 1 do
        if sorted.(i) = sorted.(i - 1) then
          Alcotest.failf "job %d k=%d co-located two replicas on chiplet %d"
            job_id replicas sorted.(i)
      done;
      Array.iter
        (fun ch ->
          if not (Array.exists (( = ) ch) chiplets) then
            Alcotest.failf "placed on chiplet %d outside the worker set" ch)
        p
    done
  done

let test_placement_rotates_and_clamps () =
  let chiplets = [| 0; 1; 2; 3 |] in
  let p0 = Replica.placement ~chiplets ~job_id:0 ~replicas:2 in
  let p1 = Replica.placement ~chiplets ~job_id:1 ~replicas:2 in
  Alcotest.(check bool) "successive jobs rotate over the machine" true
    (p0 <> p1);
  Alcotest.(check int) "clamped to the chiplet count" 4
    (Array.length (Replica.placement ~chiplets ~job_id:0 ~replicas:9));
  (match Replica.placement ~chiplets:[||] ~job_id:0 ~replicas:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted an empty chiplet set");
  match Replica.placement ~chiplets ~job_id:0 ~replicas:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted replicas = 0"

(* -- --replicate spec parsing ------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* a valid spec through the CLIs' parser; the malformed ones (and the
   last-colon split) are in test_experiment's rejection list *)
let test_replicate_spec () =
  match Experiment.of_string "charm_serve --replicate graph:3" with
  | Ok { workload = Experiment.Serve { tenants; _ }; _ } ->
      Alcotest.(check (list (pair string int))) "graph at degree 3"
        [ ("graph", 3); ("olap", 1); ("oltp", 1) ]
        (List.map (fun te -> (te.Experiment.name, te.Experiment.replicas)) tenants)
  | Ok _ -> Alcotest.fail "not a serving run"
  | Error msg -> Alcotest.failf "rejected valid spec: %s" msg

(* -- end to end through the server ------------------------------------- *)

let replicated_cfg ?(replicas = 3) ~check seed =
  let base = Server.default_config ~seed in
  {
    base with
    Server.tenants =
      [
        {
          Server.name = "gold";
          weight = 1.0;
          slo_factor = 3.0;
          process = Serving.Arrivals.Open_loop { rate_per_s = 5000.0 };
          jobs = 6;
          mix = [ (Serving.Job.Gups 512, 1) ];
          replicas;
        };
      ];
    check;
  }

let test_server_votes_out_corruption () =
  let inst = replicated_inst () in
  (* seed 6 mod k=3 picks replica 0 as the victim: deterministic, same
     choice the CI plant gate relies on *)
  Modifiers.arm_corruption (Machine.modifiers inst.Sys_.machine) ~seed:6;
  let r = Server.run inst (replicated_cfg ~check:true 17) in
  let tr = List.hd r.Server.tenant_reports in
  Alcotest.(check int) "every job completes once" 6 tr.Server.completed;
  Alcotest.(check int) "report carries the degree" 3 tr.Server.replicas;
  Alcotest.(check int) "one divergent group" 1 tr.Server.divergences;
  Alcotest.(check int) "six replica groups" 6
    (Metrics.counter_value r.Server.registry "serve.replica.groups");
  Alcotest.(check int) "corruption consumed" 1
    (Metrics.counter_value r.Server.registry "serve.replica.corruptions");
  Alcotest.(check int) "divergence observed" 1
    (Metrics.counter_value r.Server.registry "serve.replica.divergent");
  Alcotest.(check int) "and masked by the vote" 1
    (Metrics.counter_value r.Server.registry "serve.replica.masked")

let test_server_clean_replication_agrees () =
  let inst = replicated_inst () in
  let r = Server.run inst (replicated_cfg ~check:true 17) in
  let tr = List.hd r.Server.tenant_reports in
  Alcotest.(check int) "no divergences without injected corruption" 0
    tr.Server.divergences;
  Alcotest.(check int) "no masked votes" 0
    (Metrics.counter_value r.Server.registry "serve.replica.masked")

(* Two replicas cannot out-vote a corrupted primary: the 2-way tie goes
   to replica 0, so the voted result is wrong.  Judged against the
   ground-truth token, nothing is masked and --check fails. *)
let test_server_pair_cannot_mask_primary () =
  let run ~check =
    let inst = replicated_inst () in
    (* seed 6 mod k=2 picks replica 0, the primary *)
    Modifiers.arm_corruption (Machine.modifiers inst.Sys_.machine) ~seed:6;
    Server.run inst (replicated_cfg ~replicas:2 ~check 17)
  in
  let r = run ~check:false in
  Alcotest.(check int) "one divergent group" 1
    (Metrics.counter_value r.Server.registry "serve.replica.divergent");
  Alcotest.(check int) "nothing masked" 0
    (Metrics.counter_value r.Server.registry "serve.replica.masked");
  match run ~check:true with
  | exception Chipsim.Invariant.Violation msg ->
      Alcotest.(check bool)
        (Printf.sprintf "violation names the ground truth: %s" msg)
        true
        (contains msg "ground truth")
  | _ -> Alcotest.fail "a corrupted primary won a 2-way vote undetected"

let test_server_detects_planted_voter () =
  (* the replica-agreement invariant must catch vote-skip: the corrupted
     replica 0 wins the planted vote while the honest plurality disagrees *)
  let inst = replicated_inst ~faults:"0:plant:vote-skip" () in
  Modifiers.arm_corruption (Machine.modifiers inst.Sys_.machine) ~seed:6;
  match Server.run inst (replicated_cfg ~check:true 17) with
  | exception Chipsim.Invariant.Violation msg ->
      Alcotest.(check bool)
        (Printf.sprintf "violation names the vote: %s" msg)
        true
        (contains msg "voted token")
  | _ -> Alcotest.fail "planted vote-skip went undetected"

let test_server_replication_deterministic () =
  let run () =
    let inst = replicated_inst () in
    Modifiers.arm_corruption (Machine.modifiers inst.Sys_.machine) ~seed:6;
    Server.report_to_json (Server.run inst (replicated_cfg ~check:false 23))
  in
  Alcotest.(check string) "same seed, identical report" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "token deterministic" `Quick test_token_deterministic;
    Alcotest.test_case "corruption flips one bit" `Quick
      test_corrupt_single_bit;
    Alcotest.test_case "majority masks the minority" `Quick
      test_majority_masks_minority;
    Alcotest.test_case "tie-break deterministic" `Quick test_majority_tie_break;
    Alcotest.test_case "empty groups rejected" `Quick test_empty_group_invalid;
    Alcotest.test_case "vote honest and planted" `Quick test_vote_and_plant;
    Alcotest.test_case "unanimity" `Quick test_unanimous;
    Alcotest.test_case "placement never co-locates" `Quick
      test_placement_distinct;
    Alcotest.test_case "placement rotates and clamps" `Quick
      test_placement_rotates_and_clamps;
    Alcotest.test_case "--replicate spec parsing" `Quick test_replicate_spec;
    Alcotest.test_case "server votes out corruption" `Quick
      test_server_votes_out_corruption;
    Alcotest.test_case "clean replication agrees" `Quick
      test_server_clean_replication_agrees;
    Alcotest.test_case "planted voter detected" `Quick
      test_server_detects_planted_voter;
    Alcotest.test_case "a pair cannot mask a corrupted primary" `Quick
      test_server_pair_cannot_mask_primary;
    Alcotest.test_case "replicated serving deterministic" `Quick
      test_server_replication_deterministic;
  ]

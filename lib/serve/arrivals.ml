type process =
  | Open_loop of { rate_per_s : float }
  | Closed_loop of { clients : int; think_ns : float }

let poisson_times ~rng ~rate_per_s ~jobs =
  if rate_per_s <= 0.0 then invalid_arg "Arrivals.poisson_times: rate <= 0";
  if jobs < 0 then invalid_arg "Arrivals.poisson_times: jobs < 0";
  let mean_gap_ns = 1e9 /. rate_per_s in
  let times = Array.make jobs 0.0 in
  let t = ref 0.0 in
  for i = 0 to jobs - 1 do
    (* inverse-CDF exponential; [Rng.float] is in [0, 1) so [1 - u] never
       hits 0 and the log stays finite *)
    let u = Chipsim.Rng.float rng 1.0 in
    t := !t +. (-.mean_gap_ns *. log (1.0 -. u));
    times.(i) <- !t
  done;
  times

open Chipsim

type t = {
  samples : int;
  features : int;
  rows : float array;
  labels : float array;
  sim_rows : Simmem.region;
  sim_labels : Simmem.region;
}

let generate ~alloc ?(seed = 3) ~samples ~features () =
  if samples <= 0 || features <= 0 then
    invalid_arg "Dataset.generate: dimensions must be positive";
  let rng = Rng.create seed in
  let truth = Array.init features (fun _ -> Rng.float rng 2.0 -. 1.0) in
  let rows = Array.make (samples * features) 0.0 in
  let labels = Array.make samples 0.0 in
  for s = 0 to samples - 1 do
    let dot = ref 0.0 in
    for f = 0 to features - 1 do
      let v = Rng.float rng 2.0 -. 1.0 in
      rows.((s * features) + f) <- v;
      dot := !dot +. (v *. truth.(f))
    done;
    let noisy = !dot +. (Rng.float rng 0.2 -. 0.1) in
    labels.(s) <- (if noisy >= 0.0 then 1.0 else -1.0)
  done;
  {
    samples;
    features;
    rows;
    labels;
    sim_rows = alloc ~elt_bytes:4 ~count:(samples * features);
    sim_labels = alloc ~elt_bytes:4 ~count:samples;
  }

let bytes t = 4 * t.samples * t.features
let row_offset t s = s * t.features

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type plant = Skip_ready_clamp | Vote_skip | Drop_relocated | Route_offline

let plants =
  [
    ("skip-ready-clamp", Skip_ready_clamp);
    ("vote-skip", Vote_skip);
    ("drop-relocated", Drop_relocated);
    ("route-offline", Route_offline);
  ]

let plant_name p = fst (List.find (fun (_, q) -> q = p) plants)

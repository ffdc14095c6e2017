open Chipsim

type kind =
  | Core_off of int
  | Core_on of int
  | Dvfs of { core : int; speed : float }
  | L3_ways of { chiplet : int; ways : int }
  | Link of { chiplet : int; mult : float }
  | Xsocket of float
  | Membw of { node : int; factor : float }
  | Corruption of { seed : int }
  | Plant of Invariant.plant

type event = { at_ns : float; kind : kind }
type t = event list

let describe = function
  | Core_off c -> Printf.sprintf "core-off %d" c
  | Core_on c -> Printf.sprintf "core-on %d" c
  | Dvfs { core; speed } -> Printf.sprintf "dvfs core %d -> %.2fx" core speed
  | L3_ways { chiplet; ways } ->
      Printf.sprintf "l3-ways chiplet %d -> %d" chiplet ways
  | Link { chiplet; mult } ->
      Printf.sprintf "link chiplet %d -> x%.2f" chiplet mult
  | Xsocket m -> Printf.sprintf "xsocket -> x%.2f" m
  | Membw { node; factor } ->
      Printf.sprintf "membw node %d -> %.2fx" node factor
  | Corruption { seed } -> Printf.sprintf "corrupt seed %d" seed
  | Plant p -> "plant " ^ Invariant.plant_name p

let sort t =
  (* stable, so same-instant events keep their spec order *)
  List.stable_sort (fun a b -> compare a.at_ns b.at_ns) t

(* Times are written in microseconds but held in nanoseconds.  Both
   directions shift the literal's decimal exponent instead of scaling by
   1000, so a printed schedule parses back to the identical times.  Hex
   literals have no decimal exponent to shift. *)
let shift_exponent s k =
  if String.contains s 'x' || String.contains s 'X' then None
  else
    match String.index_opt (String.lowercase_ascii s) 'e' with
    | None -> Some (Printf.sprintf "%se%d" s k)
    | Some i ->
        Option.map
          (fun e -> Printf.sprintf "%se%d" (String.sub s 0 i) (e + k))
          (int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)))

let ns_of_us s = Option.bind (shift_exponent s 3) float_of_string_opt

(* the quotient's shortest literal when it reads back exactly, else the
   nanosecond literal with its point (or exponent) moved three places *)
let us_literal at_ns =
  let us = Topology.format_float (at_ns /. 1000.0) in
  if ns_of_us us = Some at_ns then us
  else
    let ns = Topology.format_float at_ns in
    match String.index_opt ns '.' with
    | Some i when i > 3 && not (String.contains ns 'e') ->
        String.sub ns 0 (i - 3) ^ "." ^ String.sub ns (i - 3) 3
        ^ String.sub ns (i + 1) (String.length ns - i - 1)
    | _ -> Option.get (shift_exponent ns (-3))

let to_spec t =
  let f = Topology.format_float in
  String.concat ";"
    (List.map
       (fun { at_ns; kind } ->
         let us = us_literal at_ns in
         match kind with
         | Core_off c -> Printf.sprintf "%s:core-off:%d" us c
         | Core_on c -> Printf.sprintf "%s:core-on:%d" us c
         | Dvfs { core; speed } ->
             Printf.sprintf "%s:dvfs:%d:%s" us core (f speed)
         | L3_ways { chiplet; ways } ->
             Printf.sprintf "%s:l3-ways:%d:%d" us chiplet ways
         | Link { chiplet; mult } ->
             Printf.sprintf "%s:link:%d:%s" us chiplet (f mult)
         | Xsocket m -> Printf.sprintf "%s:xsocket:%s" us (f m)
         | Membw { node; factor } ->
             Printf.sprintf "%s:membw:%d:%s" us node (f factor)
         | Corruption { seed } -> Printf.sprintf "%s:corrupt:%d" us seed
         | Plant p -> Printf.sprintf "%s:plant:%s" us (Invariant.plant_name p))
       (sort t))

(* -- spec parsing -------------------------------------------------------- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let int_field entry name s =
  match int_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> fail "%s: %s must be an integer (got %S)" entry name s

let float_field entry name s =
  match float_of_string_opt (String.trim s) with
  | Some v when Float.is_finite v -> v
  | _ -> fail "%s: %s must be a finite number (got %S)" entry name s

let time_field entry s =
  let us = float_field entry "time" s in
  if us < 0.0 then fail "%s: time must be >= 0" entry;
  Option.value (ns_of_us (String.trim s)) ~default:(us *. 1000.0)

let check_range entry name v lo hi =
  if v < lo || v >= hi then
    fail "%s: %s %d out of range [0, %d)" entry name v hi

(* [rand:SEED:N:HORIZON_US] expands to N machine-valid fault events drawn
   deterministically from SEED over [0, horizon); useful for chaos-style
   robustness runs that must still replay byte-identically. *)
let expand_rand ~topo entry ~seed ~n ~horizon_us =
  if n < 0 then fail "%s: event count must be >= 0" entry;
  if horizon_us <= 0.0 then fail "%s: horizon must be positive" entry;
  let cores = Topology.num_cores topo in
  let chiplets = Topology.num_chiplets topo in
  let nodes = topo.Topology.sockets in
  let rng = Rng.create seed in
  (* Each two-draw record draws its second field first: the order every
     recorded [rand:] schedule was expanded with (OCaml leaves record
     field evaluation order unspecified, so it is spelled out). *)
  List.init n (fun _ ->
      let at_ns = Rng.float rng (horizon_us *. 1000.0) in
      let kind =
        match Rng.int rng 6 with
        | 0 -> Core_off (Rng.int rng cores)
        | 1 -> Core_on (Rng.int rng cores)
        | 2 ->
            let speed = 0.2 +. Rng.float rng 0.7 in
            Dvfs { core = Rng.int rng cores; speed }
        | 3 ->
            let ways = 1 + Rng.int rng 16 in
            L3_ways { chiplet = Rng.int rng chiplets; ways }
        | 4 ->
            let mult = 1.5 +. Rng.float rng 6.0 in
            Link { chiplet = Rng.int rng chiplets; mult }
        | _ ->
            let factor = 0.1 +. Rng.float rng 0.9 in
            Membw { node = Rng.int rng nodes; factor }
      in
      { at_ns; kind })

let parse_entry ~topo entry =
  let cores = Topology.num_cores topo in
  let chiplets = Topology.num_chiplets topo in
  let nodes = topo.Topology.sockets in
  match String.split_on_char ':' entry with
  | [ "rand"; seed; n; horizon ] ->
      expand_rand ~topo entry ~seed:(int_field entry "seed" seed)
        ~n:(int_field entry "count" n)
        ~horizon_us:(float_field entry "horizon" horizon)
  | time :: rest -> (
      let at_ns = time_field entry time in
      let one kind = [ { at_ns; kind } ] in
      match rest with
      | [ "core-off"; c ] ->
          let c = int_field entry "core" c in
          check_range entry "core" c 0 cores;
          one (Core_off c)
      | [ "core-on"; c ] ->
          let c = int_field entry "core" c in
          check_range entry "core" c 0 cores;
          one (Core_on c)
      | [ "dvfs"; c; s ] ->
          let c = int_field entry "core" c in
          check_range entry "core" c 0 cores;
          let s = float_field entry "speed" s in
          if s <= 0.0 then fail "%s: speed must be positive" entry;
          one (Dvfs { core = c; speed = s })
      | [ "l3-ways"; ch; w ] ->
          let ch = int_field entry "chiplet" ch in
          check_range entry "chiplet" ch 0 chiplets;
          let w = int_field entry "ways" w in
          if w < 1 then fail "%s: ways must be >= 1" entry;
          one (L3_ways { chiplet = ch; ways = w })
      | [ "link"; ch; m ] ->
          let ch = int_field entry "chiplet" ch in
          check_range entry "chiplet" ch 0 chiplets;
          let m = float_field entry "mult" m in
          if m < 1.0 then fail "%s: link multiplier must be >= 1" entry;
          one (Link { chiplet = ch; mult = m })
      | [ "xsocket"; m ] ->
          let m = float_field entry "mult" m in
          if m < 1.0 then fail "%s: xsocket multiplier must be >= 1" entry;
          one (Xsocket m)
      | [ "membw"; nd; f ] ->
          let nd = int_field entry "node" nd in
          check_range entry "node" nd 0 nodes;
          let f = float_field entry "factor" f in
          if f <= 0.0 || f > 1.0 then
            fail "%s: capacity factor must be in (0, 1]" entry;
          one (Membw { node = nd; factor = f })
      | [ "corrupt"; s ] ->
          (* no range to check: the seed only picks which bit flips *)
          one (Corruption { seed = int_field entry "seed" s })
      | [ "plant"; name ] -> (
          match List.assoc_opt name Invariant.plants with
          | Some p -> one (Plant p)
          | None -> fail "%s: unknown plant %S" entry name)
      | kind :: _ -> fail "%s: unknown fault kind %S" entry kind
      | [] -> fail "%s: missing fault kind" entry)
  | [] -> fail "%s: empty entry" entry

let parse ~topo spec =
  let entries =
    String.split_on_char '\n' spec
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "" && not (String.length s > 0 && s.[0] = '#'))
  in
  try Ok (sort (List.concat_map (parse_entry ~topo) entries))
  with Parse_error msg -> Error msg

let parse_exn ~topo spec =
  match parse ~topo spec with
  | Ok t -> t
  | Error msg -> invalid_arg ("Faults.Schedule.parse: " ^ msg)

let random ~topo ~seed ~n ~horizon_us =
  match
    sort
      (expand_rand ~topo
         (Printf.sprintf "rand:%d:%d:%g" seed n horizon_us)
         ~seed ~n ~horizon_us)
  with
  | t -> t
  | exception Parse_error msg -> invalid_arg ("Faults.Schedule.random: " ^ msg)

(* -- presets ------------------------------------------------------------- *)

(* The bench scenario: chiplet 0's cores throttle hard, its L3 loses
   most of its ways and its I/O-die link degrades — the compound
   "sick chiplet" from the paper's motivation for runtime adaptivity. *)
let chiplet_meltdown ~topo ~at_us =
  let at_ns = at_us *. 1000.0 in
  List.init topo.Topology.cores_per_chiplet (fun core ->
      { at_ns; kind = Dvfs { core; speed = 0.35 } })
  @ [
      { at_ns; kind = L3_ways { chiplet = 0; ways = 2 } };
      { at_ns; kind = Link { chiplet = 0; mult = 6.0 } };
    ]

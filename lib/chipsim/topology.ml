(* The topology is a *value*: everything the machine model needs to know
   about a chiplet CPU — geometry, cache sizes, per-chiplet compute kind
   and per-chiplet I/O-die link characteristics — lives in this record,
   loadable from a small config file (see [of_string]) so machine
   families are data, not code. *)

type core_kind = Big | Little | Accel

type kind_spec = {
  speed : float;
  access_mult : float;
  energy_pj : float;
  general_tasks : bool;
}

type link = {
  lat_mult : float;
  bw_bytes_per_ns : float;
}

type t = {
  sockets : int;
  chiplets_per_socket : int;
  cores_per_chiplet : int;
  chiplet_group_size : int;
  l3_bytes_per_chiplet : int;
  l2_bytes_per_core : int;
  line_bytes : int;
  mem_channels_per_socket : int;
  mem_bw_bytes_per_ns_per_channel : float;
  chiplet_kinds : core_kind array;
  kind_specs : kind_spec array;  (* indexed by [kind_index], length 3 *)
  links : link array;  (* per chiplet *)
  general_chiplets_per_socket : int;
  chiplet_order : int array array;  (* per socket: local chiplets in visit order *)
}

let kind_index = function Big -> 0 | Little -> 1 | Accel -> 2
let kind_name = function Big -> "big" | Little -> "little" | Accel -> "accel"

let kind_of_name = function
  | "big" -> Some Big
  | "little" -> Some Little
  | "accel" -> Some Accel
  | _ -> None

(* Per-kind cost tables in the Hetero-OU style: throughput multiplier,
   memory-path latency multiplier, and energy per access.  Big is the
   calibration baseline (multipliers exactly 1.0, so homogeneous machines
   are bit-identical to the pre-kind model); little cores trade speed for
   energy, accelerator tiles trade generality (slower per-access memory
   path) for raw throughput. *)
let default_kind_specs =
  [|
    { speed = 1.0; access_mult = 1.0; energy_pj = 0.87; general_tasks = true };
    { speed = 0.6; access_mult = 1.15; energy_pj = 0.30; general_tasks = true };
    { speed = 2.5; access_mult = 1.30; energy_pj = 0.22; general_tasks = false };
  |]

let default_link = { lat_mult = 1.0; bw_bytes_per_ns = 4.0 }

let finite f = Float.is_finite f

let v ?(chiplet_group_size = 2) ?(l3_bytes_per_chiplet = 32 * 1024 * 1024)
    ?(l2_bytes_per_core = 512 * 1024) ?(line_bytes = 64)
    ?(mem_channels_per_socket = 8) ?(mem_bw_bytes_per_ns_per_channel = 4.8)
    ?chiplet_kinds ?kind_specs ?links ~sockets ~chiplets_per_socket
    ~cores_per_chiplet () =
  if sockets <= 0 || chiplets_per_socket <= 0 || cores_per_chiplet <= 0 then
    invalid_arg "Topology.v: counts must be positive";
  if chiplet_group_size <= 0 || chiplets_per_socket mod chiplet_group_size <> 0
  then invalid_arg "Topology.v: chiplet_group_size must divide chiplets_per_socket";
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Topology.v: line_bytes must be a positive power of two";
  if l3_bytes_per_chiplet < line_bytes || l2_bytes_per_core < line_bytes then
    invalid_arg "Topology.v: cache sizes must hold at least one line";
  if mem_channels_per_socket <= 0 then
    invalid_arg "Topology.v: mem_channels_per_socket must be positive";
  if
    (not (finite mem_bw_bytes_per_ns_per_channel))
    || mem_bw_bytes_per_ns_per_channel <= 0.0
  then invalid_arg "Topology.v: mem bandwidth must be positive";
  let nchiplets = sockets * chiplets_per_socket in
  let chiplet_kinds =
    match chiplet_kinds with
    | None -> Array.make nchiplets Big
    | Some ks ->
        if Array.length ks <> nchiplets then
          invalid_arg
            (Printf.sprintf
               "Topology.v: chiplet_kinds has %d entries for %d chiplets"
               (Array.length ks) nchiplets);
        Array.copy ks
  in
  let kind_specs =
    match kind_specs with
    | None -> default_kind_specs
    | Some ss ->
        if Array.length ss <> 3 then
          invalid_arg "Topology.v: kind_specs must have one entry per kind (3)";
        Array.iter
          (fun s ->
            if (not (finite s.speed)) || s.speed <= 0.0 then
              invalid_arg "Topology.v: kind speed must be positive";
            if (not (finite s.access_mult)) || s.access_mult <= 0.0 then
              invalid_arg "Topology.v: kind access-mult must be positive";
            if (not (finite s.energy_pj)) || s.energy_pj < 0.0 then
              invalid_arg "Topology.v: kind energy-pj must be non-negative")
          ss;
        Array.copy ss
  in
  let links =
    match links with
    | None -> Array.make nchiplets default_link
    | Some ls ->
        if Array.length ls <> nchiplets then
          invalid_arg
            (Printf.sprintf "Topology.v: links has %d entries for %d chiplets"
               (Array.length ls) nchiplets);
        Array.iter
          (fun l ->
            if (not (finite l.lat_mult)) || l.lat_mult <= 0.0 then
              invalid_arg "Topology.v: link lat-mult must be positive";
            if (not (finite l.bw_bytes_per_ns)) || l.bw_bytes_per_ns <= 0.0 then
              invalid_arg "Topology.v: link bandwidth must be positive")
          ls;
        Array.copy ls
  in
  let spec chiplet = kind_specs.(kind_index chiplet_kinds.(chiplet)) in
  let general_chiplets_per_socket =
    let n = ref 0 in
    for local = 0 to chiplets_per_socket - 1 do
      if (spec local).general_tasks then incr n
    done;
    !n
  in
  (* general-task chiplets first, each band by descending kind speed,
     stable by index: the identity on a homogeneous socket *)
  let chiplet_order =
    Array.init sockets (fun socket ->
        let order = Array.init chiplets_per_socket Fun.id in
        let spec local = spec ((socket * chiplets_per_socket) + local) in
        Array.stable_sort
          (fun a b ->
            let sa = spec a and sb = spec b in
            if sa.general_tasks <> sb.general_tasks then
              compare sb.general_tasks sa.general_tasks
            else if sa.speed = sb.speed then compare a b
            else compare sb.speed sa.speed)
          order;
        order)
  in
  {
    sockets;
    chiplets_per_socket;
    cores_per_chiplet;
    chiplet_group_size;
    l3_bytes_per_chiplet;
    l2_bytes_per_core;
    line_bytes;
    mem_channels_per_socket;
    mem_bw_bytes_per_ns_per_channel;
    chiplet_kinds;
    kind_specs;
    links;
    general_chiplets_per_socket;
    chiplet_order;
  }

let num_chiplets t = t.sockets * t.chiplets_per_socket
let cores_per_socket t = t.chiplets_per_socket * t.cores_per_chiplet
let num_cores t = t.sockets * cores_per_socket t

let validate_core t core =
  if core < 0 || core >= num_cores t then
    invalid_arg (Printf.sprintf "Topology: core %d out of range [0,%d)" core (num_cores t))

let chiplet_of_core t core = core / t.cores_per_chiplet
let socket_of_core t core = core / cores_per_socket t
let socket_of_chiplet t chiplet = chiplet / t.chiplets_per_socket

(* Groups are computed within the chiplet's own socket, so a quadrant can
   never straddle a socket boundary — [v] additionally guarantees the
   group size divides chiplets_per_socket, which makes this coincide with
   the plain global division for every valid topology. *)
let group_of_chiplet t chiplet =
  let socket = chiplet / t.chiplets_per_socket in
  let local = chiplet mod t.chiplets_per_socket in
  let groups_per_socket = t.chiplets_per_socket / t.chiplet_group_size in
  (socket * groups_per_socket) + (local / t.chiplet_group_size)

let cores_of_chiplet t chiplet =
  let base = chiplet * t.cores_per_chiplet in
  List.init t.cores_per_chiplet (fun i -> base + i)

let same_socket t a b = socket_of_core t a = socket_of_core t b

(* -- heterogeneity accessors -------------------------------------------- *)

let kind_of_chiplet t chiplet = t.chiplet_kinds.(chiplet)
let kind_of_core t core = t.chiplet_kinds.(chiplet_of_core t core)
let spec_of_kind t kind = t.kind_specs.(kind_index kind)
let core_speed t core = (spec_of_kind t (kind_of_core t core)).speed

let chiplet_accepts_general t chiplet =
  (spec_of_kind t (kind_of_chiplet t chiplet)).general_tasks

let heterogeneous t =
  Array.exists (fun k -> k <> t.chiplet_kinds.(0)) t.chiplet_kinds

(* mean per-core throughput capacity relative to a big core, capped at 1.0
   per core to mirror {!Modifiers.online_capacity}'s convention *)
let relative_capacity t =
  let acc = ref 0.0 in
  let n = num_cores t in
  for c = 0 to n - 1 do
    acc := !acc +. Float.min 1.0 (core_speed t c)
  done;
  !acc /. float_of_int n

let equal a b = a = b

(* -- printing ------------------------------------------------------------ *)

let pp_cache ppf bytes =
  let mib = 1024 * 1024 in
  if bytes >= mib && bytes mod mib = 0 then
    Format.fprintf ppf "%d MiB" (bytes / mib)
  else if bytes >= mib then Format.fprintf ppf "%.1f MiB" (float_of_int bytes /. float_of_int mib)
  else Format.fprintf ppf "%d KiB" ((bytes + 1023) / 1024)

let pp ppf t =
  Format.fprintf ppf
    "%d socket(s) x %d chiplet(s) x %d core(s); L3 %a/chiplet; %d mem ch/socket"
    t.sockets t.chiplets_per_socket t.cores_per_chiplet pp_cache
    t.l3_bytes_per_chiplet t.mem_channels_per_socket;
  if heterogeneous t then begin
    let count k =
      Array.fold_left
        (fun acc k' -> if k = k' then acc + 1 else acc)
        0 t.chiplet_kinds
    in
    Format.fprintf ppf "; kinds";
    List.iter
      (fun k ->
        let n = count k in
        if n > 0 then Format.fprintf ppf " %s:%d" (kind_name k) n)
      [ Big; Little; Accel ]
  end

(* -- config-file format --------------------------------------------------

   One directive per line (or ';'-separated, so a whole spec fits on a
   command line); '#' starts a comment.  Sizes accept KiB/MiB/GiB
   suffixes.  Geometry directives are required; everything else defaults
   as in [v].

     sockets 2
     chiplets-per-socket 8
     cores-per-chiplet 8
     chiplet-group-size 2
     l3-bytes-per-chiplet 32MiB
     l2-bytes-per-core 512KiB
     line-bytes 64
     mem-channels-per-socket 8
     mem-bw-bytes-per-ns 4.8
     kind little speed 0.6 access-mult 1.15 energy-pj 0.3
     chiplet-kinds big big little accel
     link 3 lat-mult 1.5 bw 2                                            *)

let format_bytes b =
  let mib = 1024 * 1024 in
  if b >= mib && b mod mib = 0 then Printf.sprintf "%dMiB" (b / mib)
  else if b >= 1024 && b mod 1024 = 0 then Printf.sprintf "%dKiB" (b / 1024)
  else string_of_int b

let parse_bytes s =
  let num, mult =
    let n = String.length s in
    let suffix k m =
      if n > String.length k && String.sub s (n - String.length k) (String.length k) = k
      then Some (String.sub s 0 (n - String.length k), m)
      else None
    in
    match suffix "GiB" (1024 * 1024 * 1024) with
    | Some r -> r
    | None -> (
        match suffix "MiB" (1024 * 1024) with
        | Some r -> r
        | None -> (
            match suffix "KiB" 1024 with Some r -> r | None -> (s, 1)))
  in
  match int_of_string_opt num with
  | Some v when v >= 0 -> Some (v * mult)
  | _ -> None

(* shortest float literal that parses back to the same value: [%g] when
   its six digits suffice, else the fewest digits that do *)
let format_float f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else go 7

let to_lines t =
  (* an all-little machine must not print as an all-big one, so kinds are
     spelled out whenever any chiplet is not big *)
  let non_big = Array.exists (fun k -> k <> Big) t.chiplet_kinds in
  let buf = ref [] in
  let add l = buf := l :: !buf in
  add (Printf.sprintf "sockets %d" t.sockets);
  add (Printf.sprintf "chiplets-per-socket %d" t.chiplets_per_socket);
  add (Printf.sprintf "cores-per-chiplet %d" t.cores_per_chiplet);
  add (Printf.sprintf "chiplet-group-size %d" t.chiplet_group_size);
  add (Printf.sprintf "l3-bytes-per-chiplet %s" (format_bytes t.l3_bytes_per_chiplet));
  add (Printf.sprintf "l2-bytes-per-core %s" (format_bytes t.l2_bytes_per_core));
  add (Printf.sprintf "line-bytes %d" t.line_bytes);
  add (Printf.sprintf "mem-channels-per-socket %d" t.mem_channels_per_socket);
  add (Printf.sprintf "mem-bw-bytes-per-ns %s" (format_float t.mem_bw_bytes_per_ns_per_channel));
  List.iter
    (fun k ->
      let s = spec_of_kind t k in
      if s <> default_kind_specs.(kind_index k) || non_big then
        add
          (Printf.sprintf "kind %s speed %s access-mult %s energy-pj %s general-tasks %d"
             (kind_name k) (format_float s.speed) (format_float s.access_mult)
             (format_float s.energy_pj)
             (if s.general_tasks then 1 else 0)))
    [ Big; Little; Accel ];
  if non_big then
    add
      ("chiplet-kinds "
      ^ String.concat " "
          (Array.to_list (Array.map kind_name t.chiplet_kinds)));
  Array.iteri
    (fun ch l ->
      if l <> default_link then
        add
          (Printf.sprintf "link %d lat-mult %s bw %s" ch (format_float l.lat_mult)
             (format_float l.bw_bytes_per_ns)))
    t.links;
  List.rev !buf

let to_string t = String.concat "\n" (to_lines t) ^ "\n"
let to_spec t = String.concat "; " (to_lines t)

(* key-value pair scanner for [kind]/[link] directives: remaining tokens
   come in (key, float) pairs in any order *)
let parse_pairs ~directive ~allowed tokens =
  let rec go acc = function
    | [] -> Ok acc
    | [ k ] ->
        Error (Printf.sprintf "bad %s directive: missing value for %S" directive k)
    | k :: value :: rest ->
        if not (List.mem k allowed) then
          Error
            (Printf.sprintf "bad %s directive: unknown field %S (want %s)"
               directive k (String.concat "/" allowed))
        else (
          match float_of_string_opt value with
          | Some f when Float.is_finite f -> go ((k, f) :: acc) rest
          | _ ->
              Error
                (Printf.sprintf "bad %s directive: field %s value %S is not a number"
                   directive k value))
  in
  go [] tokens

let of_string spec =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let directives =
    (* comments run to end of line, so strip them before splitting the
       remainder of each line on ';' *)
    String.split_on_char '\n' spec
    |> List.map strip_comment
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let tokens_of line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun tok -> tok <> "")
  in
  let sockets = ref None
  and chiplets_per_socket = ref None
  and cores_per_chiplet = ref None
  and chiplet_group_size = ref None
  and l3 = ref None
  and l2 = ref None
  and line_bytes = ref None
  and mem_channels = ref None
  and mem_bw = ref None
  and kind_overrides = ref []
  and chiplet_kind_names = ref []
  and link_overrides = ref [] in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let set_int name r v =
    match int_of_string_opt v with
    | Some n -> r := Some n
    | None -> fail (Printf.sprintf "field %s value %S is not an integer" name v)
  in
  let set_bytes name r v =
    match parse_bytes v with
    | Some n -> r := Some n
    | None ->
        fail
          (Printf.sprintf "field %s value %S is not a size (int with optional KiB/MiB/GiB)"
             name v)
  in
  List.iter
    (fun line ->
      if !err = None then
        match tokens_of line with
        | [ "sockets"; v ] -> set_int "sockets" sockets v
        | [ "chiplets-per-socket"; v ] ->
            set_int "chiplets-per-socket" chiplets_per_socket v
        | [ "cores-per-chiplet"; v ] ->
            set_int "cores-per-chiplet" cores_per_chiplet v
        | [ "chiplet-group-size"; v ] ->
            set_int "chiplet-group-size" chiplet_group_size v
        | [ "l3-bytes-per-chiplet"; v ] -> set_bytes "l3-bytes-per-chiplet" l3 v
        | [ "l2-bytes-per-core"; v ] -> set_bytes "l2-bytes-per-core" l2 v
        | [ "line-bytes"; v ] -> set_bytes "line-bytes" line_bytes v
        | [ "mem-channels-per-socket"; v ] ->
            set_int "mem-channels-per-socket" mem_channels v
        | [ "mem-bw-bytes-per-ns"; v ] -> (
            match float_of_string_opt v with
            | Some f -> mem_bw := Some f
            | None ->
                fail (Printf.sprintf "field mem-bw-bytes-per-ns value %S is not a number" v))
        | "kind" :: name :: rest -> (
            match kind_of_name name with
            | None ->
                fail
                  (Printf.sprintf "unknown core kind %S (want big/little/accel)" name)
            | Some k -> (
                match
                  parse_pairs ~directive:"kind"
                    ~allowed:[ "speed"; "access-mult"; "energy-pj"; "general-tasks" ]
                    rest
                with
                | Error m -> fail m
                | Ok pairs -> kind_overrides := (k, pairs) :: !kind_overrides))
        | "chiplet-kinds" :: names ->
            if names = [] then fail "chiplet-kinds directive needs at least one kind"
            else
              List.iter
                (fun name ->
                  match kind_of_name name with
                  | Some k -> chiplet_kind_names := k :: !chiplet_kind_names
                  | None ->
                      fail
                        (Printf.sprintf
                           "unknown core kind %S in chiplet-kinds (want big/little/accel)"
                           name))
                names
        | "link" :: ch :: rest -> (
            match int_of_string_opt ch with
            | None ->
                fail (Printf.sprintf "link directive chiplet %S is not an integer" ch)
            | Some chiplet -> (
                match
                  parse_pairs ~directive:"link" ~allowed:[ "lat-mult"; "bw" ] rest
                with
                | Error m -> fail m
                | Ok pairs -> link_overrides := (chiplet, pairs) :: !link_overrides))
        | key :: _ -> fail (Printf.sprintf "unknown topology field %S in %S" key line)
        | [] -> ())
    directives;
  match !err with
  | Some m -> Error m
  | None -> (
      match (!sockets, !chiplets_per_socket, !cores_per_chiplet) with
      | None, _, _ -> Error "missing required field sockets"
      | _, None, _ -> Error "missing required field chiplets-per-socket"
      | _, _, None -> Error "missing required field cores-per-chiplet"
      | Some sockets, Some chiplets_per_socket, Some cores_per_chiplet -> (
          let nchiplets = sockets * chiplets_per_socket in
          let kind_specs = Array.copy default_kind_specs in
          List.iter
            (fun (k, pairs) ->
              let s = ref kind_specs.(kind_index k) in
              List.iter
                (fun (key, v) ->
                  match key with
                  | "speed" -> s := { !s with speed = v }
                  | "access-mult" -> s := { !s with access_mult = v }
                  | "general-tasks" -> s := { !s with general_tasks = v <> 0.0 }
                  | _ -> s := { !s with energy_pj = v })
                pairs;
              kind_specs.(kind_index k) <- !s)
            (List.rev !kind_overrides);
          let chiplet_kinds =
            match List.rev !chiplet_kind_names with
            | [] -> Ok (Array.make (max 1 nchiplets) Big)
            | ks when List.length ks = nchiplets -> Ok (Array.of_list ks)
            | ks ->
                Error
                  (Printf.sprintf "chiplet-kinds lists %d kinds for %d chiplets"
                     (List.length ks) nchiplets)
          in
          let links =
            let arr = Array.make (max 1 nchiplets) default_link in
            let rec apply = function
              | [] -> Ok arr
              | (ch, pairs) :: rest ->
                  if ch < 0 || ch >= nchiplets then
                    Error
                      (Printf.sprintf "link chiplet %d out of range [0,%d)" ch
                         nchiplets)
                  else begin
                    let l = ref arr.(ch) in
                    List.iter
                      (fun (key, v) ->
                        match key with
                        | "lat-mult" -> l := { !l with lat_mult = v }
                        | _ -> l := { !l with bw_bytes_per_ns = v })
                      pairs;
                    arr.(ch) <- !l;
                    apply rest
                  end
            in
            apply (List.rev !link_overrides)
          in
          match (chiplet_kinds, links) with
          | Error m, _ | _, Error m -> Error m
          | Ok chiplet_kinds, Ok links -> (
              let build () =
                v
                  ?chiplet_group_size:!chiplet_group_size
                  ?l3_bytes_per_chiplet:!l3 ?l2_bytes_per_core:!l2
                  ?line_bytes:!line_bytes
                  ?mem_channels_per_socket:!mem_channels
                  ?mem_bw_bytes_per_ns_per_channel:!mem_bw ~chiplet_kinds
                  ~kind_specs ~links ~sockets ~chiplets_per_socket
                  ~cores_per_chiplet ()
              in
              match build () with
              | t -> Ok t
              | exception Invalid_argument m -> Error m)))

let of_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let spec =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_string spec

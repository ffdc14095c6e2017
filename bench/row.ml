(* One bench row format and its checker.

   Every gated experiment emits typed rows: the experiment's name, the key
   fields that identify a row across runs, the simulated fields (equal on
   equal seeds), the host fields (wall-clock, varying per machine), the
   replayable spec, and an optional headline verdict.  A row renders to
   one flat JSON object; [bench --json FILE] writes a list of them and the
   committed BENCH_*.json baselines are such files.

   Each experiment declares its gates in a {!schema} next to its rows, and
   {!check} compares a baseline file against a fresh run with them: rows
   match by experiment plus key, a gated field may not move past its
   bound, a verdict may not flip from true to false, and a baseline row
   missing from the fresh run fails. *)

type value = Int of int | Num of float | Str of string | Bool of bool
type field = Key of value | Sim of value | Host of value

type t = {
  experiment : string;
  fields : (string * field) list;  (** in print order *)
  spec : string option;  (** [Experiment.to_string] of the row's run *)
  verdict : (string * bool) option;  (** a headline claim, in a row of its own *)
}

type gate =
  | Exact  (** simulated work is deterministic: any drift is a semantic change *)
  | Min_ratio of float  (** new >= ratio x old *)
  | Max_ratio of float  (** new <= ratio x old *)

type schema = {
  name : string;
  keys : string list;
  gates : (string * gate) list;
  columns : string list;  (** ungated fields the check table shows too *)
}

let make schema ?spec fields =
  let keys = List.filter_map (function k, Key _ -> Some k | _ -> None) fields in
  if keys <> schema.keys then
    invalid_arg (Printf.sprintf "Row.make: %s row keyed by %s" schema.name (String.concat "," keys));
  { experiment = schema.name; fields; spec; verdict = None }

let verdict schema name holds =
  { experiment = schema.name; fields = []; spec = None; verdict = Some (name, holds) }

(* -- JSON ------------------------------------------------------------------ *)

let value_json = function
  | Int i -> string_of_int i
  | Num f -> Printf.sprintf "%.6g" f
  | Str s -> "\"" ^ Engine.Trace.escape s ^ "\""
  | Bool b -> string_of_bool b

(* the flat form a row renders to and a baseline file parses back to *)
let flat r =
  (("experiment", Str r.experiment) :: List.map (fun (k, (Key v | Sim v | Host v)) -> (k, v)) r.fields)
  @ (match r.spec with Some s -> [ ("spec", Str s) ] | None -> [])
  @ match r.verdict with Some (n, b) -> [ ("verdict_" ^ n, Bool b) ] | None -> []

let to_json rows =
  let obj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> value_json (Str k) ^ ":" ^ value_json v) kvs) ^ "}" in
  "{\"rows\":[\n" ^ String.concat ",\n" (List.map (fun r -> obj (flat r)) rows) ^ "\n]}\n"

exception Parse of string

(* a baseline file: {"rows":[ flat object, ... ]} with string, number and
   boolean values; strings may use the escapes {!value_json} writes for
   printable text *)
let parse_file s =
  let ib = Scanf.Scanning.from_string s in
  let scan fmt = Scanf.bscanf ib fmt in
  let literal l =
    match (l, int_of_string_opt l, float_of_string_opt l) with
    | ("true" | "false"), _, _ -> Bool (l = "true")
    | _, Some i, _ -> Int i
    | _, None, Some f -> Num f
    | _ -> raise (Parse ("bad value " ^ l))
  in
  (* [item]s separated by ',' up to [close] *)
  let rec items item close acc =
    let acc = item () :: acc in
    match scan " %c" Fun.id with
    | ',' -> items item close acc
    | c when c = close -> List.rev acc
    | c -> raise (Parse (Printf.sprintf "expected ',' or '%c', got '%c'" close c))
  in
  let field () =
    let k = scan " %S :" Fun.id in
    (k, if scan " %0c" Fun.id = '"' then Str (scan "%S" Fun.id) else literal (scan "%[-+.0-9a-zA-Z]" Fun.id))
  in
  try
    scan " { \"rows\" : [" ();
    let rows = if scan " %0c" Fun.id = ']' then scan "]" [] else items (fun () -> scan " {" (); items field '}' []) ']' [] in
    scan " } %!" ();
    rows
  with Scanf.Scan_failure m | Failure m -> raise (Parse m) | End_of_file -> raise (Parse "unexpected end")

(* -- the check -------------------------------------------------------------- *)

let show = function Some (Str s) -> s | Some v -> value_json v | None -> "-"

let verdict_of flat =
  List.find_map
    (function k, Bool b when String.starts_with ~prefix:"verdict_" k -> Some (k, b) | _ -> None)
    flat

(* a flat row's identity: its experiment plus its key values, or plus its
   verdict's name for a verdict row; [None] for an experiment with no
   schema *)
let identity schemas flat =
  let e = show (List.assoc_opt "experiment" flat) in
  match (verdict_of flat, List.find_opt (fun s -> s.name = e) schemas) with
  | Some (k, _), _ -> Some (e, [ k ])
  | None, Some s -> Some (e, List.map (fun k -> show (List.assoc_opt k flat)) s.keys)
  | None, None -> None

let passes gate o n =
  let num = function Int i -> Some (float_of_int i) | Num f -> Some f | _ -> None in
  match (gate, num o, num n) with
  | Exact, _, _ -> o = n
  | Min_ratio r, Some o, Some n -> n >= r *. o
  | Max_ratio r, Some o, Some n -> n <= r *. o
  | (Min_ratio _ | Max_ratio _), _, _ -> false

let gate_name = function
  | Exact -> "must match exactly"
  | Min_ratio r -> Printf.sprintf "may not fall below %gx the baseline" r
  | Max_ratio r -> Printf.sprintf "may not exceed %gx the baseline" r

(* Compare a baseline's flat rows [old] with a fresh run's [new_]: print
   one old -> new line per baseline row (its gated fields and columns) and
   return every failure, one line each. *)
let check schemas ~old ~new_ =
  let fresh = List.filter_map (fun r -> Option.map (fun id -> (id, r)) (identity schemas r)) new_ in
  List.concat_map
    (fun o ->
      match identity schemas o with
      | None -> [ show (List.assoc_opt "experiment" o) ^ ": no gates declared for this experiment" ]
      | Some ((e, key) as id) -> (
          let label = String.concat " " (e :: key) in
          match List.assoc_opt id fresh with
          | None -> [ label ^ ": row missing from the new run" ]
          | Some n ->
              let change c = show (List.assoc_opt c o) ^ " -> " ^ show (List.assoc_opt c n) in
              let gates, cells =
                match (verdict_of o, List.find_opt (fun s -> s.name = e) schemas) with
                | Some (k, _), _ -> ([], [ change k ])
                | None, Some s ->
                    (s.gates, List.map (fun c -> c ^ " " ^ change c) (List.map fst s.gates @ s.columns))
                | None, None -> ([], [])
              in
              Printf.printf "%-30s %s\n" label (String.concat "  " cells);
              (match (verdict_of o, verdict_of n) with
              | Some (k, true), Some (_, false) -> [ label ^ ": " ^ k ^ " flipped from true to false" ]
              | _ -> [])
              @ List.filter_map
                  (fun (f, g) ->
                    match (List.assoc_opt f o, List.assoc_opt f n) with
                    | Some ov, Some nv when passes g ov nv -> None
                    | _ -> Some (Printf.sprintf "%s: %s %s (%s)" label f (change f) (gate_name g)))
                  gates))
    old

(* [bench check OLD NEW]: the table on stdout, each failure on a FAIL
   line; the exit code is 0 when every gate holds, 1 on any failure and 2
   when a file cannot be read or parsed *)
let check_files schemas old_file new_file =
  let load file =
    try Ok (parse_file (In_channel.with_open_bin file In_channel.input_all)) with
    | Sys_error m -> Error m
    | Parse m -> Error (file ^ ": " ^ m)
  in
  match (load old_file, load new_file) with
  | Error m, _ | _, Error m ->
      prerr_endline ("bench check: " ^ m);
      2
  | Ok old, Ok new_ ->
      let failures = check schemas ~old ~new_ in
      List.iter (fun f -> print_endline ("FAIL: " ^ f)) failures;
      if failures = [] then 0 else 1

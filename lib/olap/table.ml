type t = { name : string; rows : int; cols : (string * Column.t) list }

let v ~name ~rows cols =
  List.iter
    (fun (cname, c) ->
      if Column.length c <> rows then
        invalid_arg
          (Printf.sprintf "Table %s: column %s has %d rows, expected %d" name
             cname (Column.length c) rows))
    cols;
  { name; rows; cols }

(* last column first: the order every recorded dataset placed a table's
   regions in *)
let place ~alloc t =
  let cols =
    List.fold_right
      (fun (cname, c) acc ->
        let c = Column.place ~alloc c in
        (cname, c) :: acc)
      t.cols []
  in
  { t with cols }

let rows t = t.rows

let col t cname =
  match List.assoc_opt cname t.cols with
  | Some c -> c
  | None -> raise Not_found

let ints t cname =
  match col t cname with
  | Column.Ints { data; _ } -> data
  | Column.Floats _ ->
      invalid_arg (Printf.sprintf "Table %s: column %s is not ints" t.name cname)

let floats t cname =
  match col t cname with
  | Column.Floats { data; _ } -> data
  | Column.Ints _ ->
      invalid_arg (Printf.sprintf "Table %s: column %s is not floats" t.name cname)

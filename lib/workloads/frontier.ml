(* Each chunk's discoveries form a stack threaded through [link], one int
   per entry, so a discovery writes one array slot and allocates nothing.
   The merge walks the recorded heads backwards (latest-finished chunk
   first) and each stack from its head (newest first). *)

type t = {
  link : int array;  (* per entry: the entry pushed before it, or [empty] *)
  by_edge : bool;  (* entries are edges of [col], else vertices *)
  col : int array;  (* edge -> vertex, when [by_edge] *)
  stamp : int array;  (* per vertex: last generation that saw it, when [by_edge] *)
  mutable gen : int;
  mutable heads : int array;  (* nonempty chunks' heads, in finish order *)
  mutable finished : int;
}

let empty = -1

let make ~entries ~by_edge ~col ~stamp =
  {
    link = Array.make entries empty;
    by_edge;
    col;
    stamp;
    gen = 0;
    heads = Array.make 64 empty;
    finished = 0;
  }

let of_vertices n = make ~entries:n ~by_edge:false ~col:[||] ~stamp:[||]

let of_edges ~col ~vertices =
  make ~entries:(Array.length col) ~by_edge:true ~col ~stamp:(Array.make vertices 0)

let push t ~head entry =
  t.link.(entry) <- head;
  entry

let finish t head =
  if head <> empty then begin
    if t.finished = Array.length t.heads then begin
      let heads = Array.make (2 * t.finished) empty in
      Array.blit t.heads 0 heads 0 t.finished;
      t.heads <- heads
    end;
    t.heads.(t.finished) <- head;
    t.finished <- t.finished + 1
  end

let next t =
  let link = t.link and heads = t.heads and col = t.col and stamp = t.stamp in
  (* by edge, a vertex is counted under [seen], then emitted at its first
     occurrence and restamped [emitted]; by vertex, every entry is a first
     occurrence *)
  let seen = t.gen + 1 and emitted = t.gen + 2 in
  t.gen <- emitted;
  let count = ref 0 in
  for c = t.finished - 1 downto 0 do
    let e = ref heads.(c) in
    while !e <> empty do
      if not t.by_edge then incr count
      else begin
        let v = col.(!e) in
        if stamp.(v) <> seen then begin
          stamp.(v) <- seen;
          incr count
        end
      end;
      e := link.(!e)
    done
  done;
  let out = Array.make !count 0 and i = ref 0 in
  for c = t.finished - 1 downto 0 do
    let e = ref heads.(c) in
    while !e <> empty do
      if not t.by_edge then begin
        out.(!i) <- !e;
        incr i
      end
      else begin
        let v = col.(!e) in
        if stamp.(v) = seen then begin
          stamp.(v) <- emitted;
          out.(!i) <- v;
          incr i
        end
      end;
      e := link.(!e)
    done
  done;
  t.finished <- 0;
  out

(* Each chunk's discoveries form a stack threaded through [link], one
   32-bit little-endian slot per entry (half the words of an int array:
   SSSP's per-edge array is its largest), so a discovery writes one slot
   and allocates nothing.  The merge walks the recorded heads backwards
   (latest-finished chunk first) and each stack from its head (newest
   first). *)

type t = {
  link : Bytes.t;
      (* per entry, 4 bytes: the entry pushed before it, or [empty] *)
  by_edge : bool;  (* entries are edges of [col], else vertices *)
  col : int array;  (* edge -> vertex, when [by_edge] *)
  stamp : int array;  (* per vertex: last generation that saw it, when [by_edge] *)
  mutable gen : int;
  mutable heads : int array;  (* nonempty chunks' heads, in finish order *)
  mutable finished : int;
}

let empty = -1

(* a slot holds an int32, so entries are [0 .. 2^31 - 1] *)
let max_entries = 1 lsl 31

let make ~entries ~by_edge ~col ~stamp =
  if entries > max_entries then
    invalid_arg "Frontier: more than 2^31 entries do not fit a 32-bit link";
  {
    link = Bytes.make (4 * entries) '\xff' (* every slot [empty] *);
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

(* the bound check on [4 * entry] rejects an entry past the frontier's,
   so every stored head is an int32 *)
let push t ~head entry =
  Bytes.set_int32_le t.link (4 * entry) (Int32.of_int head);
  entry

let[@inline] link t e = Int32.to_int (Bytes.get_int32_le t.link (4 * e))

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
  let heads = t.heads and col = t.col and stamp = t.stamp in
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
      e := link t !e
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
      e := link t !e
    done
  done;
  t.finished <- 0;
  out

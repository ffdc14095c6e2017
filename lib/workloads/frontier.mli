(** The next frontier of a level-synchronous graph kernel (BFS, SSSP),
    built without allocating per discovery.

    Each chunk of a level keeps its discoveries as a stack linked through
    one per-run array of 32-bit links: {!push} threads an entry onto the
    chunk's stack and {!finish} records the chunk's head when the chunk
    ends.  After the level's barrier, {!next} lists the chunks
    latest-finished first and each stack newest first, keeping each
    vertex's first occurrence.  That is the order of the per-chunk lists the kernels
    used to cons, concatenate and deduplicate, so every simulated access
    and its order are unchanged.

    Per run a frontier holds 4 bytes per entry (and, for {!of_edges},
    an int per vertex), so entries are [0 .. 2^31 - 1]; per level it
    allocates only the next frontier (and the head array, when more
    chunks finish than ever before). *)

type t

val empty : int
(** The head of a chunk that has discovered nothing yet. *)

val of_vertices : int -> t
(** Entries are the vertices [0 .. n-1]; the caller pushes a vertex at
    most once per level (BFS discovers each vertex once).
    @raise Invalid_argument if [n > 2^31]. *)

val of_edges : col:int array -> vertices:int -> t
(** Entries are edge ids, naming vertex [col.(e)]; the caller pushes an
    edge at most once per level, and a vertex reached along several
    edges appears once in {!next} (SSSP relaxes each edge of a level's
    frontier once).
    @raise Invalid_argument if [col] has more than 2^31 edges. *)

val push : t -> head:int -> int -> int
(** [push t ~head e] puts entry [e] on the stack whose head is [head] and
    returns the new head.
    @raise Invalid_argument if [e] is not an entry of [t]. *)

val finish : t -> int -> unit
(** Record a finished chunk's head ({!empty} records nothing). *)

val next : t -> int array
(** The level's next frontier (vertices), in the order above; starts
    the next level. *)

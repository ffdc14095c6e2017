(** Lightweight coroutines built on OCaml 5 effect handlers.

    Each coroutine owns its execution state (an effect continuation — the
    moral equivalent of an individual stack) and can suspend at
    developer-defined points, exactly the concurrency model of paper §4.4:
    user-level-thread state management with coroutine-style voluntary
    yielding. *)

type t

type outcome =
  | Yielded  (** performed {!yield}; wants to be rescheduled *)
  | Suspended  (** performed {!suspend}; someone else must wake it *)
  | Finished

val create : (unit -> unit) -> t
(** A coroutine that will run the thunk when first resumed. *)

val resume : t -> outcome
(** Run (or continue) the coroutine until it yields, suspends or returns.
    @raise Invalid_argument if it is not in a resumable state. *)

val is_done : t -> bool
val is_parked : t -> bool
(** True after [Yielded] or [Suspended], until the next {!resume}. *)

val yield : unit -> unit
(** Within a coroutine: suspend, asking to be rescheduled immediately.
    @raise Effect.Unhandled if called outside a coroutine. *)

val suspend : unit -> unit
(** Within a coroutine: park, leaving the wake-up to whoever the caller
    registered the coroutine with beforehand.  Returns when somebody
    resumes it. *)

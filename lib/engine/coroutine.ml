type outcome = Yielded | Suspended | Finished

type t = { mutable state : state; mutable last : outcome }

and state =
  | Created : ('a -> unit) * 'a -> state
  | Parked : (unit, unit) Effect.Deep.continuation -> state
  | Running : state
  | Finished_ : state

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : unit Effect.t

let create_app f x = { state = Created (f, x); last = Finished }
let create f = create_app f ()
let finished = { state = Finished_; last = Finished }

let yield () = Effect.perform Yield
let suspend () = Effect.perform Suspend

(* One handler serves every coroutine: its return, exception and effect
   functions are closed top-level functions, and the effect function's
   answers are preallocated, so the record is built once.  They find the
   coroutine they act for in [current], which {!resume} sets around every
   run and restores afterwards, so a coroutine may resume another.  An
   effect other than ours is passed on to the enclosing handler. *)
let current = ref finished

let retc () =
  let t = !current in
  t.state <- Finished_;
  t.last <- Finished

let exnc e =
  let t = !current in
  t.state <- Finished_;
  t.last <- Finished;
  raise e

let park outcome k =
  let t = !current in
  t.state <- Parked k;
  t.last <- outcome

let on_yield = Some (park Yielded)
let on_suspend = Some (park Suspended)

let handler =
  {
    Effect.Deep.retc;
    exnc;
    effc =
      (fun (type c) (eff : c Effect.t) :
           ((c, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Yield -> on_yield
        | Suspend -> on_suspend
        | _ -> None);
  }

let resume t =
  let prev = !current in
  (match t.state with
  | Created (f, x) -> (
      t.state <- Running;
      current := t;
      try Effect.Deep.match_with f x handler
      with e ->
        current := prev;
        raise e)
  | Parked k -> (
      t.state <- Running;
      current := t;
      try Effect.Deep.continue k ()
      with e ->
        current := prev;
        raise e)
  | Running -> invalid_arg "Coroutine.resume: already running"
  | Finished_ -> invalid_arg "Coroutine.resume: already finished");
  current := prev;
  t.last

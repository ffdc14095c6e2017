type outcome = Yielded | Suspended | Finished

type t = { mutable state : state; mutable last : outcome }

and state =
  | Created of (unit -> unit)
  | Parked of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished_

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : unit Effect.t

let create f = { state = Created f; last = Finished }
let is_done t = t.state = Finished_

let is_parked t =
  match t.state with Created _ | Parked _ -> true | Running | Finished_ -> false

let yield () = Effect.perform Yield
let suspend () = Effect.perform Suspend

(* One deep handler serves every coroutine, built once at start-up: a
   handler built per coroutine costs a record and five closures per task,
   and one whose [effc] builds [Some (fun k -> ...)] costs a closure per
   [perform].  The handler finds the coroutine it acts for in [current],
   which {!resume} sets around every run and restores afterwards, so a
   coroutine may resume another. *)
let current = ref { state = Finished_; last = Finished }

let on_yield =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let t = !current in
      t.state <- Parked k;
      t.last <- Yielded)

let on_suspend =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let t = !current in
      t.state <- Parked k;
      t.last <- Suspended)

let handler : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        let t = !current in
        t.state <- Finished_;
        t.last <- Finished);
    exnc =
      (fun e ->
        let t = !current in
        t.state <- Finished_;
        t.last <- Finished;
        raise e);
    effc =
      (fun (type c) (eff : c Effect.t) ->
        match eff with
        | Yield -> (on_yield : ((c, unit) Effect.Deep.continuation -> unit) option)
        | Suspend -> on_suspend
        | _ -> None);
  }

let resume t =
  let prev = !current in
  (match t.state with
  | Created f -> (
      t.state <- Running;
      current := t;
      try Effect.Deep.match_with f () handler
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

type 'a state =
  | Pending of Sched.task list  (* waiting tasks *)
  | Done of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Pending [] }

let is_fulfilled t = match t.state with Done _ -> true | Pending _ -> false
let peek t = match t.state with Done v -> Some v | Pending _ -> None

let fulfill ctx t v =
  match t.state with
  | Done _ -> invalid_arg "Future.fulfill: already fulfilled"
  | Pending waiters ->
      t.state <- Done v;
      let sched = Sched.Ctx.sched ctx in
      let now = Sched.Ctx.now ctx in
      List.iter (fun task -> Sched.ready sched ~at:now task) waiters

let await ctx t =
  match t.state with
  | Done v -> v
  | Pending waiters ->
      Sched.Ctx.suspend ctx (fun task -> t.state <- Pending (task :: waiters));
      (match t.state with
      | Done v -> v
      | Pending _ -> assert false)

let spawn sched ?worker f =
  let t = create () in
  ignore
    (Sched.spawn sched ?worker (fun ctx -> fulfill ctx t (f ctx)) : Sched.task);
  t

let spawn_at ctx ?worker ?at f =
  let t = create () in
  ignore
    (Sched.Ctx.spawn ctx ?worker ?at (fun ctx' -> fulfill ctx' t (f ctx'))
      : Sched.task);
  t

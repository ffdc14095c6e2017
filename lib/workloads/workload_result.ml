type t = { label : string; makespan_ns : float; work_items : int }

let v ~label ~makespan_ns ~work_items = { label; makespan_ns; work_items }

let throughput_per_s t =
  if t.makespan_ns <= 0.0 then 0.0
  else float_of_int t.work_items /. (t.makespan_ns /. 1e9)

type t = {
  engine : Engine.t;
  id : int;
  mutable free_at : Time.t;
  mutable busy : Time.span;
  mutable jobs : int;
}

let create engine =
  { engine; id = Engine.new_resource engine; free_at = Time.zero; busy = 0;
    jobs = 0 }

let id t = t.id

let reserve t ~now ~duration =
  (match Engine.on_reserve t.engine with Some f -> f t.id | None -> ());
  let duration = if duration < 0 then 0 else duration in
  let start = Time.max now t.free_at in
  let finish = Time.add start duration in
  t.free_at <- finish;
  t.busy <- t.busy + duration;
  t.jobs <- t.jobs + 1;
  finish

let jobs t = t.jobs
let busy_time t = t.busy

let utilization t ~horizon =
  let h = Time.to_ns horizon in
  if h <= 0 then 0.0 else float_of_int t.busy /. float_of_int h

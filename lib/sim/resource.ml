type t = {
  name : string;
  mutable free_at : Time.t;
  mutable busy : Time.span;
  mutable jobs : int;
}

let create ?(name = "resource") () =
  { name; free_at = Time.zero; busy = 0; jobs = 0 }

let name t = t.name

(* Reservation observer (model-checker support): RegCCheck records which
   resources each scheduling interval queues on, because reservation order
   among same-instant events decides completion times — a dependency its
   partial-order reduction must see. One module-level slot, set around a
   checked run and cleared after; absent, reserve pays one ref read. *)
let observer : (t -> unit) option ref = ref None

let set_observer f = observer := f

let reserve t ~now ~duration =
  (match !observer with Some f -> f t | None -> ());
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

let reset t =
  t.free_at <- Time.zero;
  t.busy <- 0;
  t.jobs <- 0

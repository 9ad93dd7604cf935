type chooser = time:int -> seqs:int array -> int

type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Heap.t;
  mutable live : int;  (* processes spawned and not yet finished *)
  (* Names of live processes, keyed by spawn id, so a stall can say who is
     blocked rather than just how many. *)
  names : (int, string) Hashtbl.t;
  mutable next_pid : int;
  (* Controlled scheduler (model-checker support): when installed, every
     pop with two or more same-instant candidates asks the chooser which
     one runs, instead of letting the [(prio, seq)] tie order decide. *)
  mutable chooser : chooser option;
  (* Scheduling quantum in ns (0 = off): event instants round up to the
     next multiple, so events staggered only by sub-quantum serialization
     deltas land on the same instant and become explicit ties. Only the
     model checker sets this; default runs keep exact timing. *)
  mutable quantum : int;
  mutable events : int;  (* events executed so far *)
}

exception Stalled of string

type _ Effect.t +=
  | Delay : Time.span -> unit Effect.t
  | Suspend : (wake:('a -> unit) -> unit) -> 'a Effect.t

let shuffle_tie_break ~seed : Heap.tie_break =
 fun ~time ~seq -> Rng.hash3 seed time seq

let create ?tie_break () =
  { now = Time.zero;
    queue = Heap.create ?tie_break ();
    live = 0;
    names = Hashtbl.create 16;
    next_pid = 0;
    chooser = None;
    quantum = 0;
    events = 0 }

let set_chooser t c = t.chooser <- c

let set_quantum t q =
  if q < 0 then invalid_arg "Engine.set_quantum: negative quantum";
  t.quantum <- q

let events t = t.events
let now t = t.now

let schedule_at t at thunk =
  if Time.( < ) at t.now then
    invalid_arg "Engine.schedule_at: instant is in the simulated past";
  let time = Time.to_ns at in
  let time =
    (* Round future instants up to the quantum grid. The current instant
       stays exact so yields and same-instant wake chains still run before
       time advances; rounding up never schedules into the past. *)
    if t.quantum > 1 && Time.( < ) t.now at && time mod t.quantum <> 0 then
      ((time / t.quantum) + 1) * t.quantum
    else time
  in
  Heap.push t.queue ~time thunk

let schedule_after t delay thunk =
  let delay = if delay < 0 then 0 else delay in
  schedule_at t (Time.add t.now delay) thunk

(* Run [body] under the effect handler that maps Delay/Suspend onto the
   event queue. Continuations are one-shot; Suspend guards against double
   wake so synchronization primitives may broadcast defensively.

   A delay allocates only its effect, its continuation and the resume
   thunk: the handler is one [Some] closure built per process, and it
   reads the span from the process's [pending] cell, which [effc] fills
   just before returning it. *)
let exec_process t pid body =
  let open Effect.Deep in
  let finished () =
    t.live <- t.live - 1;
    Hashtbl.remove t.names pid
  in
  let pending = ref 0 in
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
         schedule_after t !pending (fun () -> continue k ()))
  in
  let handler =
    { retc = (fun () -> finished ());
      exnc =
        (fun exn ->
           finished ();
           raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
           match eff with
           | Delay d ->
             pending := d;
             (on_delay : ((a, unit) continuation -> unit) option)
           | Suspend register ->
             Some
               (fun (k : (a, unit) continuation) ->
                  let woken = ref false in
                  register ~wake:(fun v ->
                      if not !woken then begin
                        woken := true;
                        schedule_after t 0 (fun () -> continue k v)
                      end))
           | _ -> None);
    }
  in
  match_with body () handler

let spawn t ?(delay = 0) ?(name = "process") body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  t.live <- t.live + 1;
  Hashtbl.replace t.names pid name;
  schedule_after t delay (fun () -> exec_process t pid body)

let blocked_names t =
  Hashtbl.fold (fun pid name acc -> (pid, name) :: acc) t.names []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let step t =
  match t.chooser with
  | None ->
    if Heap.is_empty t.queue then false
    else begin
      t.now <- Time.of_ns (Heap.min_time t.queue);
      let thunk = Heap.pop_min t.queue in
      t.events <- t.events + 1;
      thunk ();
      true
    end
  | Some choose -> (
      (* Controlled mode: same-instant ties are a scheduling choice point;
         singletons run directly so the chooser only sees real choices. *)
      match Heap.tie_seqs t.queue with
      | [||] -> false
      | seqs ->
        let time = Heap.min_time t.queue in
        let k = if Array.length seqs = 1 then 0 else choose ~time ~seqs in
        let time, thunk = Heap.pop_tie t.queue k in
        t.now <- Time.of_ns time;
        t.events <- t.events + 1;
        thunk ();
        true)

let run t =
  while step t do () done;
  if t.live > 0 then
    raise
      (Stalled
         (Printf.sprintf
            "simulation stalled at t=%dns with %d process(es) blocked: %s"
            (Time.to_ns t.now) t.live
            (String.concat ", " (blocked_names t))))

let run_until t limit =
  while
    (not (Heap.is_empty t.queue))
    && Time.( <= ) (Time.of_ns (Heap.min_time t.queue)) limit
  do
    ignore (step t : bool)
  done;
  if Time.( < ) t.now limit then t.now <- limit

let delay d = if d > 0 then Effect.perform (Delay d)
let yield () = Effect.perform (Delay 0)

let suspend ~register = Effect.perform (Suspend register)

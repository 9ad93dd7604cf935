type mutex = {
  mutable holder : int;  (* thread id or -1 *)
  waiters : (unit -> unit) Queue.t;
}

type barrier = {
  parties : int;
  mutable arrived : int;
  mutable waiting : (unit -> unit) list;
}

type system = {
  engine : Desim.Engine.t;
  cfg : Config.t;
  machine : Machine.t;
  total : int;
  mutable next : int;
}

and thread = {
  id : int;
  sys : system;
  (* One-element floatarray, not a mutable float field: a float field
     store boxes, and [accum] is written on every memory access. *)
  accum : floatarray;
  mutable m_compute : int;
  mutable m_sync : int;
}

let create ?(config = Config.default) ~threads () =
  if threads <= 0 then invalid_arg "Smp.Runtime.create: threads";
  if threads > config.Config.max_threads then
    invalid_arg
      (Printf.sprintf
         "Smp.Runtime.create: %d threads exceed the node's %d cores" threads
         config.Config.max_threads);
  { engine = Desim.Engine.create ();
    cfg = config;
    machine = Machine.create config;
    total = threads;
    next = 0 }

let mutex _s = { holder = -1; waiters = Queue.create () }

let barrier _s ~parties =
  if parties <= 0 then invalid_arg "Smp.Runtime.barrier: parties";
  { parties; arrived = 0; waiting = [] }

let spawn s body =
  if s.next >= s.total then invalid_arg "Smp.Runtime.spawn: no slots left";
  let t =
    { id = s.next;
      sys = s;
      accum = Float.Array.make 1 0.;
      m_compute = 0;
      m_sync = 0 }
  in
  s.next <- s.next + 1;
  Desim.Engine.spawn s.engine ~name:(Printf.sprintf "pth%d" t.id)
    (fun () ->
       body t;
       (* Flush residual local time into the compute bucket. *)
       if Float.Array.unsafe_get t.accum 0 > 0. then begin
         let d = Desim.Time.span_of_float_ns_at t.accum 0 in
         Float.Array.unsafe_set t.accum 0 0.;
         t.m_compute <- t.m_compute + d;
         Desim.Engine.delay d
       end);
  t

let run s = Desim.Engine.run s.engine
let elapsed s = Desim.Engine.now s.engine

let thread_id t = t.id

let now t = Desim.Engine.now t.sys.engine

let sync_clock t =
  if Float.Array.unsafe_get t.accum 0 > 0. then begin
    let d = Desim.Time.span_of_float_ns_at t.accum 0 in
    Float.Array.unsafe_set t.accum 0 0.;
    t.m_compute <- t.m_compute + d;
    Desim.Engine.delay d
  end

let malloc t ~bytes = Machine.alloc t.sys.machine ~bytes ~align:64

let charge t ns =
  Float.Array.unsafe_set t.accum 0 (Float.Array.unsafe_get t.accum 0 +. ns)

(* Virtual instant and idle wait — see the Samhita Thread_ctx twins; the
   serving workload timestamps requests with these on both backends. *)
let now_ns t =
  Desim.Time.to_ns (now t)
  + Desim.Time.span_of_float_ns_at t.accum 0

let idle_until t target =
  if target > now_ns t then begin
    sync_clock t;
    let gap = target - Desim.Time.to_ns (now t) in
    if gap > 0 then Desim.Engine.delay gap
  end

let read_i64 t addr =
  charge t (Machine.read_cost t.sys.machine ~thread:t.id ~addr);
  Machine.read_i64 t.sys.machine addr

let write_i64 t addr v =
  charge t (Machine.write_cost t.sys.machine ~thread:t.id ~addr);
  Machine.write_i64 t.sys.machine addr v

(* Not wrappers over [read_i64]/[write_i64]: an int64 crossing into
   [Machine] is boxed (dune's dev profile compiles modules opaque, so
   nothing is inlined across them). Moving the word as a float, a hit
   allocates only the float [read_f64] returns. *)
let read_f64 t addr =
  charge t (Machine.read_cost t.sys.machine ~thread:t.id ~addr);
  Machine.read_f64 t.sys.machine addr

let write_f64 t addr v =
  charge t (Machine.write_cost t.sys.machine ~thread:t.id ~addr);
  Machine.write_f64 t.sys.machine addr v

let charge_flops t n = charge t (float_of_int n *. t.sys.cfg.Config.t_flop)

let lock t m =
  sync_clock t;
  let start = now t in
  Desim.Engine.delay t.sys.cfg.Config.t_lock;
  if m.holder = -1 then m.holder <- t.id
  else begin
    Desim.Engine.suspend ~register:(fun ~wake -> Queue.push wake m.waiters);
    (* The releaser handed us the lock. *)
    m.holder <- t.id
  end;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let unlock t m =
  sync_clock t;
  let start = now t in
  if m.holder <> t.id then
    invalid_arg "Smp.Runtime.unlock: lock not held by thread";
  Desim.Engine.delay t.sys.cfg.Config.t_lock;
  (match Queue.take_opt m.waiters with
   | Some wake ->
     (* Direct hand-off: the holder field keeps a non-(-1) value until the
        woken waiter overwrites it, so a third thread cannot barge in. *)
     wake ()
   | None -> m.holder <- -1);
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let barrier_cost t parties =
  t.sys.cfg.Config.t_barrier_base
  + (parties * t.sys.cfg.Config.t_barrier_per_thread)

let barrier_wait t b =
  sync_clock t;
  let start = now t in
  b.arrived <- b.arrived + 1;
  if b.arrived < b.parties then
    Desim.Engine.suspend ~register:(fun ~wake ->
        b.waiting <- wake :: b.waiting)
  else begin
    let cost = barrier_cost t b.parties in
    let engine = t.sys.engine in
    List.iter
      (fun wake -> Desim.Engine.schedule_after engine cost wake)
      b.waiting;
    b.waiting <- [];
    b.arrived <- 0;
    Desim.Engine.delay cost
  end;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let compute_ns t = t.m_compute
let sync_ns t = t.m_sync

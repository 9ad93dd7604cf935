(* One repetition of a workload, measured from outside the simulator.

   Kernels run through a {!Workload.Backend_sig.S}. The untraced backend
   is the one users get, [Workload.Samhita_backend.make ~on_create], with
   only [run] overridden to stamp the set-up/run boundary. The traced
   backend additionally wraps every thread operation (each a
   [Samhita.Thread_ctx] call) in an {!Attribution} entry/exit crossing. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type tracer = { att : Attribution.t; spans : Spans.t }

type t = {
  tracer : tracer option;
  mutable systems : Samhita.System.t list;  (** Newest first. *)
  mutable current : Samhita.System.t option;
  mutable run_started : int;
  mutable setup_ns : int;  (** Heap reset, inputs, [System.create], spawns. *)
  mutable wall_ns : int;  (** From [System.run] to the kernel's return. *)
  mutable alloc_words : float;  (** Allocated inside kernel calls. *)
  mutable events : int;  (** Simulation events executed. *)
  mutable checks : int;
  mutable failed : int;
}

let create ?tracer () =
  { tracer;
    systems = [];
    current = None;
    run_started = 0;
    setup_ns = 0;
    wall_ns = 0;
    alloc_words = 0.;
    events = 0;
    checks = 0;
    failed = 0 }

let check t ok =
  t.checks <- t.checks + 1;
  if not ok then t.failed <- t.failed + 1

let note_checks t ~attempted ~failed =
  t.checks <- t.checks + attempted;
  t.failed <- t.failed + failed

let last_system t =
  match t.systems with
  | s :: _ -> s
  | [] -> invalid_arg "Session.last_system: no system created"

(* Drop the repetition's systems so the next one starts from a heap that
   holds nothing of it. *)
let release_systems t =
  t.systems <- [];
  t.current <- None

let untraced t : Workload.Backend_sig.backend =
  let module D =
    (val Workload.Samhita_backend.make
        ~on_create:(fun sys ->
            t.systems <- sys :: t.systems;
            t.current <- Some sys)
        ())
  in
  (module struct
    include D

    let run sys =
      t.run_started <- now ();
      D.run sys
  end)

let traced t { att; _ } : Workload.Backend_sig.backend =
  let module D = (val untraced t) in
  let events () =
    match t.current with Some sys -> Samhita.System.events sys | None -> 0
  in
  (* The clock is read last on entry and first on exit, so an inline
     interval holds little but the call itself and one clock read. *)
  let enter th layer =
    let fiber = D.thread_id th and events = events () in
    Attribution.enter att ~now:(now ()) ~events ~fiber layer
  in
  let exit th layer =
    let now = now () in
    Attribution.exit att ~now ~events:(events ()) ~fiber:(D.thread_id th)
      layer
  in
  (module struct
    include D

    let spawn sys body =
      D.spawn sys (fun th ->
          let fiber = D.thread_id th in
          Attribution.thread_start att ~now:(now ()) ~fiber;
          body th;
          Attribution.thread_end att ~now:(now ()) ~fiber)

    let run sys =
      Attribution.start att ~now:(now ());
      D.run sys;
      Attribution.finish att ~now:(now ())

    let malloc th ~bytes =
      enter th Alloc;
      let a = D.malloc th ~bytes in
      exit th Alloc;
      a

    let free th ~addr ~bytes =
      enter th Alloc;
      D.free th ~addr ~bytes;
      exit th Alloc

    let read_f64 th addr =
      enter th Access;
      let v = D.read_f64 th addr in
      exit th Access;
      v

    let write_f64 th addr v =
      enter th Access;
      D.write_f64 th addr v;
      exit th Access

    let charge_flops th n =
      enter th Account;
      D.charge_flops th n;
      exit th Account

    let charge_mem_ops th n =
      enter th Account;
      D.charge_mem_ops th n;
      exit th Account

    let now_ns th =
      enter th Account;
      let v = D.now_ns th in
      exit th Account;
      v

    let idle_until th instant =
      enter th Idle;
      D.idle_until th instant;
      exit th Idle

    let lock th m =
      enter th Sync;
      D.lock th m;
      exit th Sync

    let unlock th m =
      enter th Sync;
      D.unlock th m;
      exit th Sync

    let barrier_wait th b =
      enter th Sync;
      D.barrier_wait th b;
      exit th Sync

    let compute_ns th =
      enter th Account;
      let v = D.compute_ns th in
      exit th Account;
      v

    let sync_ns th =
      enter th Account;
      let v = D.sync_ns th in
      exit th Account;
      v

    let misses th =
      enter th Account;
      let v = D.misses th in
      exit th Account;
      v
  end)

let backend t =
  match t.tracer with None -> untraced t | Some tr -> traced t tr

let allocated_words () =
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Time one kernel call: set-up until its [System.run], run phase from
   there until it returns. Checks on the result happen outside. *)
let kernel t ~name f =
  let b = backend t in
  let a0 = allocated_words () in
  let t0 = now () in
  Option.iter (fun tr -> Spans.open_parent tr.spans ~name ~now:t0) t.tracer;
  let r = f b in
  let t1 = now () in
  Option.iter (fun tr -> Spans.close_parent tr.spans ~now:t1) t.tracer;
  t.alloc_words <- t.alloc_words +. (allocated_words () -. a0);
  t.setup_ns <- t.setup_ns + (t.run_started - t0);
  t.wall_ns <- t.wall_ns + (t1 - t.run_started);
  t.events <- t.events + Samhita.System.events (last_system t);
  r

(* Time a call whose set-up boundary is not visible from outside (the
   torture runner builds its systems internally): all of it is run
   phase. Returns the result and the call's host nanoseconds. *)
let opaque t f =
  let a0 = allocated_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () - t0 in
  t.alloc_words <- t.alloc_words +. (allocated_words () -. a0);
  t.wall_ns <- t.wall_ns + dt;
  (r, dt)

(* A full major collection before each repetition, so every one starts
   from the same heap; its cost is set-up. *)
let reset_heap t =
  let t0 = now () in
  Gc.full_major ();
  t.setup_ns <- t.setup_ns + (now () - t0)

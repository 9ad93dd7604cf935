(* A compute thread's context: the runtime it plugs into, its per-thread
   record, its clock, the probe emit sites and its metrics. The layers
   below {!Thread_ctx} — {!Round_trip}, {!Coherence_sc} and {!Sync} —
   open this module and work on these records directly. *)

(* The Sc_invalidate directory; {!Coherence_sc} alone reads and writes
   it. Per line, the exclusive owner or the sharers; per thread, the
   node and cache that recalls and invalidations act on. *)
type sc_peer = { p_node : Fabric.Network.node; p_cache : Cache.t }
type sc_line = { mutable owner : int option; sharers : Tset.t }

type sc_dir = {
  peers : (int, sc_peer) Hashtbl.t;
  lines : (int, sc_line) Hashtbl.t;
}

(* The shared runtime a thread plugs into, built once by {!System}; the
   fields are documented in thread_ctx.mli, which re-exports it. *)
type env = {
  cfg : Config.t;
  layout : Layout.t;
  engine : Desim.Engine.t;
  network : Fabric.Network.t;
  servers : Memory_server.t array;
  dir : Directory.t;
  cp : Control_plane.t;
  sc : sc_dir;
  probe : Probe.t option;
}

(* A held lock and its consistency-region store log (newest store
   first). *)
type region = {
  r_lock : Manager_shard.lock_id;
  mutable r_log : Update.t list;
}

type t = {
  id : int;
  e : env;
  node : Fabric.Network.node;
  cache : Cache.t;
  arena : Allocator.Arena.t;
  (* Local compute time not yet synchronized with the global clock. A
     one-element [floatarray] rather than a mutable float field: the field
     would box a fresh float on every store, and this is written on every
     memory access. *)
  accum : floatarray;
  (* Single-line fast path for the common repeated-hit case. It may
     outlive its entry (a prefetch delivery displaces clean victims with
     no callback), so every use first tests that the entry is still
     resident. *)
  mutable last : Cache.entry option;
  (* Held locks, innermost first. *)
  mutable held : region list;
  (* Last lock version integrated, per lock. *)
  lock_seen : (Manager_shard.lock_id, int) Hashtbl.t;
  (* Per-lock release sequence numbers: each release carries the next
     number so a shard-crash retry of the same release is recognized as a
     duplicate and not double-applied. *)
  release_seq : (Manager_shard.lock_id, int) Hashtbl.t;
  (* Lines this thread flushed as ordinary-region diffs (at consistency
     points or evictions) since its last barrier. Reported as write notices
     at the next barrier so every other thread invalidates its stale
     copies. *)
  interval_writes : (int, unit) Hashtbl.t;
  (* Scratch for {!Sync.flush_update_log}: line -> newest home version,
     reset before each use. *)
  merged : (int, int) Hashtbl.t;
  mutable m_compute : int;
  mutable m_sync : int;
  mutable m_alloc : int;
  mutable m_idle : int;
  mutable m_locks : int;
  mutable m_barriers : int;
  mutable m_failovers : int;
}

let create e ~id ~node =
  { id;
    e;
    node;
    cache = Cache.create e.cfg e.layout;
    arena = Allocator.Arena.create ();
    accum = Float.Array.make 1 0.;
    last = None;
    held = [];
    lock_seen = Hashtbl.create 8;
    release_seq = Hashtbl.create 8;
    interval_writes = Hashtbl.create 16;
    merged = Hashtbl.create 16;
    m_compute = 0;
    m_sync = 0;
    m_alloc = 0;
    m_idle = 0;
    m_locks = 0;
    m_barriers = 0;
    m_failovers = 0 }

let now t = Desim.Engine.now t.e.engine

let sync_clock t =
  if Float.Array.unsafe_get t.accum 0 > 0. then begin
    let d = Desim.Time.span_of_float_ns_at t.accum 0 in
    Float.Array.unsafe_set t.accum 0 0.;
    t.m_compute <- t.m_compute + d;
    Desim.Engine.delay d
  end

(* The thread's virtual instant: the global clock plus locally accumulated
   (not yet synchronized) cost. Open-loop load generators timestamp
   request starts and completions with this. *)
let now_ns t =
  Desim.Time.to_ns (now t)
  + Desim.Time.span_of_float_ns_at t.accum 0

(* Advance virtual time to at least [target] (ns since simulation start),
   accounting the gap as idle — neither compute nor sync — so a serving
   worker waiting for its next arrival does not distort either metric.
   Past instants are a no-op (the worker is already running behind). *)
let idle_until t target =
  if target > now_ns t then begin
    sync_clock t;
    let gap = target - Desim.Time.to_ns (now t) in
    if gap > 0 then begin
      t.m_idle <- t.m_idle + gap;
      Desim.Engine.delay gap
    end
  end

let server_of t line =
  t.e.servers.(Directory.server_of_line t.e.dir t.e.cfg ~line)

(* Probe emit sites: each tests the probe before it builds any argument
   (the boxed word, the region lookup, the borrowed line), so with no
   observer attached (the default) an event costs one branch on an
   immutable field and allocates nothing. *)

(* The consistency region a store belongs to: the innermost held lock. *)
let region t = match t.held with r :: _ -> r.r_lock | [] -> -1

let region_log t = match t.held with r :: _ -> r.r_log | [] -> []

(* Publication: the home's line now holds the merged bytes at [version];
   this is the instant the data becomes RegC-visible to later acquirers
   and barrier crossers. The buffer is borrowed (the server's live line). *)
let probe_publish t ~srv ~line ~version =
  match t.e.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_publish ~thread:t.id ~time:(now t)
      ~server:(Memory_server.id srv) ~line ~version
      ~data:(Memory_server.line srv line)

let probe_sync t op id =
  match t.e.probe with
  | None -> ()
  | Some p -> p.Probe.on_sync ~thread:t.id ~time:(now t) ~op ~id

let probe_barrier t ~barrier ~epoch phase =
  match t.e.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_barrier ~thread:t.id ~time:(now t) ~barrier ~epoch ~phase

let finish t = sync_clock t

let compute_ns t = t.m_compute
let sync_ns t = t.m_sync
let alloc_ns t = t.m_alloc
let idle_ns t = t.m_idle
let lock_acquires t = t.m_locks
let barrier_waits t = t.m_barriers
let failover_waits t = t.m_failovers

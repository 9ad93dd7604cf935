(** A Samhita compute thread: the runtime a thread's memory accesses and
    synchronization operations flow through.

    This module implements the protocol side of the paper:

    - {b Demand paging}: accesses go through the thread's software cache;
      a miss fetches the whole line from its home memory server and — with
      prefetching enabled — asynchronously requests the adjacent line.
    - {b Regional consistency}: stores issued while at least one mutex is
      held belong to a {e consistency region} and are logged fine-grained
      (standing in for the paper's LLVM store instrumentation); stores
      outside are {e ordinary} and tracked by twin + per-page dirty bits.
      Release flushes the region log to the homes and deposits it with the
      manager; acquire patches (or invalidates) stale cached lines; a
      barrier flushes ordinary diffs and exchanges write notices.
    - {b Virtual-time batching}: cached accesses accumulate cost locally;
      the thread synchronizes with the global clock only at protocol
      interactions, keeping simulation cost proportional to protocol
      events.

    Time accounting follows the paper's measurement split: miss stalls
    count as {e compute} time, lock/barrier/condvar operations as
    {e synchronization} time, allocation as its own bucket. *)

type t

type env = {
  cfg : Config.t;
  layout : Layout.t;
  engine : Desim.Engine.t;
  network : Fabric.Network.t;
  servers : Memory_server.t array;
  dir : Directory.t;
      (** Logical-to-physical stripe map; identity until a crash recovery
          promotes a backup ({!Directory}). *)
  cp : Control_plane.t;
      (** The sharded control plane; sync objects resolve to their shard
          per request, so a shard takeover is picked up transparently. *)
  sc : Coherence_sc.t;  (** Directory for the Sc_invalidate model. *)
  probe : Probe.t option;
      (** Protocol-event observers (sanitizer, torture oracle, checker
          footprint) folded into one; [None] (the default) costs one
          branch per event site. *)
}
(** Shared runtime a thread plugs into (built by {!System}). *)

val create : env -> id:int -> node:Fabric.Network.node -> t

val id : t -> int
val env : t -> env
val cache : t -> Cache.t
val endpoint : t -> Fabric.Scl.endpoint

(** {2 Memory access} *)

val read_f64 : t -> int -> float
(** Read the double at a byte address (8-aligned). *)

val write_f64 : t -> int -> float -> unit

val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit

val read_f32 : t -> int -> float
(** 4-byte float at a 4-aligned address. *)

val write_f32 : t -> int -> float -> unit
val read_i32 : t -> int -> int32
val write_i32 : t -> int -> int32 -> unit

val read_u8 : t -> int -> int
(** Single byte (0..255); no alignment requirement. *)

val write_u8 : t -> int -> int -> unit

val read_bytes : t -> int -> len:int -> bytes
(** Bulk copy out of the GAS, crossing line boundaries as needed; charges
    one cached-access cost per 8 bytes (plus any miss stalls). *)

val write_bytes : t -> int -> bytes -> unit
(** Bulk store; inside a consistency region the whole range is logged as
    fine-grained updates, otherwise it dirties the touched pages. *)

val charge : t -> float -> unit
(** Accumulate [ns] of pure compute cost (the workload's arithmetic). *)

val charge_flops : t -> int -> unit

val now_ns : t -> int
(** The thread's current virtual instant in nanoseconds: the global clock
    plus locally accumulated (not yet synchronized) cost. *)

val idle_until : t -> int -> unit
(** Advance virtual time to at least the given absolute instant (ns),
    accounting the gap as {e idle} time (neither compute nor sync). A
    target in the past is a no-op. Open-loop traffic generators use this
    to wait for the next pre-drawn arrival. *)

(** {2 Allocation} *)

val malloc : t -> bytes:int -> int
(** The three-strategy allocator: arena ([bytes <= small_threshold]),
    manager shared zone, or stripe-aligned large allocation. *)

val free : t -> addr:int -> bytes:int -> unit
(** Arena blocks are recycled thread-locally; shared-zone and large blocks
    are abandoned (the paper does not describe reclamation for them). *)

(** {2 Synchronization (with RegC consistency actions)} *)

val mutex_lock : t -> Manager_shard.lock_id -> unit
val mutex_unlock : t -> Manager_shard.lock_id -> unit
val barrier_wait : t -> Manager_shard.barrier_id -> unit

val cond_wait : t -> Manager_shard.cond_id -> Manager_shard.lock_id -> unit
(** Pthreads semantics: atomically releases the mutex and sleeps;
    re-acquires before returning. *)

val cond_signal : t -> Manager_shard.cond_id -> unit
val cond_broadcast : t -> Manager_shard.cond_id -> unit

val in_consistency_region : t -> bool

val held_locks : t -> Manager_shard.lock_id list
(** Locks the thread currently holds, innermost first. RegCCheck's
    deadlock detector combines this with {!Manager}'s waiter introspection
    to build the wait-for graph of a stalled branch. *)

(** {2 Lifecycle and accounting} *)

val finish : t -> unit
(** Flush residual local time into the metrics (call at thread-body end;
    {!System.spawn} does). Dirty cache lines are deliberately {e not}
    flushed: RegC makes writes visible at synchronization points only. *)

val compute_ns : t -> int
val sync_ns : t -> int
val alloc_ns : t -> int

val idle_ns : t -> int
(** Time spent parked in {!idle_until} waiting for traffic. *)

val lock_acquires : t -> int
val barrier_waits : t -> int

val failover_waits : t -> int
(** Times this thread hit a dead memory server or manager shard and re-ran
    the interaction through the directory / control plane (after parking
    for recovery if needed). *)

(** One shard of the Samhita control plane: memory allocation,
    synchronization and the RegC bookkeeping that synchronization carries
    (paper §II).

    Historically this was the singleton [Manager]; under
    {!Control_plane} it is one of N consistent-hash shards, each owning a
    slice of the locks/barriers/condvars (and their update-log histories),
    its own service resource, and its own slice of the lease monitoring.
    With one shard the behavior is byte-identical to the old singleton.

    The shard is passive simulation state; requesting threads mutate it
    during their interactions and charge time through the shard's service
    {!Desim.Resource} and the fabric. State transitions therefore execute
    in request-{e issue} order while timestamps model request-{e arrival}
    order; the two can transiently disagree under contention, which only
    permutes grant order among already-racing threads (any such order is
    legal) — documented in DESIGN.md.

    Timing contract: every operation takes [~now], the instant the shard
    {e finishes processing} the request (the caller reserved the service
    resource); replies to third parties (lock hand-off, barrier release,
    condvar signal) are scheduled by the shard itself as fabric transfers
    starting at [~now].

    Retry contract (shard crash): requests carry enough identity
    ([?seq] on release, [?epoch] on barrier arrival, the thread id on
    acquire) that a retry of a request whose original execution mutated
    state but whose reply was lost is recognized and answered without
    mutating twice. *)

type t

type lock_id = int
type barrier_id = int
type cond_id = int

(** What an acquiring thread must do to make lock-protected data current. *)
type grant_action =
  | Fresh  (** Acquirer already saw every release. *)
  | Patch of Update.t list * (int * int) list
      (** Apply these fine-grained updates to cached lines, then set the
          cached versions per the [(line, version)] list. *)
  | Notices of (int * int) list
      (** History insufficient: invalidate any cached line older than its
          [(line, version)] entry. *)

type grant = {
  lock_version : int;  (** Version the acquirer has seen after applying. *)
  action : grant_action;
  wire_bytes : int;  (** Size of the grant reply on the wire. *)
}

val create :
  Config.t -> Layout.t -> engine:Desim.Engine.t -> endpoint:Fabric.Scl.endpoint ->
  t

val endpoint : t -> Fabric.Scl.endpoint
val service : t -> Desim.Resource.t

(** {2 Allocation}

    Under the facade only shard 0 allocates (a single bump pointer keeps
    addresses identical to the unsharded build). *)

val alloc : t -> kind:[ `Arena_chunk | `Shared | `Large ] -> bytes:int -> int
(** Reserve GAS space: arena chunks are line-aligned, shared-zone requests
    8-byte aligned, large requests stripe-aligned. Returns the base
    address. *)

val gas_used : t -> int

(** {2 Mutual exclusion} *)

val lock_register : t -> id:lock_id -> unit
(** Create lock state under a facade-assigned id. *)

val lock_acquire :
  t -> now:Desim.Time.t -> lock:lock_id -> thread:int -> last_seen:int ->
  endpoint:Fabric.Scl.endpoint -> wake:(grant -> unit) ->
  [ `Granted of grant | `Queued ]
(** If free, grants immediately (caller models its own reply transfer). If
    held, queues the waiter; on hand-off the shard schedules the grant
    transfer and [wake] runs at its arrival. A retry by the current holder
    re-grants; a retry by an already-queued thread replaces the stale
    queued [wake]. *)

val lock_release :
  ?seq:int ->
  t -> now:Desim.Time.t -> lock:lock_id -> thread:int ->
  log:Update.t list -> line_versions:(int * int) list -> unit
(** Record the release: bumps the lock version, retains the release log
    (bounded history) for future acquirers, merges [line_versions] into the
    lock's notice map, and hands the lock to the next waiter if any.
    [?seq] is the releaser's per-lock release sequence number: a retry
    carrying an already-recorded [seq] is a no-op (shard-crash
    idempotence). Raises [Invalid_argument] if [thread] does not hold the
    lock. *)

val lock_holder : t -> lock_id -> int option
val lock_version : t -> lock_id -> int

(** {2 Blocking-state introspection}

    Read-only views of who holds and who queues on each sync object.
    RegCCheck's deadlock analysis walks these on a stalled branch to build
    the thread wait-for graph and print the cycle. *)

val lock_ids : t -> lock_id list
(** All locks ever created, ascending. *)

val lock_waiters : t -> lock_id -> int list
(** Thread ids queued on the lock, FIFO (next grantee first). *)

val barrier_ids : t -> barrier_id list
val barrier_parties : t -> barrier_id -> int

val barrier_blocked : t -> barrier_id -> int list
(** Thread ids parked in the current episode, ascending. *)

val cond_ids : t -> cond_id list

val cond_blocked : t -> cond_id -> int list
(** Thread ids parked on the condvar, FIFO. *)

(** {2 Barriers} *)

val barrier_register : t -> id:barrier_id -> parties:int -> unit

val barrier_arrive :
  ?epoch:int ->
  t -> now:Desim.Time.t -> barrier:barrier_id -> thread:int ->
  lines:int list -> endpoint:Fabric.Scl.endpoint ->
  wake:((int * Tset.t) list * int -> unit) ->
  [ `Released of (int * Tset.t) list * int | `Wait ]
(** Register arrival along with the lines this thread wrote (flushed) during
    the ending interval. The last arriver triggers the release: everyone
    receives the epoch's aggregated write notices as [(line, writers)]
    pairs ([`Released] for the caller, scheduled [wake]s for the rest, each
    carrying the reply wire size). A thread must invalidate any cached line
    whose writer set names a writer other than itself — with multiple
    writers, version equality does not imply content equality, only the
    home holds the merge. [?epoch] is the episode the caller arrives for;
    a retry for an already-released episode the thread participated in
    replays that episode's notices instead of joining the next one. *)

val barrier_epoch : t -> barrier_id -> int

(** {2 Condition variables} *)

val cond_register : t -> id:cond_id -> unit

val cond_wait :
  t -> cond:cond_id -> thread:int -> endpoint:Fabric.Scl.endpoint ->
  wake:(unit -> unit) -> unit
(** Register a waiter. The caller must have released the associated mutex
    first and must re-acquire it after [wake] (pthreads semantics). *)

val cond_signal : t -> now:Desim.Time.t -> cond:cond_id -> int
(** Wake one waiter (if any); returns the number woken. *)

val cond_broadcast : t -> now:Desim.Time.t -> cond:cond_id -> int

(** {2 Crash recovery}

    The control plane owns the lease-based failure detector (the monitor
    processes live in {!System}; they call these). *)

val note_heartbeat : t -> unit
(** One lease-renewal round trip to a memory server completed. *)

val note_lease_expired : t -> unit
(** A memory server's lease expired at this shard. Also bumps the shard's
    configuration epoch (see {!epoch}) — the epoch counts configuration
    changes, so a false suspicion bumps it too. *)

val epoch : t -> int
(** This shard's configuration epoch: the number of leases it has
    expired. Recovery stamps the directory slots and the promoted
    replica with it; traffic resolved under an older epoch is fenced
    ({!Directory.Stale_epoch}). *)

val replay :
  t -> servers:Memory_server.t array -> dead:int ->
  promoted:int -> probe:Probe.t option -> now:Desim.Time.t -> int
(** Replay this shard's surviving update-log entries onto promoted server
    [promoted] for any line homed on logical server [dead] whose replica is
    behind its published version (publishing each replayed line through
    [probe] with thread [-1]). Returns the number of replayed entries. *)

val absorb : t -> from:t -> now:Desim.Time.t -> int * int
(** Shard takeover: move every sync object of dead shard [from] into this
    shard and re-drive [from]'s stranded reply pushes from this shard's
    endpoint. Returns [(objects_moved, pushes_redriven)]. *)

val heartbeats : t -> int
val leases_expired : t -> int
val replayed_updates : t -> int

(** {2 Wire-size helpers} *)

val acquire_request_wire : int
val release_wire : log:Update.t list -> line_versions:(int * int) list -> int
val notice_wire : ('a * 'b) list -> int
val ack_wire : int
val heartbeat_wire : int

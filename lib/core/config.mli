(** Samhita runtime configuration.

    One record gathers every knob: address-space geometry, cache policy,
    allocator thresholds, the RegC protocol options, the cost model used to
    charge simulated time, and the cluster layout. [default] reflects the
    paper's testbed (Section III): dual quad-core 2.8 GHz Penryn nodes on
    QDR InfiniBand, one memory server, one manager node. *)

(** Which consistency engine drives the runtime. *)
type model =
  | Regc  (** The paper's regional consistency (default). *)
  | Sc_invalidate
      (** IVY-style sequential consistency: single writer per line,
          write-invalidate with recalls — the comparison strawman for the
          [abl-sc] ablation. *)

(** Which pairs a partitioned memory server loses (gray-failure
    injection). *)
type partition_scope =
  | Isolate
      (** The victim is unreachable from {e everyone}: clients stall and
          park until the heal; the lease monitor falsely suspects it. *)
  | Control
      (** Only the manager-shard nodes lose the victim: clients still
          reach it while its lease expires — the zombie-primary scenario
          the epoch fence exists for. *)

(** The run's one injected failure: a run holds at most one, which is
    the single-failure model. Every injection is [Regc]-only; times are
    simulated nanoseconds. *)
type fault =
  | Crash_server of { server : int; at_ns : int }
      (** Fail-stop: memory server [server] (its fabric node) is dead
          from [at_ns] on. Survivable only with [replication = 1]. *)
  | Crash_shard of { shard : int; at_ns : int }
      (** Fail-stop for the control plane: manager shard [shard] is dead
          from [at_ns] on and its ring successor takes over its slice.
          Requires [manager_shards >= 2] and [shard >= 1] (shard 0 hosts
          allocation). *)
  | Partition_server of {
      server : int;
      scope : partition_scope;
      start_ns : int;
      heal_ns : int;
    }
      (** Gray failure: [server]'s node is unreachable (per [scope])
          inside [\[start_ns, heal_ns)], then heals. Unlike a crash the
          victim keeps executing — its lease expires ({e false}
          suspicion), the backup is promoted under a new epoch and stale
          traffic to/from the zombie is fenced. After the heal the zombie
          stays failed and fenced for the rest of the run: no slot maps
          to it again. Requires [replication = 1]. *)

type t = {
  model : model;
  (* Address-space geometry *)
  page_bytes : int;  (** Must be a power of two. *)
  pages_per_line : int;
      (** Cache lines span multiple pages (paper §II); power of two, and
          [pages_per_line <= 62] so a dirty bitmask fits an [int]. *)
  (* Software cache *)
  cache_lines : int;  (** Per-thread cache capacity, in lines. *)
  evict_dirty_first : bool;
      (** Paper §II: eviction is biased toward pages that have been written. *)
  prefetch : bool;
      (** Anticipatory paging: on a miss, asynchronously request the
          adjacent line. *)
  (* Allocator *)
  small_threshold : int;
      (** Requests at or below this size come from per-thread arenas. *)
  large_threshold : int;
      (** Requests above this size are stripe-aligned across servers. *)
  arena_chunk_bytes : int;  (** Granularity of arena refills (line-aligned). *)
  stripe_lines : int;
      (** Consecutive lines per server before the home rotates. *)
  (* RegC protocol *)
  update_log_history : int;
      (** Release logs retained per lock for fine-grained patching of
          acquirers; older acquirers fall back to invalidation. *)
  manager_bypass : bool;
      (** Paper §V (future work): on a single compute node, synchronize
          locally instead of a manager round trip. *)
  (* Cost model, nanoseconds *)
  t_mem : float;  (** Per cached (hit) memory access. *)
  t_flop : float;  (** Per floating-point operation. *)
  server_service : Desim.Time.span;
      (** Memory-server software handling per request (user-level DSM). *)
  manager_service : Desim.Time.span;  (** Manager handling per request. *)
  diff_apply_ns_per_byte : float;
      (** Cost at a server to create/apply a byte of diff or update. *)
  (* Cluster layout *)
  memory_servers : int;
  threads_per_node : int;  (** Compute threads hosted per compute node. *)
  fabric : Fabric.Profile.t;
  seed : int;
  sanitize : bool;
      (** Attach a RegCSan analyzer ({!Analysis.Regcsan}) to every thread:
          all reads, writes, allocations and sync edges stream into a
          happens-before race detector and RegC-conformance linter. Off by
          default; when off the runtime pays a single branch per access. *)
  fault_level : Fabric.Faults.level;
      (** Fabric fault injection (torture harness): jitter, cross-pair
          reordering and bounded transient drops, all seeded from [seed].
          [Off] by default — no policy is attached and the fabric is
          byte-exact with the seed build. *)
  shuffle : bool;
      (** Schedule fuzzing (torture harness): permute same-instant event
          order in the engine with a tie-break seeded from [seed], instead
          of the default FIFO. One [(seed, shuffle)] pair is one fully
          deterministic, replayable schedule. *)
  (* Crash fault tolerance *)
  replication : int;
      (** Replication factor for memory-server state: 0 (off, default) or
          1 (primary-backup — every [apply_diff]/[apply_update] is
          synchronously mirrored to the next server, charging fabric and
          service time). Requires [memory_servers >= 2] and the [Regc]
          model. *)
  lease_interval : Desim.Time.span;
      (** Heartbeat period of the lease-based failure detector, one
          monitor on shard 0's node (active when [replication >= 1] or
          [manager_shards >= 2]). A server or shard that fails to answer
          a heartbeat within {!Fabric.Scl.dead_retry_budget}
          retransmissions has its lease expired and recovery begins. *)
  (* Control plane *)
  manager_shards : int;
      (** Number of control-plane shards (default 1 — the classic single
          manager, byte-identical to the unsharded build). Locks, barriers,
          condition variables and pages are assigned to shards by the
          consistent-hash ring ({!Hash_ring}); each shard owns its slice of
          lock state and update logs. Shard 0 also owns the global
          address-space allocator and hosts the failure detector. *)
  (* Failure injection *)
  fault : fault option;
      (** The injected failure, if any. [None] (default) leaves the
          fabric byte-exact with the seed build when [fault_level] is
          also [Off]. *)
}

val max_threads : int
(** Cap on compute threads per system (512). Sharer/writer sets are
    {!Tset} bitmaps, so the cap is a resource bound, not a representation
    limit; {!System.create} enforces it. *)

val default : t

val validate : t -> (unit, string) result
(** Check geometric and layout invariants; returned error names the first
    violated one. *)

val line_bytes : t -> int
val line_shift : t -> int
(** [log2 (line_bytes t)]. *)

val scope_name : partition_scope -> string

val pp : Format.formatter -> t -> unit

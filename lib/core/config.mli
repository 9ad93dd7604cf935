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
  coalesce_updates : bool;
      (** Merge a consistency-region store into the head of the region log
          when it exactly overwrites it or extends it contiguously (e.g. a
          counter updated in place, adjacent fields written in order).
          Replayed oldest-first the log yields the same memory, but fewer
          records travel at release — so wire bytes and simulated service
          times shift. Off by default to keep figure outputs identical to
          the seed build. *)
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
  crash_server : (int * int) option;
      (** Fail-stop crash injection: [(server, instant_ns)] kills memory
          server [server] (its fabric node) from that simulated instant
          on. Survivable only with [replication = 1]; [Regc] model only.
          [None] (default) leaves the fabric byte-exact with the seed
          build when [fault_level] is also [Off]. *)
  lease_interval : Desim.Time.span;
      (** Heartbeat period of the manager's lease-based failure detector
          (only active when [replication >= 1]). A server that fails to
          answer a heartbeat within {!Fabric.Scl.dead_retry_budget}
          retransmissions has its lease expired and recovery begins. *)
  (* Control plane *)
  max_threads : int;
      (** Validated cap on compute threads per system (default 512).
          Sharer/writer sets are {!Tset} bitmaps, so the cap is a resource
          bound, not a representation limit; {!System.create} enforces
          it. *)
  manager_shards : int;
      (** Number of control-plane shards (default 1 — the classic single
          manager, byte-identical to the unsharded build). Locks, barriers,
          condition variables and pages are assigned to shards by the
          consistent-hash ring ({!Hash_ring}); each shard owns its slice of
          lock state, update logs and lease monitoring. Shard 0 also owns
          the global address-space allocator. *)
  home_migration : bool;
      (** Migrate a page's home server toward its dominant writer, decided
          seed-deterministically from per-shard write counters (default
          off). [Regc] model only. *)
  migration_window : int;
      (** Writes observed per line between home-migration decisions
          (default 32). *)
  crash_shard : (int * int) option;
      (** Fail-stop crash injection for the control plane:
          [(shard, instant_ns)] kills manager shard [shard] (its fabric
          node) from that simulated instant on. Requires
          [manager_shards >= 2] and [shard >= 1] (shard 0 hosts
          allocation); mutually exclusive with [crash_server]
          (single-failure model). The ring successor takes over the dead
          shard's slice. *)
  (* Gray failures *)
  partition_server : (int * partition_scope * int * int) option;
      (** Gray-failure injection: [(server, scope, start_ns, heal_ns)]
          makes memory server [server]'s node unreachable (per [scope])
          inside the window [\[start_ns, heal_ns)], then heals. Unlike
          [crash_server] the victim keeps executing — its lease expires
          ({e false} suspicion), the backup is promoted under a new
          epoch, stale traffic to/from the zombie is fenced, and after
          the heal it rejoins as the backup via an epoch-stamped resync.
          Requires [replication = 1] and the [Regc] model; mutually
          exclusive with crash injection (single-failure model). [None]
          (default) keeps every output byte-identical to the seed
          build. *)
  stall_server : (int * int * int) option;
      (** [(server, start_ns, heal_ns)]: every delivery touching the
          server's node inside the window pays a constant multi-RTT
          penalty ({!Fabric.Faults.stall_penalty_ns}), then heals. The
          detector counts lost attempts, not lateness, so a stall
          perturbs latency without expiring the lease — "slow" stays
          distinguishable from "gone". [Regc] model only. *)
}

val default : t

val validate : t -> (unit, string) result
(** Check geometric and layout invariants; returned error names the first
    violated one. *)

val line_bytes : t -> int
val line_shift : t -> int
(** [log2 (line_bytes t)]. *)

val model_name : model -> string

val scope_name : partition_scope -> string
val scope_of_string : string -> (partition_scope, string) result

val pp : Format.formatter -> t -> unit

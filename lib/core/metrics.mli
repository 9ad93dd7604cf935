(** Per-thread and aggregated run metrics (the quantities the paper's
    figures plot). *)

type thread = {
  thread_id : int;
  compute_ns : int;  (** Compute-loop time including miss stalls. *)
  sync_ns : int;  (** Time in lock/unlock/barrier/condvar operations. *)
  alloc_ns : int;
  idle_ns : int;
      (** Time parked in {!Thread_ctx.idle_until} waiting for open-loop
          traffic arrivals; 0 for the compute kernels. *)
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  lock_acquires : int;
  barrier_waits : int;
}

val of_ctx : Thread_ctx.t -> thread

type aggregate = {
  threads : int;
  mean_compute_ns : float;
  max_compute_ns : int;
  mean_sync_ns : float;
  max_sync_ns : int;
  mean_alloc_ns : float;
  total_misses : int;
  total_invalidations : int;
  wall_ns : int;  (** Simulated makespan of the run. *)
}

val aggregate : wall_ns:int -> thread list -> aggregate

val of_system : System.t -> aggregate
(** Convenience: collect every spawned thread after {!System.run}. *)

(** The counter records below are always collected: each
    [*_of_system] is total, and a feature the run did not configure
    leaves its counters at zero (an unsharded run reports [shards = 1]).
    Which of them a report prints is decided by {!pp_report} alone. *)

(** Fabric fault-injection counters ({!Fabric.Faults}): messages the
    policy perturbed, and retransmissions the SCL retry layer issued. *)
type faults = {
  delayed : int;  (** Messages given latency jitter. *)
  reordered : int;  (** Messages given a reorder-scale extra delay. *)
  dropped : int;  (** Messages dropped in flight (later retried). *)
  retried : int;  (** Retransmissions issued by {!Fabric.Scl}. *)
}

val faults_of_system : System.t -> faults
(** Zeros when the run had no fault policy attached. *)

(** Crash-fault-tolerance counters: primary-backup mirroring, the lease
    monitor's failure detection, and the recovery protocol's work. *)
type replication = {
  mirrored_writes : int;  (** Writes synchronously mirrored to a backup. *)
  mirror_bytes : int;  (** Payload bytes shipped primary-to-backup. *)
  degraded_writes : int;
      (** Writes acked unreplicated because the backup was dead. *)
  dead_sends : int;  (** Messages swallowed by a crashed destination. *)
  heartbeats : int;  (** Lease renewals the monitor completed. *)
  leases_expired : int;  (** Failure detections (at most 1 per run). *)
  promotions : int;  (** Backup promotions performed by recovery. *)
  replayed_updates : int;
      (** Logged updates re-applied to the promoted replica. *)
  failover_waits : int;
      (** Thread interactions that hit a dead server and re-ran. *)
}

val replication_of_system : System.t -> replication

(** Failure-detection quality counters, meaningful for gray-failure
    runs: how often the lease detector fired, how often it was wrong, how
    much stale traffic the epoch fence rejected. A crash run counts its
    lease expiry as a (true) suspicion. *)
type detection = {
  suspicions : int;  (** Lease expiries: servers the detector suspected. *)
  false_suspicions : int;
      (** Suspected servers that were in fact alive (gray failure). *)
  fenced_messages : int;
      (** Round trips rejected by the epoch fence (Stale_epoch). *)
  rejoins : int;
      (** Always 0: a suspected server never comes back; a healed zombie
          stays fenced for the rest of the run. The field stays only
          because perfbench's [detect.rejoins] metric reads it; drop
          both together. *)
}

val detection_of_system : System.t -> detection

val add_detection : detection -> detection -> detection
(** Field-wise sum, for totals over several runs. *)

(** Sharded-control-plane counters: inter-shard failure detection and
    shard takeover. *)
type control = {
  shards : int;
  shard_heartbeats : int;  (** Inter-shard lease renewals completed. *)
  takeovers : int;  (** Shard failures absorbed (at most 1 per run). *)
  absorbed_objects : int;  (** Sync objects moved to the takeover shard. *)
  redriven_pushes : int;  (** Stranded reply pushes re-driven at takeover. *)
}

val control_of_system : System.t -> control

val pp_thread : Format.formatter -> thread -> unit
val pp_aggregate : Format.formatter -> aggregate -> unit
val pp_faults : Format.formatter -> faults -> unit

val pp_report : Format.formatter -> System.t -> unit
(** Post-run report of a finished run: makespan, fabric traffic, address
    space, manager and per-server activity and utilisation, the counter
    lines of the features the run configured, cache hit rate, per-thread
    time split and cache behaviour. A counter line prints exactly when its
    feature is on: [fault injection] with a fault policy ([fault_level]
    on or a failure injected), [fault tolerance] with replication or an
    injected crash, [failure detection] with a partition, and
    [control plane] with more than one manager shard. *)

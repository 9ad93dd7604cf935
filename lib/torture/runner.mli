(** RegCTorture: seeded exploration of the protocol state space.

    Each seed is one fully deterministic run: the seed derives a system
    geometry (line size, cache capacity, server/thread layout, protocol
    knobs), a schedule-fuzzing tie-break ([Config.shuffle]) and a fabric
    fault policy ([Config.fault_level]) — then drives a {!kernel} with the
    {!Oracle} attached and the result checksummed against the kernel's
    sequential reference. Running a seed twice must produce bit-identical
    event streams; {!run} verifies that for every seed. *)

type kernel = Micro | Jacobi | Kv | Racy
(** [Kv] tortures the serving scenario: seed-derived shard count, key
    skew and offered rate; checked for exact final versions against the
    request stream ({!Workload.Kv.lost_writes}) and for per-client
    session guarantees ({!Oracle.check_kv_history}). *)

val kernel_name : kernel -> string
val kernel_of_string : string -> (kernel, string) result

(** The one injected failure a seed derives (single-failure model):
    - [Crash]: a replicated geometry (primary-backup, short leases) and a
      fail-stop crash of one seed-chosen memory server at a seed-chosen
      instant; the oracle also checks the post-recovery invariants.
    - [Crash_shard]: a sharded control plane (2..4 manager shards) and a
      fail-stop crash of one seed-chosen non-zero shard; the ring
      successor absorbs the dead shard's sync objects mid-run and every
      oracle invariant must hold across the takeover.
    - [Partition]: a replicated geometry and a {e gray failure} — one
      server partitioned over a bounded window (scope seed-chosen between
      [Isolate] and [Control]), long enough that its lease falsely
      expires; the oracle also checks the fencing invariants (no
      split-brain, no lost acked write across the false suspicion). The
      healed zombie stays fenced for the rest of the run. *)
type mode = Plain | Crash | Crash_shard | Partition

val mode_of_flags :
  crash:bool -> crash_shard:bool -> partition:bool -> (mode, string) result
(** The mode the public flags name; an error when more than one is set. *)

type outcome = {
  o_seed : int;
  o_wall_ns : int;
  o_events : int;
  o_reads_checked : int;
  o_digest : int;
  o_violations : Oracle.violation list;
  o_trace : string list;  (** Oracle trace tail, oldest first. *)
  o_faults : Samhita.Metrics.faults;
  o_promotions : int;  (** Backup promotions (crash and partition modes). *)
  o_takeovers : int;  (** Shard takeovers (shard-crash mode). *)
  o_detect : Samhita.Metrics.detection;
      (** Failure-detection counters (false suspicions are partition
          mode's). *)
  o_fault_trace : string list;
      (** The fabric fault policy's event ring (drops, reorders,
          partition blocks — each with its instant), oldest first; the
          injection context printed with a failing seed. *)
}

val run_one :
  ?crash:bool ->
  ?crash_shard:bool ->
  ?partition:bool ->
  kernel:kernel -> level:Fabric.Faults.level -> seed:int -> unit -> outcome
(** One deterministic torture run. Deadlock ([Desim.Engine.Stalled]) and
    kernel crashes are reported as violations, never raised. The flags
    (all default off) select the {!mode} via {!mode_of_flags}; setting
    more than one raises [Invalid_argument]. *)

type summary = {
  s_kernel : kernel;
  s_level : Fabric.Faults.level;
  s_runs : int;
  s_events : int;
  s_reads_checked : int;
  s_faults : Samhita.Metrics.faults;  (** Summed over all runs. *)
  s_promotions : int;  (** Backup promotions summed over all runs. *)
  s_takeovers : int;  (** Shard takeovers summed over all runs. *)
  s_detect : Samhita.Metrics.detection option;
      (** Failure-detection counters summed over all runs; [None] outside
          partition mode. *)
  s_failures : outcome list;  (** Seeds with at least one violation. *)
}

val run :
  ?replay_check:bool ->
  ?crash:bool ->
  ?crash_shard:bool ->
  ?partition:bool ->
  kernel:kernel ->
  level:Fabric.Faults.level ->
  seeds:int -> base_seed:int -> unit -> summary
(** Torture [seeds] consecutive seeds starting at [base_seed]. With
    [replay_check] (default on) every seed runs twice and any divergence
    in digest, event count or makespan is itself a ["nondeterminism"]
    violation. [crash], [crash_shard] and [partition] are passed through
    to {!run_one}. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Failing-seed report: violations then the trace tail. *)

val pp_summary : Format.formatter -> summary -> unit

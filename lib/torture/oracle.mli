(** The torture harness's linearizable-memory oracle.

    A shadow of the global address space fed by a {!Samhita.Probe}: every
    home-side merge (diff or update-log application) is recorded as a
    {e publication}, and every word-sized [read] is checked against the
    set of RegC-legal values for its address —

    - the initial zero,
    - any value this thread itself stored there (program order), or
    - any value ever published at the word (RegC permits reading stale
      published data absent a happens-before edge; the {e full} history,
      not just the newest value, is legal).

    A read outside this set means protocol corruption: a diff clobbered a
    concurrent writer's bytes, a patch applied garbage, a fetch raced a
    merge. Words touched by sub-word or bulk stores are tainted and
    skipped (their legality is not word-expressible); lost updates are
    caught structurally by the runner's kernel-checksum comparison.

    {!finalize} adds end-of-run invariants: no twin/dirty residue in any
    cache (a consistency point must clean what it flushes), home lines
    bit-identical to their last observed publication (nothing mutates a
    home unprobed), balanced barrier episodes, and allocator sanity
    (overlap, invalid free) accumulated during the run.

    Every event also folds into a stream {!digest}, so two runs of one
    seed can be compared bit-for-bit, and into a bounded trace ring whose
    {!trace_tail} contextualizes a failure. *)

type violation = {
  v_class : string;  (** e.g. ["illegal-read"], ["twin-leak"], ["deadlock"]. *)
  v_message : string;
}

type t

val create : config:Samhita.Config.t -> unit -> t

val probe : t -> Samhita.Probe.t

val attach : t -> Samhita.System.t -> unit
(** [Samhita.System.add_probe] with this oracle's {!probe}; call from the
    backend's [on_create] (before any spawn). *)

val note_violation : t -> v_class:string -> string -> unit
(** Record a violation found outside the probe stream (checksum mismatch,
    deadlock, nondeterminism) so one report carries everything. *)

val finalize : t -> Samhita.System.t -> unit
(** Run the end-of-run invariant checks against the finished system. *)

val check_kv_history : t -> Workload.Kv.event array -> unit
(** Check a KV serving history (per-worker processing order, which
    embeds per-client program order) for the session guarantees the
    sharded-lock protocol must provide: {e read-your-writes} (a client's
    Get never returns a version older than its own last acked Put to
    that key) and {e monotonic reads} (the versions a client observes
    for a key never decrease). Violations are recorded with classes
    ["kv-read-your-writes"] and ["kv-monotonic-reads"]. *)

val violations : t -> violation list
(** All violations, in detection order. *)

val events : t -> int
(** Probe events observed. *)

val crashes : t -> int
(** Fail-stop crash detections observed (0 or 1 today). *)

val recoveries : t -> int
(** Completed recoveries observed. {!finalize} checks each one for
    version-consistent promotion and no lost acknowledged write. A
    publication routed through a deposed primary after its recovery is
    flagged as ["split-brain"] as it happens. *)

val takeovers : t -> int
(** Shard takeovers observed (0 or 1). Each is recorded in the trace
    tail; none changes {!events} or {!digest}. *)

val reads_checked : t -> int
(** Word reads actually checked against the legality set (i.e. excluding
    tainted words) — a vacuity guard for tests. *)

val digest : t -> int
(** Order-sensitive fold over the whole event stream; equal digests mean
    the two runs observed identical event sequences. *)

val trace_tail : t -> string list
(** The last events (bounded ring), oldest first — the minimized context
    printed with a failing seed. *)

(** Seeded fabric fault injection for the torture harness.

    A policy attached to a {!Network} perturbs message timing and injects
    transient losses, all driven by one {!Desim.Rng} stream so a run is a
    pure function of its seed:

    - {b jitter}: per-message extra latency, sub-RTT scale;
    - {b reorder}: occasional multi-RTT delays, long enough that traffic
      on {e other} (src,dst) pairs overtakes. Within one pair delivery
      order is preserved (clamped monotonic), matching a
      reliable-connection QP — RegC never depends on cross-pair order;
    - {b drop}: transient losses, bounded to at most
      [max_consecutive_drops] in a row per (src,dst) pair, so the
      retry/timeout/backoff loop in {!Scl.reliable_transfer} always
      terminates;
    - {b partition} (gray failure): a victim node is unreachable from a
      peer set for a bounded window, then heals. Unlike [crash], the
      victim keeps executing — it can be falsely suspected and fenced.

    Counters record what was injected; {!Samhita.Metrics} and its run
    report surface them, and {!trace_tail} yields a bounded
    event trace with instants for failing-seed artifacts. *)

type level = Off | Low | Medium | High

val level_name : level -> string
val level_of_string : string -> (level, string) result

type t

(** The run's one node-level failure (single-failure model).
    - [Crash]: fail-stop — [node] is dead from [at] on (it neither sends
      nor receives; see {!node_dead}).
    - [Partition]: inside [[start, heal)] every transmission between
      [victim] and a node in [peers] ([peers = []] meaning {e everyone})
      fails with [`Unreachable victim]. The victim keeps executing
      throughout, and the window heals. *)
type injection =
  | Crash of { node : int; at : Desim.Time.t }
  | Partition of {
      victim : int;
      peers : int list;
      start : Desim.Time.t;
      heal : Desim.Time.t;
    }

val create : ?injection:injection -> seed:int -> level:level -> unit -> t

val node_dead : t -> node:int -> at:Desim.Time.t -> bool
(** Whether the crash spec has [node] dead at instant [at]. Pure in time —
    callers evaluating eagerly-computed timing chains may ask about any
    instant, past or future. *)

val unreachable_peer : t -> src:int -> dst:int -> at:Desim.Time.t -> int option
(** If the (src,dst) pair is blocked by an open partition window at [at],
    the victim node the sender should blame (always the partitioned node,
    never the other endpoint — so escalation suspects the right server no
    matter which leg of a round trip hit the wall). Pure in time, like
    {!node_dead}. *)

val note_unreachable : t -> src:int -> dst:int -> at:Desim.Time.t -> unit
(** A transmission hit a closed partition at instant [at] (recorded by
    {!Network.try_transfer}); appends it to the trace. *)

val note_dead_send : t -> unit
(** A transmission was addressed to a node that is dead at the send
    instant (recorded by {!Network.try_transfer}). *)

val should_drop : ?at:Desim.Time.t -> t -> src:int -> dst:int -> bool
(** Decide (one RNG draw when the level drops at all) whether this
    transmission is lost. Tracks per-pair consecutive drops and refuses to
    exceed the level's bound. [at], when given, timestamps the trace
    entry; it never affects the decision. *)

val perturb : t -> src:int -> dst:int -> arrival:Desim.Time.t -> Desim.Time.t
(** Jitter/reorder a delivered message's arrival instant and clamp to
    the pair's delivery-order floor. Also resets the pair's
    consecutive-drop budget. *)

val note_retry : t -> unit
(** A sender retransmitted after a timeout (called by
    {!Scl.reliable_transfer}). *)

val retry_jitter : t -> src:int -> dst:int -> attempt:int -> int
(** Seeded backoff jitter in ns (0–1023): a pure hash of (seed, src, dst,
    attempt), no RNG draw. Distinct senders' retries of the same attempt
    land at distinct instants, so a heal does not release a synchronized
    retry stampede, yet the schedule stays a pure function of the seed. *)

val trace_tail : t -> string list
(** The most recent injected fault events (drops, reorders, unreachable
    sends) with instants, oldest first, bounded to a fixed-size ring; a
    leading marker notes how many earlier events were elided. Lets a
    failing-seed artifact carry the fault schedule, not just the seed. *)

val messages_delayed : t -> int
val messages_reordered : t -> int
val messages_dropped : t -> int
val messages_retried : t -> int
val messages_dead : t -> int

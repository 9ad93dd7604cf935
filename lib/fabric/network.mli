(** A fabric instance: a set of nodes joined either through a central
    switch (cluster) or directly (host + coprocessor on one bus).

    Every node owns a full-duplex pair of links (transmit and receive), so
    simultaneous transfers contend exactly where the hardware would: at the
    initiator's injection port and the target's delivery port. *)

type node = int
(** Node identifier in [\[0, node_count)]. *)

type t

val create :
  ?faults:Faults.t -> Desim.Engine.t -> profile:Profile.t ->
  node_count:int -> t
(** [faults] attaches a fault-injection policy: every non-loopback
    {!transfer} is jittered/reordered by it, and {!try_transfer} may drop. *)

val engine : t -> Desim.Engine.t
val profile : t -> Profile.t
val node_count : t -> int

val faults : t -> Faults.t option

val transfer :
  t -> now:Desim.Time.t -> src:node -> dst:node -> bytes:int -> Desim.Time.t
(** Book a [bytes]-sized message from [src] to [dst] entering the fabric at
    [now]; returns the arrival instant at [dst]. Includes the initiator's
    post overhead, per-message header bytes, queueing on both ports and
    propagation latency. A loopback ([src = dst]) models an intra-node copy:
    post overhead plus memcpy bandwidth, no fabric crossing. *)

val try_transfer :
  t -> now:Desim.Time.t -> src:node -> dst:node -> bytes:int ->
  [ `Delivered of Desim.Time.t
  | `Dropped
  | `Node_dead of node
  | `Unreachable of node ]
(** Like {!transfer}, but subject to the fault policy's transient drops,
    fail-stop crashes and partitions. [`Dropped] means the message
    occupied the injection port and was lost; the sender must time out
    and retransmit ({!Scl.reliable_transfer}). [`Node_dead n] means an
    endpoint is dead at the send instant: a dead destination swallows the
    message (it still occupied the injection port), a dead source cannot
    transmit at all. Deadness is evaluated at the send instant, so
    in-flight traffic outlives its sender. [`Unreachable n] means an open
    partition window blocks the pair: both endpoints are alive, the
    message occupied the injection port and died at the wall, and [n] is
    the partitioned victim the sender should blame (whichever leg hit the
    wall). Without an attached {!Faults.t} (and on loopbacks) this always
    delivers. *)

val one_way_estimate : t -> bytes:int -> Desim.Time.span
(** Uncontended transfer time for a message of this size (for tests and
    back-of-envelope assertions). *)

val messages : t -> int
val bytes_carried : t -> int

val tx_link : t -> node -> Link.t
val rx_link : t -> node -> Link.t

(** The wire table: every message size the simulator charges to the
    fabric model, in bytes (the fabric adds its own per-message header).
    These are protocol constants, not [Config] fields. No other module in
    [lib/core] but the reference {!Diff_reference} spells a size
    ([scripts/lint_wire.sh]); PROTOCOL.md cites these names.

    Two asymmetries are kept, because changing either moves simulated
    instants and golden rows:
    - an eviction flush is answered with {!diff_ack} alone, a
      consistency-point batch with {!batch_ack}, 12 B more per entry;
    - an update-log flush reserves server service on its wire bytes
      ({!update_log_service}), a diff flush on payload bytes only. *)

(** {2 Fixed messages} *)

val fetch_request : int
(** 32: a line fetch to its home, or an SC home's recall or invalidation
    request to a peer. *)

val diff_ack : int
(** 24: the home's reply to an eviction flush, an update-log flush or an
    SC writeback. *)

val alloc_request : int
val alloc_reply : int
(** 32 and 16: an allocation round trip to shard 0. *)

val cond_request : int
(** 32: a condvar wait notification, signal or broadcast. *)

val ack : int
(** 16: a release, mirror or heartbeat ack, a condvar wake, an SC
    invalidation ack or upgrade reply. *)

val acquire_request : int
(** 48: a lock acquire, carrying the lock and [last_seen]. *)

val heartbeat : int
(** 24: a lease-monitor ping. *)

(** {2 Formulas} *)

val line_reply : Layout.t -> int
(** A whole line + 32: a fetch reply, an SC recall or writeback. *)

val mirror : payload:int -> int
(** A primary-to-backup mirror: payload + 32. *)

val update_log : 'a list -> int
(** An update log: 12 B framing + the 8-byte word per entry. *)

val update_log_service : 'a list -> int
(** The service size of an update-log flush: its {!update_log} wire size. *)

val notices : 'a list -> int
(** 12 per (line, version) or (line, writer set) notice. *)

val diff : spans:int -> payload:int -> int
(** One line's diff: 16 + 12 per span + payload. *)

val batch_ack : 'a list -> int
(** The reply to a consistency-point diff batch: {!diff_ack} + 12 per
    entry. *)

val barrier_arrive : 'a list -> int
(** A barrier arrival: 32 + 8 per written line. *)

val barrier_release : 'a list -> int
(** The release pushed to each arriver: {!ack} + {!notices}. *)

val release : log:'a list -> line_versions:'b list -> int
(** A lock release: {!ack} + {!update_log} + {!notices} of the home
    versions it produced. *)

val grant : log:'a list -> line_versions:'b list -> int
(** A lock grant: 48 + its patch's {!update_log} and {!notices} (both
    empty when fresh; a notices-only grant passes [~log:[]]). *)

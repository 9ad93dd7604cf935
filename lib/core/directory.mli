(** Logical-to-physical stripe map for crash fault tolerance.

    {!Home.server_of_line} computes the {e logical} home of a line; this
    module maps logical servers to the physical {!Memory_server} currently
    serving them. The map is derived from the one failure the model
    allows: healthy systems carry the identity map; after a fail-stop
    crash the manager's recovery protocol {!promote}s the dead server's
    backup, and from then on the dead server's own slot — the only one
    that moves — maps to that backup, so every subsequent fetch/flush
    lands on the promoted replica without the threads knowing the
    topology changed. *)

type t

exception Stale_epoch
(** A round trip resolved its target under an epoch that moved before the
    reply landed (a promotion happened mid-flight, or the requester is a
    zombie-side stale hint). The protocol layer treats it like a bounced
    request: re-resolve via the directory and re-run — never apply. *)

val create : Config.t -> t

val physical_of_logical : t -> int -> int
(** Physical server index currently serving a logical stripe slot. *)

val server_of_line : t -> Config.t -> line:int -> int
(** [physical_of_logical] composed with {!Home.server_of_line}. *)

val backup_of : t -> int -> int
(** Primary-backup placement: the backup of server [i] is [(i + 1) mod
    memory_servers]. *)

val failed : t -> int -> bool
(** Whether this physical server has been declared dead {e and} recovery
    has already repointed the map (threads observing [Scl.Node_dead]
    before that must park via [Control_plane.park]). *)

val promote : t -> dead:int -> int
(** Declare physical server [dead] failed: its slot now maps to its
    backup under epoch 1. Returns the promoted physical index. Raises
    [Invalid_argument] on a second failure (single-failure model). *)

val promotions : t -> int
(** 0, or 1 once {!promote} ran. *)

(** {2 Epochs and fencing}

    The configuration epoch is the recovery protocol's defense against
    gray failures: the promotion bumps it from 0 to 1, and the dead
    server's slot carries the new epoch, so traffic resolved under the
    old mapping — a zombie primary's acks, a stale client's cached hint —
    is detectably stale. All zero until a promotion; healthy runs never
    fence. *)

val epoch : t -> int
(** Current configuration epoch (0 until the promotion, then 1). *)

val epoch_of : t -> logical:int -> int
(** Epoch under which this logical slot's current mapping was installed.
    Clients capture it before a round trip and fence the reply if it
    moved. *)

val note_fenced : t -> unit
(** Count a fenced message without raising (the asynchronous prefetch
    path, which aborts its pending slot instead of unwinding). *)

val fence : t -> logical:int -> epoch:int -> unit
(** Validate a completed round trip: if [logical]'s slot epoch no longer
    equals the [epoch] captured at send time, count the fenced message
    and raise {!Stale_epoch} — the caller must re-resolve and re-run
    before any state mutates. *)

(** {2 Failure-detection accounting} *)

val note_suspicion : t -> unit
(** A lease expired: the detector suspects a server. *)

val note_false_suspicion : t -> unit
(** The suspected server was not crash-dead — a gray failure fooled the
    detector. *)

val suspicions : t -> int
val false_suspicions : t -> int
val fenced : t -> int

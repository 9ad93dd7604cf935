(** What a scheduling interval touched: the dependence alphabet of
    RegCCheck's partial-order reduction.

    A {e scheduling interval} is everything the simulator executes between
    two consecutive choice points. Its footprint records global-memory
    words read and written (by 8-byte word index), synchronization objects
    (by kind and id) and serially-reusable facilities touched (by
    {!Desim.Resource.id} — reservation order on a resource decides
    completion times, so two intervals queueing on one facility are
    dependent), and the compute threads that acted. Two intervals
    {e conflict} when some word is written by one and touched by the
    other, or when their sync/facility sets intersect; only conflicting
    intervals can justify exploring a reordering. *)

type t

val create : unit -> t

val universal : unit -> t
(** A footprint that conflicts with everything (conservative fallback,
    e.g. for crash-injection intervals). *)

val add_read : t -> thread:int -> addr:int -> unit
(** The word at byte address [addr]. *)

val add_write : t -> thread:int -> addr:int -> unit

type sync = Lock | Barrier | Cond

val add_sync : t -> thread:int -> sync -> int -> unit
(** A synchronization object, e.g. [Lock] 3; treated as read-write. *)

val add_resource : t -> int -> unit
(** A facility reservation, by resource id (no thread attribution —
    reservations fire in manager/network thunks too). *)

val add_thread : t -> int -> unit
val set_global : t -> unit

val conflict : t -> t -> bool

val sync_conflict : t -> t -> bool
(** Conflict through sync objects, facilities, or a global footprint —
    i.e. a dependence the vector-clock happens-before oracle does not
    cover (clocks order only thread-attributed memory accesses). *)

val threads : t -> int list
(** Threads that executed in the interval, ascending. *)

(** The SMP node's physical memory and its MESI-flavoured coherence cost
    model.

    Data lives in one flat byte store (hardware shared memory really is
    one store). Per 64-byte line the model tracks which threads hold a
    copy and which one, if any, holds it modified; each access returns the
    nanosecond cost the initiating core would pay. State updates happen in
    program-issue order — the usual virtual-time-batching approximation,
    which is exact at synchronization granularity. *)

type t

val create : Config.t -> t

val alloc : t -> bytes:int -> align:int -> int
(** Bump allocation; grows the store on demand. *)

val read_cost : t -> thread:int -> addr:int -> float
(** Account a read by [thread] of the line holding [addr]; returns ns. *)

val write_cost : t -> thread:int -> addr:int -> float

val read_f64 : t -> int -> float
(** Raw data access (no costing) — used after costing, and by tests. *)

val write_f64 : t -> int -> float -> unit
val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit

val coherence_misses : t -> int
val invalidations : t -> int
val cold_misses : t -> int

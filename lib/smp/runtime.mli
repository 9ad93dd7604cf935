(** The Pthreads-like runtime over the simulated SMP node.

    Threads are simulation processes using virtual-time batching: memory
    accesses and arithmetic accumulate cost locally; only synchronization
    operations interact with the event queue. Time accounting matches the
    DSM side: compute vs synchronization, so the two backends plot on the
    same axes. *)

type system
type thread
type mutex
type barrier

val create : ?config:Config.t -> threads:int -> unit -> system
(** Raises [Invalid_argument] if [threads] exceeds
    [Config.max_threads] (a single node is all the hardware there is). *)

val mutex : system -> mutex
val barrier : system -> parties:int -> barrier

val spawn : system -> (thread -> unit) -> thread
val run : system -> unit
val elapsed : system -> Desim.Time.t

(** {2 Thread operations} *)

val thread_id : thread -> int
val malloc : thread -> bytes:int -> int
(** 64-byte aligned, so separate allocations never share a coherence
    line (glibc-arena-style behaviour, and what makes "local allocation"
    false-sharing-free on the baseline too). *)

val read_f64 : thread -> int -> float
val write_f64 : thread -> int -> float -> unit
val read_i64 : thread -> int -> int64
val write_i64 : thread -> int -> int64 -> unit
val charge : thread -> float -> unit
val charge_flops : thread -> int -> unit

val now_ns : thread -> int
(** The thread's current virtual instant (global clock plus accumulated
    local cost), in nanoseconds. *)

val idle_until : thread -> int -> unit
(** Advance virtual time to at least the given absolute instant,
    accounting the gap as neither compute nor sync; past instants are a
    no-op. *)

val lock : thread -> mutex -> unit
val unlock : thread -> mutex -> unit
val barrier_wait : thread -> barrier -> unit

val compute_ns : thread -> int
val sync_ns : thread -> int

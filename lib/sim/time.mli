(** Simulated time.

    All simulation time is an integer number of nanoseconds since the start
    of the simulation. Spans (durations) share the representation. 63-bit
    integers give ~292 simulated years, far beyond any experiment here. *)

type t = private int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds. Durations are plain ints so cost models can
    do arithmetic without friction. *)

val zero : t
val of_ns : int -> t
val to_ns : t -> int

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is [a - b] in nanoseconds. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val compare : t -> t -> int
val max : t -> t -> t

val ns : int -> span
val us : int -> span
val ms : int -> span
val s : int -> span

val span_of_float_ns : float -> span
(** Round a float nanosecond duration to the nearest integer span, never
    below zero. This is the one rounding rule; the three functions below
    apply it without their caller boxing a float. *)

val span_of_rate : bytes:int -> bytes_per_s:float -> span
(** Time to move [bytes] at [bytes_per_s]:
    [span_of_float_ns (float bytes /. bytes_per_s *. 1e9)]. Pass a rate
    already stored in a record, so the call allocates nothing. *)

val span_of_units : units:int -> ns_per_unit:float -> span
(** Cost of [units] at [ns_per_unit] each:
    [span_of_float_ns (float units *. ns_per_unit)]. *)

val span_of_float_ns_at : floatarray -> int -> span
(** [span_of_float_ns (Float.Array.get a i)], reading the float in place
    rather than receiving it boxed. *)

val to_float_s : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)

val pp_span : Format.formatter -> span -> unit

(** Metric accumulators used throughout the simulator. *)

module Counter : sig
  type t
  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

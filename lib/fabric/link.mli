(** A point-to-point link: propagation latency + serialization bandwidth,
    with FCFS occupancy (queueing) via a {!Desim.Resource}. *)

type t

val create :
  Desim.Engine.t -> latency:Desim.Time.span -> bandwidth_bytes_per_s:float ->
  t
(** Its resource is the engine's next (see {!Desim.Resource.id}). *)

val latency : t -> Desim.Time.span

val occupy : t -> now:Desim.Time.t -> bytes:int -> Desim.Time.t
(** Book the link for a transfer arriving at its head at [now]; returns the
    instant the last byte {e arrives at the far end} (start-of-service
    queueing + serialization + propagation latency). *)

val bytes_carried : t -> int
val transfers : t -> int
val busy_time : t -> Desim.Time.span

(** A serially-reusable facility (a link, a NIC port, a server's service
    loop) modeled by next-free-time bookkeeping.

    Jobs occupy the resource back to back: a job arriving at [now] starts at
    [max now free_at] and completes [duration] later. This captures queueing
    delay and contention without dedicating a process to the facility, at
    the cost of FCFS-only service order (which is what the modeled hardware
    does anyway). *)

type t

val create : ?name:string -> unit -> t

val name : t -> string

val reserve : t -> now:Time.t -> duration:Time.span -> Time.t
(** Book the next slot; returns the completion instant. [now] must be
    monotonically consistent with simulation time (callers reserve at their
    current instant). *)

val set_observer : (t -> unit) option -> unit
(** Install ([Some]) or clear ([None]) a module-wide reservation observer,
    called at the start of every {!reserve} with the resource being
    reserved. RegCCheck uses this to record which facilities a scheduling
    interval queues on: reservation order among same-instant events decides
    completion times, so two intervals reserving the same resource are
    dependent for partial-order reduction. Resources are identified by
    {!name}, which {!Samhita} assigns uniquely per system and
    deterministically across re-executions. Set around a checked run and
    clear afterwards. *)

val jobs : t -> int
(** Number of jobs served so far. *)

val busy_time : t -> Time.span
(** Total time spent serving jobs. *)

val utilization : t -> horizon:Time.t -> float
(** [busy_time / horizon], the classic utilization estimate. *)

val reset : t -> unit

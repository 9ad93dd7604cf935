(** A serially-reusable facility (a link, a NIC port, a server's service
    loop) modeled by next-free-time bookkeeping.

    Jobs occupy the resource back to back: a job arriving at [now] starts at
    [max now free_at] and completes [duration] later. This captures queueing
    delay and contention without dedicating a process to the facility, at
    the cost of FCFS-only service order (which is what the modeled hardware
    does anyway). *)

type t

val create : Engine.t -> t
(** A fresh, idle resource of the engine, which numbers it (see {!id}). *)

val id : t -> int
(** The resource's number within its engine: resources are numbered 0,
    1, 2, … in creation order, so a system built the same way numbers its
    facilities the same way in every run. *)

val reserve : t -> now:Time.t -> duration:Time.span -> Time.t
(** Book the next slot; returns the completion instant. [now] must be
    monotonically consistent with simulation time (callers reserve at their
    current instant). The engine's reservation hook
    ({!Engine.set_on_reserve}), if any, is called first with {!id}. *)

val jobs : t -> int
(** Number of jobs served so far. *)

val busy_time : t -> Time.span
(** Total time spent serving jobs. *)

val utilization : t -> horizon:Time.t -> float
(** [busy_time / horizon], the classic utilization estimate. *)

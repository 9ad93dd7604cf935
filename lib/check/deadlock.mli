(** Wait-for analysis of a stalled branch.

    When a controlled run raises {!Desim.Engine.Stalled}, the system is
    frozen mid-deadlock: the manager still knows who holds and who queues
    on every lock, barrier and condition variable. This module rebuilds
    the thread wait-for graph from that state ({!Samhita.Manager_shard}'s
    blocking-state introspection) and extracts the lock cycle if one
    exists — the classic ABBA diagnosis — plus any barrier or condvar
    parking that explains a cycle-free stall. *)

type edge = { waiter : int; holder : int; lock : Samhita.Manager_shard.lock_id }

type t = {
  edges : edge list;  (** All lock wait-for edges. *)
  cycle : edge list option;  (** A cycle, if the lock graph has one. *)
  barriers : (Samhita.Manager_shard.barrier_id * int list * int) list;
      (** Incomplete episodes: (barrier, parked threads, parties). *)
  conds : (Samhita.Manager_shard.cond_id * int list) list;
      (** Condvars with parked threads. *)
}

val analyze : Samhita.System.t -> t

val pp : Format.formatter -> t -> unit

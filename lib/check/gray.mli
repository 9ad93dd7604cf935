(** GrayCheck: exhaustive exploration of suspicion-vs-heal interleavings.

    A small explicit-state model of the epoch-fenced recovery protocol —
    two memory servers (primary and backup), one client issuing a bounded
    sequence of replicated writes, a lease detector that may falsely
    suspect the primary while a partition holds, and the heal. A deposed
    zombie never comes back: after the heal it stays fenced.
    Unlike the simulator-backed {!Checker}, the state here is abstract
    (per-server value/version registers and protocol control bits), so
    {e every} interleaving of client sends/deliveries with the suspect
    and heal events is explored — including the boundary cases a
    seeded sweep only samples: suspicion landing exactly at the heal, a
    write in flight across the promotion, a zombie serving after it was
    deposed.

    Invariants checked on every path:
    - {e no split-brain}: once recovery deposes the primary, no delivery
      may apply there (the epoch fence must reject it);
    - {e no lost acked write}: at every terminal state the current
      primary holds the last acknowledged write.

    The model can be explored with the epoch fence disabled
    ([~fence:false]) as a negative control: the same exploration must
    then find split-brain counterexamples, proving the invariant checks
    are not vacuous. *)

(** The partition [scope] is the simulator's
    {!Samhita.Config.partition_scope}: [Isolate] blocks the victim from
    everyone (client deliveries to it park until promotion or heal);
    [Control] blocks only the control plane (the client can still reach
    the zombie primary — fencing is load-bearing). *)
type result = {
  g_scope : Samhita.Config.partition_scope;
  g_fence : bool;
  g_writes : int;  (** Writes in the bounded client sequence. *)
  g_states : int;  (** Distinct states visited. *)
  g_transitions : int;  (** Transitions executed (including fences). *)
  g_terminals : int;  (** Quiescent terminal states checked. *)
  g_fenced : int;  (** Deliveries rejected by the epoch fence. *)
  g_defects : (string * string list) list;
      (** Invariant violations: message and the transition trace (oldest
          first) that reaches the violating state. Bounded. *)
}

val explore :
  ?fence:bool ->
  scope:Samhita.Config.partition_scope ->
  writes:int ->
  unit ->
  result
(** Exhaust every interleaving. [fence] defaults to [true]; [writes]
    must be 1..4 (the state space is exponential in it). *)

val pp_result : Format.formatter -> result -> unit

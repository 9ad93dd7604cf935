(** SCL — the Samhita Communication Layer.

    The paper abstracts the interconnect behind SCL, a direct-memory-access
    style interface (mapping naturally onto InfiniBand verbs). This module
    is that interface for the simulated fabric. A peer is addressed by its
    fabric node ({!Network.node}): every memory server, manager shard and
    compute thread holds the node it runs on. The core is
    {!reliable_transfer}, a pure timing computation of one retransmitted
    message; the protocol layers compose their round trips from it, each
    charging the target's service loop (a {!Desim.Resource}) between the
    request and reply legs. *)

(** {2 Reliable delivery under fault injection} *)

exception Node_dead of Network.node * Desim.Time.t
(** [Node_dead (n, give_up)] — the peer [n] is {e suspected} fail-stop
    dead: {!reliable_transfer} exhausted its retry budget against a node
    that swallowed every attempt, because it is crash-dead
    ([`Node_dead]) or because a partition window blocks the pair
    ([`Unreachable]). The two are indistinguishable on the wire — that
    is the gray-failure point; a suspicion against a partitioned victim
    is {e false} and the epoch fence (see PROTOCOL.md) keeps it safe.
    [give_up] is the send instant of the final (failed) attempt, i.e.
    the earliest time the sender can know; all the timeouts paid along
    the way are included. *)

val dead_retry_budget : int
(** Retransmissions paid before {!reliable_transfer} escalates to
    {!Node_dead} ([dead_retry_budget + 1] transmissions in total). Larger
    than any level's [max_consecutive_drops], so a live peer never gets
    declared dead. *)

val reliable_transfer :
  Network.t -> now:Desim.Time.t -> src:Network.node -> dst:Network.node ->
  bytes:int -> Desim.Time.t
(** Arrival instant of a message that is retransmitted on loss: each
    attempt may be dropped by the network's {!Faults} policy; the sender
    times out after ~one round trip (doubling per attempt, capped, plus
    seeded per-(src,dst,attempt) jitter — {!Faults.retry_jitter} — so
    concurrent senders' retry instants diverge instead of stampeding)
    and retries. With no fault policy this is exactly {!Network.transfer}.
    Pure timing computation — callable outside a process, like
    [Network.transfer]. The protocol layers ({!Samhita.Thread_ctx},
    {!Samhita.Manager_shard}) route every protocol message through this,
    which is what makes RegC survive transient loss.

    @raise Node_dead when a peer is fail-stop dead and the retry
    budget is exhausted. *)

val retry_timeout : Network.t -> bytes:int -> attempt:int -> Desim.Time.span
(** The timeout before retransmission number [attempt + 1] (exposed for
    tests). *)

val max_backoff_shift : int
(** Cap on the exponential backoff: {!retry_timeout} stops doubling at
    attempt [max_backoff_shift] (a [2^max_backoff_shift] multiple of the
    attempt-0 timeout) and stays constant for every later attempt. *)

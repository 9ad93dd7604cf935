(** The sharded control plane: N {!Manager_shard}s behind one facade.

    Sync objects get facade-global ids assigned to shards by the
    consistent-hash ring ({!Hash_ring}); allocation is pinned to shard 0
    (one bump pointer keeps GAS addresses identical to the unsharded
    build). A logical-to-physical shard map mirrors {!Directory}'s server
    map: after a shard crash the ring successor absorbs the dead shard's
    slice ({!Manager_shard.absorb}) and the map repoints, so requesters
    re-resolve object ids and land on the takeover shard. With
    [manager_shards = 1] every path degenerates to the classic singleton
    manager, byte-for-byte. *)

type t

val create :
  Config.t -> engine:Desim.Engine.t -> shards:Manager_shard.t array ->
  nodes:int array -> t
(** [nodes.(s)] is the fabric node hosting (logical) shard [s]. *)

val shard_count : t -> int
val shard : t -> int -> Manager_shard.t
val shards : t -> Manager_shard.t array

val shard_for : t -> int -> Manager_shard.t
(** The shard {e currently} serving sync object [id] (ring lookup, then
    the logical-to-physical map). *)

val alloc_shard : t -> Manager_shard.t
(** The shard owning the GAS bump pointer (shard 0, or its takeover). *)

(** {2 Sync-object creation} (facade-global ids) *)

val mutex_create : t -> Manager_shard.lock_id
val barrier_create : t -> parties:int -> Manager_shard.barrier_id
val cond_create : t -> Manager_shard.cond_id

(** {2 Shard-crash takeover} *)

val shard_failed : t -> int -> bool
(** Whether this logical shard has been declared dead {e and} takeover
    already repointed the map. *)

val any_shard_failed : t -> bool

val shard_node_of : t -> int -> int option
(** Reverse-map a fabric node to the logical shard hosted there (for
    classifying [Scl.Node_dead]). *)

val await_shard_recovery : t -> wake:(unit -> unit) -> unit
(** Park a blocked requester's wake callback until shard takeover
    completes. *)

val note_shard_heartbeat : t -> unit

val recover_shard : t -> dead:int -> now:Desim.Time.t -> int * int * int
(** Declare logical shard [dead] failed: the ring successor absorbs its
    slice, the map repoints, stranded reply pushes are re-driven and
    parked requesters rescheduled. Returns
    [(takeover, objects_moved, pushes_redriven)]. Raises
    [Invalid_argument] on a second failure or for shard 0. *)

(** {2 Memory-server recovery} *)

val recover_server :
  t -> dir:Directory.t -> servers:Memory_server.t array -> dead:int ->
  probe:Probe.t option -> now:Desim.Time.t -> detecting:int -> int * int
(** The sharded [promote -> replay -> wake] path: promote the backup
    once, replay every shard's surviving update logs (ascending shard,
    then lock id), wake the parked threads once. [detecting] is the
    shard whose lease monitor detected the failure. Returns
    [(promoted, replayed_entries)]. The detecting shard's lease expiry
    bumps its configuration epoch; promotion stamps the directory and
    the promoted replica with it ({!Directory.epoch}), fencing the
    suspected server's stale traffic. *)

val rejoin_server :
  t -> dir:Directory.t -> servers:Memory_server.t array -> zombie:int ->
  probe:Probe.t option -> now:Desim.Time.t -> int * int
(** A falsely suspected server answered a post-heal probe: stamp it with
    the current epoch and resync it back in as the backup it already
    ring-wires to — an epoch-stamped diff against the live primary's
    versions (only lines that primary currently serves, only where the
    zombie is behind), modeled as a zero-latency background copy.
    Returns [(primary_backed, lines_copied)]
    and fires [Probe.on_rejoin]. *)

(** {2 Aggregated counters} *)

val gas_used : t -> int
val heartbeats : t -> int
val leases_expired : t -> int
val replayed_updates : t -> int
val shard_heartbeats : t -> int
val takeovers : t -> int
val absorbed_objects : t -> int
val redriven_pushes : t -> int

val service_utilization : t -> horizon:Desim.Time.t -> float
(** Mean utilization across shard service resources (equals the
    singleton's utilization with one shard). *)

val service_jobs : t -> int

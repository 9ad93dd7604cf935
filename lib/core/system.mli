(** Assembling a Samhita instance: fabric, memory servers, control plane
    and compute threads (Figure 1 of the paper).

    Node layout mirrors the testbed: node 0 runs manager shard 0, nodes
    [1 .. memory_servers] run memory servers, compute threads pack onto
    subsequent nodes, [threads_per_node] per node (so threads on one node
    share that node's fabric ports, contending exactly where an 8-core
    Penryn node's HCA would), and manager shards [1 .. N-1] occupy
    trailing nodes when [Config.manager_shards > 1]. With
    [Config.manager_bypass] the (single) manager shard is co-located with
    the first compute node — the paper's §V single-node optimization —
    turning synchronization round trips into loopbacks. *)

type t

val create : ?config:Config.t -> threads:int -> unit -> t
(** Build a system able to host [threads] compute threads. Raises
    [Invalid_argument] if the configuration fails {!Config.validate} or if
    [threads] exceeds {!Config.max_threads}. *)

val config : t -> Config.t
val layout : t -> Layout.t
val engine : t -> Desim.Engine.t
val network : t -> Fabric.Network.t

val control_plane : t -> Control_plane.t
(** The sharded control plane facade (a single shard by default). *)

val manager : t -> Manager_shard.t
(** Shard 0 — the full control plane when [manager_shards = 1]. *)

val servers : t -> Memory_server.t array

val directory : t -> Directory.t
(** The logical-to-physical stripe map (identity until a crash recovery
    promotes a backup). *)

val sanitizer : t -> Analysis.Regcsan.t option
(** The RegCSan instance observing this system, when
    [Config.sanitize] is set; {!create} subscribes it to the probe stream.
    Query it after {!run} for findings. *)

val add_probe : t -> Probe.t -> unit
(** Subscribe a protocol-event observer ({!Probe.t}); the torture oracle
    and RegCCheck's footprint recorder subscribe through this. Observers
    receive each event in attach order, the sanitizer (if any) first.
    Must be called before the first {!spawn} (raises [Invalid_argument]
    otherwise) so every thread sees it. *)

val mutex : t -> Manager_shard.lock_id
(** Create a mutex (setup-time operation; no simulated cost). *)

val barrier : t -> parties:int -> Manager_shard.barrier_id
val cond : t -> Manager_shard.cond_id

val spawn : t -> (Thread_ctx.t -> unit) -> Thread_ctx.t
(** Create the next compute thread and schedule its body as a simulation
    process. The body runs when {!run} drains the engine;
    {!Thread_ctx.finish} is called on completion automatically. *)

val threads : t -> Thread_ctx.t list
(** Spawned threads, in id order. *)

val finished_threads : t -> int
(** Threads whose bodies have returned. RegCCheck compares this against
    the spawn count to detect a stall when the run is bounded by a time
    horizon instead of queue drain (crash mode, where the lease monitor
    keeps the queue non-empty). *)

val run : t -> unit
(** Drive the simulation to completion. *)

val elapsed : t -> Desim.Time.t
(** Simulated makespan so far. *)

val events : t -> int
(** Simulation events executed so far ({!Desim.Engine.events}) — the
    numerator of the events/sec throughput metric. *)

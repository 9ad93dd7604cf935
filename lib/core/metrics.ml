type thread = {
  thread_id : int;
  compute_ns : int;
  sync_ns : int;
  alloc_ns : int;
  idle_ns : int;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  lock_acquires : int;
  barrier_waits : int;
}

let of_ctx ctx =
  let cache = Thread_ctx.cache ctx in
  { thread_id = Thread_ctx.id ctx;
    compute_ns = Thread_ctx.compute_ns ctx;
    sync_ns = Thread_ctx.sync_ns ctx;
    alloc_ns = Thread_ctx.alloc_ns ctx;
    idle_ns = Thread_ctx.idle_ns ctx;
    hits = Cache.hits cache;
    misses = Cache.misses cache;
    evictions = Cache.evictions cache;
    invalidations = Cache.invalidations cache;
    lock_acquires = Thread_ctx.lock_acquires ctx;
    barrier_waits = Thread_ctx.barrier_waits ctx }

type aggregate = {
  threads : int;
  mean_compute_ns : float;
  max_compute_ns : int;
  mean_sync_ns : float;
  max_sync_ns : int;
  mean_alloc_ns : float;
  total_misses : int;
  total_invalidations : int;
  wall_ns : int;
}

let aggregate ~wall_ns ts =
  let n = List.length ts in
  if n = 0 then invalid_arg "Metrics.aggregate: no threads";
  let fmean f = List.fold_left (fun a t -> a +. float_of_int (f t)) 0. ts
                /. float_of_int n in
  let imax f = List.fold_left (fun a t -> max a (f t)) 0 ts in
  let isum f = List.fold_left (fun a t -> a + f t) 0 ts in
  { threads = n;
    mean_compute_ns = fmean (fun t -> t.compute_ns);
    max_compute_ns = imax (fun t -> t.compute_ns);
    mean_sync_ns = fmean (fun t -> t.sync_ns);
    max_sync_ns = imax (fun t -> t.sync_ns);
    mean_alloc_ns = fmean (fun t -> t.alloc_ns);
    total_misses = isum (fun t -> t.misses);
    total_invalidations = isum (fun t -> t.invalidations);
    wall_ns = wall_ns }

let of_system sys =
  aggregate
    ~wall_ns:(Desim.Time.to_ns (System.elapsed sys))
    (List.map of_ctx (System.threads sys))

type faults = {
  delayed : int;
  reordered : int;
  dropped : int;
  retried : int;
}

let faults_of_system sys =
  match Fabric.Network.faults (System.network sys) with
  | None -> { delayed = 0; reordered = 0; dropped = 0; retried = 0 }
  | Some f ->
    { delayed = Fabric.Faults.messages_delayed f;
      reordered = Fabric.Faults.messages_reordered f;
      dropped = Fabric.Faults.messages_dropped f;
      retried = Fabric.Faults.messages_retried f }

type replication = {
  mirrored_writes : int;
  mirror_bytes : int;
  degraded_writes : int;
  dead_sends : int;
  heartbeats : int;
  leases_expired : int;
  promotions : int;
  replayed_updates : int;
  failover_waits : int;
}

let replication_of_system sys =
  let servers = System.servers sys in
  let cp = System.control_plane sys in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 servers in
  { mirrored_writes = sum Memory_server.mirrors;
    mirror_bytes = sum Memory_server.mirror_bytes;
    degraded_writes = sum Memory_server.degraded_writes;
    dead_sends =
      (match Fabric.Network.faults (System.network sys) with
       | None -> 0
       | Some f -> Fabric.Faults.messages_dead f);
    heartbeats = Control_plane.heartbeats cp;
    leases_expired = Directory.suspicions (System.directory sys);
    promotions = Directory.promotions (System.directory sys);
    replayed_updates = Control_plane.replayed_updates cp;
    failover_waits =
      List.fold_left
        (fun a t -> a + Thread_ctx.failover_waits t)
        0 (System.threads sys) }

type detection = {
  suspicions : int;  (** Lease expiries: servers the detector suspected. *)
  false_suspicions : int;
      (** Suspected servers that were in fact alive (gray failure). *)
  fenced_messages : int;
      (** Round trips rejected by the epoch fence (Stale_epoch). *)
  rejoins : int;  (** Always 0; see metrics.mli. *)
}

let detection_of_system sys =
  let dir = System.directory sys in
  { suspicions = Directory.suspicions dir;
    false_suspicions = Directory.false_suspicions dir;
    fenced_messages = Directory.fenced dir;
    rejoins = 0 }

let add_detection a b =
  { suspicions = a.suspicions + b.suspicions;
    false_suspicions = a.false_suspicions + b.false_suspicions;
    fenced_messages = a.fenced_messages + b.fenced_messages;
    rejoins = 0 }

type control = {
  shards : int;
  shard_heartbeats : int;  (** Inter-shard lease renewals completed. *)
  takeovers : int;  (** Shard failures absorbed (at most 1 per run). *)
  absorbed_objects : int;  (** Sync objects moved to the takeover shard. *)
  redriven_pushes : int;  (** Stranded reply pushes re-driven at takeover. *)
}

let control_of_system sys =
  let cp = System.control_plane sys in
  { shards = Control_plane.shard_count cp;
    shard_heartbeats = Control_plane.shard_heartbeats cp;
    takeovers = Control_plane.takeovers cp;
    absorbed_objects = Control_plane.absorbed_objects cp;
    redriven_pushes = Control_plane.redriven_pushes cp }

let pp_control ppf c =
  Format.fprintf ppf
    "control: shards=%d shard-heartbeats=%d takeovers=%d absorbed=%d \
     redriven=%d"
    c.shards c.shard_heartbeats c.takeovers c.absorbed_objects
    c.redriven_pushes

let pp_replication ppf r =
  Format.fprintf ppf
    "replication: mirrors=%d (%d B) degraded=%d dead-sends=%d heartbeats=%d \
     leases-expired=%d promotions=%d replayed=%d failover-waits=%d"
    r.mirrored_writes r.mirror_bytes r.degraded_writes r.dead_sends
    r.heartbeats r.leases_expired r.promotions r.replayed_updates
    r.failover_waits

let pp_detection ppf d =
  Format.fprintf ppf
    "detection: suspicions=%d false-suspicions=%d fenced=%d"
    d.suspicions d.false_suspicions d.fenced_messages

let pp_faults ppf f =
  Format.fprintf ppf "faults: delayed=%d reordered=%d dropped=%d retried=%d"
    f.delayed f.reordered f.dropped f.retried

let pp_thread ppf t =
  Format.fprintf ppf
    "t%d: compute=%a sync=%a alloc=%a hits=%d misses=%d evict=%d inval=%d \
     locks=%d barriers=%d"
    t.thread_id Desim.Time.pp (Desim.Time.of_ns t.compute_ns) Desim.Time.pp
    (Desim.Time.of_ns t.sync_ns) Desim.Time.pp
    (Desim.Time.of_ns t.alloc_ns) t.hits t.misses t.evictions
    t.invalidations t.lock_acquires t.barrier_waits;
  (* Idle time exists only for serving workloads; the kernels' report
     lines stay byte-identical. *)
  if t.idle_ns > 0 then
    Format.fprintf ppf " idle=%a" Desim.Time.pp (Desim.Time.of_ns t.idle_ns)

let pp_aggregate ppf a =
  Format.fprintf ppf
    "%d threads: compute mean=%a max=%a, sync mean=%a max=%a, misses=%d \
     inval=%d, wall=%a"
    a.threads Desim.Time.pp
    (Desim.Time.of_ns (int_of_float a.mean_compute_ns))
    Desim.Time.pp
    (Desim.Time.of_ns a.max_compute_ns)
    Desim.Time.pp
    (Desim.Time.of_ns (int_of_float a.mean_sync_ns))
    Desim.Time.pp
    (Desim.Time.of_ns a.max_sync_ns)
    a.total_misses a.total_invalidations Desim.Time.pp
    (Desim.Time.of_ns a.wall_ns)

(* The one place that decides which counter lines a run prints: each
   section appears only when its feature is configured, so healthy,
   unreplicated and unsharded reports stay byte-identical with the seed
   build. The counters themselves are always collected. *)
let pp_report ppf sys =
  let cfg = System.config sys in
  let wall = System.elapsed sys in
  let net = System.network sys in
  let cp = System.control_plane sys in
  let crash, gray =
    match cfg.Config.fault with
    | Some (Config.Crash_server _ | Config.Crash_shard _) -> (true, false)
    | Some (Config.Partition_server _) -> (false, true)
    | None -> (false, false)
  in
  let threads = System.threads sys in
  let metrics = List.map of_ctx threads in
  let hits = List.fold_left (fun a t -> a + t.hits) 0 metrics in
  let misses = List.fold_left (fun a t -> a + t.misses) 0 metrics in
  Format.fprintf ppf "@[<v>== run report ==@,";
  Format.fprintf ppf "makespan            %a@," Desim.Time.pp wall;
  Format.fprintf ppf "fabric              %d messages, %d bytes (%.2f MB)@,"
    (Fabric.Network.messages net)
    (Fabric.Network.bytes_carried net)
    (float_of_int (Fabric.Network.bytes_carried net) /. 1e6);
  Format.fprintf ppf "global addr space   %d bytes reserved@,"
    (Control_plane.gas_used cp);
  Format.fprintf ppf "manager             %d requests, %.1f%% utilized@,"
    (Control_plane.service_jobs cp)
    (100. *. Control_plane.service_utilization cp ~horizon:wall);
  Array.iter
    (fun srv ->
       Format.fprintf ppf
         "memory server %d     %d fetches, %d diffs, %d updates, %d lines \
          resident, %.1f%% utilized@,"
         (Memory_server.id srv) (Memory_server.fetches srv)
         (Memory_server.diffs_applied srv)
         (Memory_server.updates_applied srv)
         (Memory_server.lines_resident srv)
         (100.
          *. Desim.Resource.utilization (Memory_server.service srv)
               ~horizon:wall))
    (System.servers sys);
  if Option.is_some (Fabric.Network.faults net) then
    Format.fprintf ppf "fault injection     %a@," pp_faults
      (faults_of_system sys);
  if cfg.Config.replication || crash then
    Format.fprintf ppf "fault tolerance     %a@," pp_replication
      (replication_of_system sys);
  if gray then
    Format.fprintf ppf "failure detection   %a@," pp_detection
      (detection_of_system sys);
  if cfg.Config.manager_shards > 1 then
    Format.fprintf ppf "control plane       %a@," pp_control
      (control_of_system sys);
  Format.fprintf ppf "cache hit rate      %.4f (%d hits / %d misses)@,"
    (if hits + misses = 0 then 1.0
     else float_of_int hits /. float_of_int (hits + misses))
    hits misses;
  List.iter2
    (fun ctx m ->
       let cache = Thread_ctx.cache ctx in
       Format.fprintf ppf "  %a prefetch-installs=%d dirty-evicts=%d@,"
         pp_thread m (Cache.prefetch_installs cache)
         (Cache.dirty_evictions cache))
    threads metrics;
  Format.fprintf ppf "@]"

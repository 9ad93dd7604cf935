type t = {
  mutable env : Ctx.env;
      (* The runtime every thread plugs into; replaced only by
         [add_probe], before the first spawn. *)
  total_threads : int;
  first_compute_node : int;
  mutable threads_rev : Thread_ctx.t list;
  mutable next_thread : int;
  mutable finished : int;
  mutable last_finish : Desim.Time.t;  (* the makespan; see [elapsed] *)
}

let config t = t.env.Ctx.cfg
let layout t = t.env.Ctx.layout
let engine t = t.env.Ctx.engine
let network t = t.env.Ctx.network
let control_plane t = t.env.Ctx.cp
let manager t = Control_plane.shard (control_plane t) 0
let servers t = t.env.Ctx.servers
let directory t = t.env.Ctx.dir
let probe t = t.env.Ctx.probe

(* One monitor heartbeat: [src] pings [dst] now and [dst] acks. Returns
   the ack's arrival instant; both legs ride the retrying primitive, so a
   dead or unreachable peer raises [Fabric.Scl.Node_dead]. *)
let heartbeat net ~src ~dst =
  let now = Desim.Engine.now (Fabric.Network.engine net) in
  let arrival =
    Fabric.Scl.reliable_transfer net ~now ~src ~dst
      ~bytes:Wire.heartbeat
  in
  Fabric.Scl.reliable_transfer net ~now:arrival ~src:dst ~dst:src
    ~bytes:Wire.ack

let delay_until t at =
  let now = Desim.Engine.now (engine t) in
  if Desim.Time.( < ) now at then Desim.Engine.delay (Desim.Time.diff at now)

let node_of_server t i =
  Fabric.Scl.node (Memory_server.endpoint (servers t).(i))

let node_of_shard t s =
  Fabric.Scl.node
    (Manager_shard.endpoint (Control_plane.shard (control_plane t) s))

(* A memory server's lease expired: the monitor knows at the give-up
   instant of its last retransmission, and detection, promotion, replay
   and wakeups all land there (replay cost is charged implicitly via the
   blocked threads' own re-issued round trips). The suspicion is
   classified against the run's ground truth: a partitioned victim is
   alive, which the detector cannot tell but the metrics report as a
   false positive. Recovery proceeds identically either way; only the
   epoch fence makes the false case safe. *)
let expire_server t i ~give_up =
  delay_until t give_up;
  let { Ctx.engine; network; dir; cp; servers; probe; _ } = t.env in
  let now = Desim.Engine.now engine in
  Directory.note_suspicion dir;
  let truly_dead =
    match Fabric.Network.faults network with
    | Some f -> Fabric.Faults.node_dead f ~node:(1 + i) ~at:now
    | None -> false
  in
  if not truly_dead then Directory.note_false_suspicion dir;
  (match probe with
   | Some p -> p.Probe.on_crash ~time:now ~node:(1 + i) ~server:i
   | None -> ());
  let promoted, replayed =
    Control_plane.recover_server cp ~dir ~servers ~dead:i ~probe ~now
  in
  match probe with
  | Some p -> p.Probe.on_recovery ~time:now ~failed:i ~promoted ~replayed
  | None -> ()

(* The failure detector: one monitor process on shard 0's node (shard 0
   hosts allocation and is never killable). Every [lease_interval] it
   1. heartbeats each live memory server, when replication is on;
   2. heartbeats shards 1..N-1, while the control plane is sharded and
      no shard has failed.
   Heartbeats ride the retrying primitive, so a transient drop only
   delays renewal; a fail-stop crash exhausts the retry budget and
   escalates to [Node_dead]. The first server whose lease expires in a
   round is recovered ({!Control_plane.recover_server}); a dead shard is
   absorbed by its ring successor ({!Control_plane.recover_shard}). The
   monitor exits once every spawned thread has finished (it must: a
   sleeping process keeps the engine's queue non-empty forever), or when
   nothing is left to watch. A tick builds no lists or closures. The
   probe is read when a recovery runs: it is attached after this spawn. *)
let spawn_monitor t =
  let { Ctx.cfg; engine; network = net; dir; cp; servers; _ } = t.env in
  let src = node_of_shard t 0 in
  let leases = cfg.Config.replication >= 1 in
  let ms = Array.length servers in
  let nshards = Control_plane.shard_count cp in
  let watch_shards () =
    nshards >= 2 && not (Control_plane.any_shard_failed cp)
  in
  let rec heartbeat_servers i =
    if i < ms then
      if Directory.failed dir i then heartbeat_servers (i + 1)
      else
        match heartbeat net ~src ~dst:(node_of_server t i) with
        | _ ->
          Control_plane.note_heartbeat cp;
          heartbeat_servers (i + 1)
        | exception Fabric.Scl.Node_dead (_, give_up) ->
          expire_server t i ~give_up
  in
  let rec heartbeat_shards s =
    if s < nshards then
      match heartbeat net ~src ~dst:(node_of_shard t s) with
      | _ ->
        Control_plane.note_shard_heartbeat cp;
        heartbeat_shards (s + 1)
      | exception Fabric.Scl.Node_dead (_, give_up) ->
        delay_until t give_up;
        ignore
          (Control_plane.recover_shard cp ~dead:s ~probe:(probe t)
             ~now:(Desim.Engine.now engine)
           : int * int * int)
  in
  Desim.Engine.spawn engine ~name:"monitor" (fun () ->
      let rec loop () =
        Desim.Engine.delay cfg.Config.lease_interval;
        if t.finished < t.next_thread && (leases || watch_shards ()) then begin
          if leases then heartbeat_servers 0;
          if watch_shards () then heartbeat_shards 1;
          loop ()
        end
      in
      loop ())

let create ?(config = Config.default) ~threads () =
  (match Config.validate config with
   | Ok () -> ()
   | Error msg -> invalid_arg ("System.create: " ^ msg));
  if threads <= 0 then invalid_arg "System.create: threads must be positive";
  if threads > Config.max_threads then
    invalid_arg
      (Printf.sprintf
         "System.create: %d threads requested but the cap \
          (Config.max_threads) is %d"
         threads Config.max_threads);
  let tie_break =
    if config.Config.shuffle then
      Some (Desim.Engine.shuffle_tie_break ~seed:config.Config.seed)
    else None
  in
  let engine = Desim.Engine.create ?tie_break () in
  let ms = config.Config.memory_servers in
  let tpn = config.Config.threads_per_node in
  let nshards = config.Config.manager_shards in
  let compute_nodes = (threads + tpn - 1) / tpn in
  (* Node map: 0 = manager shard 0, 1..ms = memory servers, then compute
     nodes, then shards 1..N-1 on trailing nodes. With one shard this is
     exactly the historical map. *)
  let node_count = 1 + ms + compute_nodes + (nshards - 1) in
  let first_compute_node = 1 + ms in
  let shard_node s =
    if s = 0 then
      (* §V future work: a single-node system can synchronize locally. *)
      if config.Config.manager_bypass then first_compute_node else 0
    else 1 + ms + compute_nodes + (s - 1)
  in
  (* The injected failure in fabric-node terms: memory server [srv]
     lives on node [1 + srv], manager shard [s] on [shard_node s].
     Partition scope Isolate cuts the victim off from every peer; Control
     cuts only the manager-shard nodes, so clients keep reaching the
     deposed primary — the zombie scenario. A fault policy is attached
     exactly when the level is on or a failure is injected, so the
     default configuration's fabric stays byte-exact with the seed
     build. *)
  let injection =
    let ns = Desim.Time.of_ns in
    Option.map
      (function
        | Config.Crash_server { server; at_ns } ->
          Fabric.Faults.Crash { node = 1 + server; at = ns at_ns }
        | Config.Crash_shard { shard; at_ns } ->
          Fabric.Faults.Crash { node = shard_node shard; at = ns at_ns }
        | Config.Partition_server { server; scope; start_ns; heal_ns } ->
          let peers =
            match scope with
            | Config.Isolate -> []
            | Config.Control -> List.init nshards shard_node
          in
          Fabric.Faults.Partition
            { victim = 1 + server; peers; start = ns start_ns;
              heal = ns heal_ns })
      config.Config.fault
  in
  let faults =
    match (config.Config.fault_level, injection) with
    | Fabric.Faults.Off, None -> None
    | level, _ ->
      Some
        (Fabric.Faults.create ?injection ~seed:config.Config.seed ~level ())
  in
  let network =
    Fabric.Network.create ?faults engine ~profile:config.Config.fabric
      ~node_count
  in
  let layout = Layout.of_config config in
  let shard_nodes = Array.init nshards shard_node in
  let shards =
    Array.init nshards (fun s ->
        Manager_shard.create config layout ~engine
          ~endpoint:(Fabric.Scl.endpoint network shard_nodes.(s)))
  in
  let cp = Control_plane.create ~engine ~shards ~nodes:shard_nodes in
  let servers =
    Array.init ms (fun i ->
        Memory_server.create config layout ~id:i
          ~endpoint:(Fabric.Scl.endpoint network (1 + i)))
  in
  let dir = Directory.create config in
  if config.Config.replication >= 1 then
    Array.iteri
      (fun i srv ->
         Memory_server.set_backup srv servers.(Directory.backup_of dir i))
      servers;
  let t =
    { env =
        { Ctx.cfg = config; layout; engine; network; servers; dir; cp;
          sc = Coherence_sc.create (); probe = None };
      total_threads = threads;
      first_compute_node;
      threads_rev = [];
      next_thread = 0;
      finished = 0;
      last_finish = Desim.Time.zero }
  in
  if config.Config.replication >= 1 || nshards >= 2 then spawn_monitor t;
  (* Partition heal-wake: a client can park in the park list after
     escalating against the partitioned victim even though no lease ever
     expires (Isolate windows shorter than the monitor's escalation).
     Recovery would wake it; if recovery never runs, the heal does. All
     partition-induced parks happen strictly before the heal instant
     (every attempt of an escalated transfer was in-window), so one
     drain at the heal instant suffices; when recovery already drained
     the list this finds it empty. *)
  (match config.Config.fault with
   | Some (Config.Partition_server { heal_ns = heal; _ }) ->
     Desim.Engine.spawn engine ~name:"heal-wake" (fun () ->
         Desim.Engine.delay
           (Desim.Time.diff (Desim.Time.of_ns heal)
              (Desim.Engine.now engine));
         Control_plane.wake_parked cp ~now:(Desim.Engine.now engine))
   | _ -> ());
  t


let add_probe t p =
  if t.next_thread > 0 then
    invalid_arg "System.add_probe: attach probes before spawning threads";
  let probe =
    match t.env.Ctx.probe with None -> p | Some q -> Probe.both q p
  in
  t.env <- { t.env with Ctx.probe = Some probe }

let mutex t = Control_plane.mutex_create (control_plane t)
let barrier t ~parties = Control_plane.barrier_create (control_plane t) ~parties
let cond t = Control_plane.cond_create (control_plane t)

let spawn t body =
  if t.next_thread >= t.total_threads then
    invalid_arg "System.spawn: all thread slots used";
  let id = t.next_thread in
  t.next_thread <- id + 1;
  let node = t.first_compute_node + (id / (config t).Config.threads_per_node) in
  let ctx = Thread_ctx.create t.env ~id ~node in
  t.threads_rev <- ctx :: t.threads_rev;
  Desim.Engine.spawn (engine t) ~name:(Printf.sprintf "thread%d" id) (fun () ->
      body ctx;
      Thread_ctx.finish ctx;
      t.finished <- t.finished + 1;
      t.last_finish <- Desim.Engine.now (engine t));
  ctx

let threads t = List.rev t.threads_rev
let finished_threads t = t.finished
let run t = Desim.Engine.run (engine t)
let elapsed t = t.last_finish
let events t = Desim.Engine.events (engine t)

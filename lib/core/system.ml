type t = {
  cfg : Config.t;
  layout : Layout.t;
  engine : Desim.Engine.t;
  network : Fabric.Network.t;
  servers : Memory_server.t array;
  dir : Directory.t;
  cp : Control_plane.t;
  sc : Coherence_sc.t;
  san : Analysis.Regcsan.t option;
  total_threads : int;
  first_compute_node : int;
  mutable threads_rev : Thread_ctx.t list;
  mutable next_thread : int;
  mutable finished : int;
  mutable probe : Probe.t option;
}

(* One monitor heartbeat: [src] pings [dst] now and [dst] acks. Returns
   the ack's arrival instant; both legs ride the retrying primitive, so a
   dead or unreachable peer raises [Fabric.Scl.Node_dead]. *)
let heartbeat net ~src ~dst =
  let now = Desim.Engine.now (Fabric.Network.engine net) in
  let arrival =
    Fabric.Scl.reliable_transfer net ~now ~src ~dst
      ~bytes:Manager_shard.heartbeat_wire
  in
  Fabric.Scl.reliable_transfer net ~now:arrival ~src:dst ~dst:src
    ~bytes:Manager_shard.ack_wire

(* The lease-based failure detector (active when replication is on): each
   control-plane shard owns a monitor process that, every
   [lease_interval], runs a heartbeat round trip to each live memory
   server in its slice (servers are partitioned round-robin across
   shards; with one shard that is every server, in index order — the
   classic path). The round trips ride the retrying primitive, so a
   transient drop only delays renewal; a fail-stop crash exhausts the
   retry budget and escalates to [Node_dead] — the lease is expired and
   {!Control_plane.recover_server} promotes the backup, replays the
   surviving update logs of every shard and wakes parked threads. The
   monitor exits once every spawned thread has finished (it must: a
   sleeping process keeps the engine's queue non-empty forever), or when
   its own host shard dies. *)
let spawn_lease_monitor t ~shard:si ~subset =
  let name =
    if Control_plane.shard_count t.cp = 1 then "lease-monitor"
    else Printf.sprintf "lease-monitor%d" si
  in
  Desim.Engine.spawn t.engine ~name (fun () ->
      let net = t.network in
      let sh = Control_plane.shard t.cp si in
      let mgr_node = Fabric.Scl.node (Manager_shard.endpoint sh) in
      let alive = ref true in
      let rec loop () =
        Desim.Engine.delay t.cfg.Config.lease_interval;
        if
          t.finished < t.next_thread
          && !alive
          && not (Control_plane.shard_failed t.cp si)
        then begin
          let expired = ref None in
          List.iter
            (fun i ->
               if !expired = None && !alive && not (Directory.failed t.dir i)
               then begin
                 let snode =
                   Fabric.Scl.node (Memory_server.endpoint t.servers.(i))
                 in
                 try
                   ignore (heartbeat net ~src:mgr_node ~dst:snode
                           : Desim.Time.t);
                   Manager_shard.note_heartbeat sh
                 with Fabric.Scl.Node_dead (n, give_up) ->
                   (* If our own host shard crashed the transfer blames the
                      source; the shard monitor owns that failure. *)
                   if n = mgr_node then alive := false
                   else expired := Some (i, give_up)
               end)
            subset;
          (match !expired with
           | None -> ()
           | Some (i, give_up) ->
             (* The shard knows at the give-up instant of its last
                retransmission; detection, promotion, replay and wakeups
                all land there (replay cost is charged to the control
                plane's service loops implicitly via the blocked threads'
                own re-issued round trips). *)
             if Desim.Time.( < ) (Desim.Engine.now t.engine) give_up then
               Desim.Engine.delay
                 (Desim.Time.diff give_up (Desim.Engine.now t.engine));
             let now = Desim.Engine.now t.engine in
             (* Classify the suspicion: a partitioned (or stalled) victim
                is alive — the detector cannot tell, but the run's ground
                truth can, and the metrics report the false-positive
                rate. Recovery proceeds identically either way; only the
                epoch fence makes the false case safe. *)
             Directory.note_suspicion t.dir;
             let truly_dead =
               match Fabric.Network.faults t.network with
               | Some f -> Fabric.Faults.node_dead f ~node:(1 + i) ~at:now
               | None -> false
             in
             if not truly_dead then Directory.note_false_suspicion t.dir;
             (match t.probe with
              | Some p ->
                p.Probe.on_crash ~time:now ~node:(1 + i) ~server:i
              | None -> ());
             let promoted, replayed =
               Control_plane.recover_server t.cp ~dir:t.dir
                 ~servers:t.servers ~dead:i ~probe:t.probe ~now
                 ~detecting:si
             in
             (match t.probe with
              | Some p ->
                p.Probe.on_recovery ~time:now ~failed:i ~promoted ~replayed
              | None -> ()));
          (* Gray-failure runs only: probe the suspected server after its
             lease expired. While the partition is open every probe
             attempt dies at the wall (a pure timing computation — no
             simulated time passes); the first probe whose round trip
             completes is the zombie answering after the heal, and it
             rejoins as a backup via the epoch-stamped resync. *)
          (match t.cfg.Config.fault with
           | Some (Config.Partition_server _ | Config.Stall_server _) ->
             List.iter
               (fun i ->
                  if
                    !alive
                    && Directory.failed t.dir i
                    && not (Directory.rejoined t.dir)
                  then begin
                    let snode =
                      Fabric.Scl.node (Memory_server.endpoint t.servers.(i))
                    in
                    try
                      let ack = heartbeat net ~src:mgr_node ~dst:snode in
                      if Desim.Time.( < ) (Desim.Engine.now t.engine) ack then
                        Desim.Engine.delay
                          (Desim.Time.diff ack (Desim.Engine.now t.engine));
                      ignore
                        (Control_plane.rejoin_server t.cp ~dir:t.dir
                           ~servers:t.servers ~zombie:i ~probe:t.probe
                           ~now:(Desim.Engine.now t.engine)
                         : int * int)
                    with Fabric.Scl.Node_dead _ -> ()
                  end)
               subset
           | _ -> ());
          if !alive then loop ()
        end
      in
      loop ())

(* Shard-failure detector (active when the control plane is sharded):
   shard 0 — which hosts allocation and is never killable — heartbeats
   its peers every lease interval; a peer that exhausts the retry budget
   is declared dead and the ring successor absorbs its slice
   ({!Control_plane.recover_shard}). *)
let spawn_shard_monitor t =
  Desim.Engine.spawn t.engine ~name:"shard-monitor" (fun () ->
      let net = t.network in
      let n0 =
        Fabric.Scl.node (Manager_shard.endpoint (Control_plane.shard t.cp 0))
      in
      let count = Control_plane.shard_count t.cp in
      let rec loop () =
        Desim.Engine.delay t.cfg.Config.lease_interval;
        if
          t.finished < t.next_thread
          && not (Control_plane.any_shard_failed t.cp)
        then begin
          let dead = ref None in
          for s = 1 to count - 1 do
            if !dead = None then begin
              let snode =
                Fabric.Scl.node
                  (Manager_shard.endpoint (Control_plane.shard t.cp s))
              in
              try
                ignore (heartbeat net ~src:n0 ~dst:snode : Desim.Time.t);
                Control_plane.note_shard_heartbeat t.cp
              with Fabric.Scl.Node_dead (_, give_up) ->
                dead := Some (s, give_up)
            end
          done;
          (match !dead with
           | None -> ()
           | Some (s, give_up) ->
             if Desim.Time.( < ) (Desim.Engine.now t.engine) give_up then
               Desim.Engine.delay
                 (Desim.Time.diff give_up (Desim.Engine.now t.engine));
             let now = Desim.Engine.now t.engine in
             ignore
               (Control_plane.recover_shard t.cp ~dead:s ~now
                : int * int * int));
          loop ()
        end
      in
      loop ())

(* Home-page migration executor: copy the line's current bytes and
   version from the old home to the new one (and its mirror), repoint the
   directory, and publish the unchanged version at the new home so a
   probe's last-snapshot map follows the move. The copy is modeled as a
   background transfer with no client-visible latency; what the
   simulation measures is the locality change on subsequent fetches. *)
let migrator t ~line ~target =
  let cur = Directory.logical_of_line t.dir t.cfg ~line in
  if cur = target then false
  else begin
    let src = t.servers.(Directory.physical_of_logical t.dir cur) in
    let v = Memory_server.version src line in
    if v = 0 then false (* never flushed: nothing to move *)
    else begin
      let dst_phys = Directory.physical_of_logical t.dir target in
      let dst = t.servers.(dst_phys) in
      let bytes = Config.line_bytes t.cfg in
      Bytes.blit (Memory_server.line src line) 0
        (Memory_server.line dst line) 0 bytes;
      Memory_server.force_version dst line v;
      (match Memory_server.backup dst with
       | Some b ->
         Bytes.blit (Memory_server.line src line) 0
           (Memory_server.line b line) 0 bytes;
         Memory_server.force_version b line v
       | None -> ());
      Directory.set_home t.dir ~line ~logical:target;
      (match t.probe with
       | Some p ->
         p.Probe.on_publish ~thread:(-1)
           ~time:(Desim.Engine.now t.engine)
           ~server:dst_phys ~line ~version:v
           ~data:(Memory_server.line dst line)
       | None -> ());
      true
    end
  end

(* RegCSan as a probe subscriber. [Release] (unlock entry) is the
   sanitizer's happens-before release instant; the post-ack [Unlock] and
   every non-access event carry nothing it needs. *)
let sanitizer_probe s =
  let module R = Analysis.Regcsan in
  { Probe.nothing with
    on_read = (fun ~thread ~time ~addr ~len ~value:_ ->
        R.on_read s ~thread ~time ~addr ~len);
    on_write = (fun ~thread ~time ~addr ~len ~region ~value:_ ->
        R.on_write s ~thread ~time ~addr ~len ~lock:region);
    on_malloc = R.on_malloc s;
    on_free = R.on_free s;
    on_barrier = (fun ~thread ~time:_ ~barrier ~epoch ~phase ->
        match phase with
        | `Arrive -> R.on_barrier_arrive s ~thread ~barrier ~epoch
        | `Depart -> R.on_barrier_depart s ~thread ~barrier ~epoch);
    on_sync = (fun ~thread ~time ~op ~id ->
        match op with
        | Probe.Lock_attempt -> R.on_lock_attempt s ~thread ~time ~lock:id
        | Probe.Lock_acquired -> R.on_lock_acquired s ~thread ~time ~lock:id
        | Probe.Release -> R.on_unlock s ~thread ~time ~lock:id
        | Probe.Unlock -> ()
        | Probe.Cond_signal -> R.on_cond_signal s ~thread ~cond:id
        | Probe.Cond_wake -> R.on_cond_wake s ~thread ~cond:id) }

let create ?(config = Config.default) ~threads () =
  (match Config.validate config with
   | Ok () -> ()
   | Error msg -> invalid_arg ("System.create: " ^ msg));
  if threads <= 0 then invalid_arg "System.create: threads must be positive";
  if threads > config.Config.max_threads then
    invalid_arg
      (Printf.sprintf
         "System.create: %d threads requested but config.max_threads = %d \
          (raise the max_threads field to run larger systems)"
         threads config.Config.max_threads);
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
              heal = ns heal_ns }
        | Config.Stall_server { server; start_ns; heal_ns } ->
          Fabric.Faults.Stall
            { victim = 1 + server; start = ns start_ns; heal = ns heal_ns })
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
  let cp = Control_plane.create config ~engine ~shards ~nodes:shard_nodes in
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
  let san =
    if config.Config.sanitize then
      Some
        (Analysis.Regcsan.create ~threads ~page_bytes:config.Config.page_bytes)
    else None
  in
  let t =
    { cfg = config;
      layout;
      engine;
      network;
      servers;
      dir;
      cp;
      sc = Coherence_sc.create ~max_threads:config.Config.max_threads ();
      san;
      total_threads = threads;
      first_compute_node;
      threads_rev = [];
      next_thread = 0;
      finished = 0;
      probe = Option.map sanitizer_probe san }
  in
  if config.Config.home_migration then
    Array.iter (fun sh -> Manager_shard.set_migrator sh (migrator t)) shards;
  if config.Config.replication >= 1 then
    (* Servers are partitioned round-robin across shards; every shard
       with a non-empty slice runs its own lease monitor. With one shard
       that is the single classic monitor over all servers. *)
    for s = 0 to nshards - 1 do
      let subset =
        List.filter (fun i -> i mod nshards = s) (List.init ms Fun.id)
      in
      if subset <> [] then spawn_lease_monitor t ~shard:s ~subset
    done;
  if nshards > 1 then spawn_shard_monitor t;
  (* Partition heal-wake: a client can park in await_recovery after
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
         let now = Desim.Engine.now engine in
         List.iter
           (fun wake -> Desim.Engine.schedule_at engine now wake)
           (Directory.take_waiters dir))
   | _ -> ());
  t

let config t = t.cfg
let layout t = t.layout
let engine t = t.engine
let network t = t.network
let control_plane t = t.cp
let manager t = Control_plane.shard t.cp 0
let servers t = t.servers
let directory t = t.dir
let total_threads t = t.total_threads
let sanitizer t = t.san

let add_probe t p =
  if t.next_thread > 0 then
    invalid_arg "System.add_probe: attach probes before spawning threads";
  t.probe <- Some (match t.probe with None -> p | Some q -> Probe.both q p)

let mutex t = Control_plane.mutex_create t.cp
let barrier t ~parties = Control_plane.barrier_create t.cp ~parties
let cond t = Control_plane.cond_create t.cp

let env t : Thread_ctx.env =
  { Thread_ctx.cfg = t.cfg;
    layout = t.layout;
    engine = t.engine;
    network = t.network;
    servers = t.servers;
    dir = t.dir;
    cp = t.cp;
    sc = t.sc;
    probe = t.probe }

let spawn t body =
  if t.next_thread >= t.total_threads then
    invalid_arg "System.spawn: all thread slots used";
  let id = t.next_thread in
  t.next_thread <- id + 1;
  let node = t.first_compute_node + (id / t.cfg.Config.threads_per_node) in
  let ctx = Thread_ctx.create (env t) ~id ~node in
  t.threads_rev <- ctx :: t.threads_rev;
  Desim.Engine.spawn t.engine ~name:(Printf.sprintf "thread%d" id) (fun () ->
      body ctx;
      Thread_ctx.finish ctx;
      t.finished <- t.finished + 1);
  ctx

let threads t = List.rev t.threads_rev
let finished_threads t = t.finished
let run t = Desim.Engine.run t.engine
let elapsed t = Desim.Engine.now t.engine
let events t = Desim.Engine.events t.engine

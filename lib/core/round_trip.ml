(* A compute thread's round trips to its peers: every thread-side
   request and reply leg, the failover park that absorbs a crashed peer,
   primary-backup mirroring, and RegC's ordinary-region diff flushes. *)

open Ctx

(* Request/reply legs ride the retrying primitive: under fault injection a
   dropped message costs a timeout + backoff and is resent, so every RPC
   below keeps its exactly-once semantics (state mutates only after the
   full round trip lands). Fault-free, this is Network.transfer verbatim. *)
let transfer_to t ~dst ~bytes =
  Fabric.Scl.reliable_transfer t.e.network ~now:(now t)
    ~src:(Fabric.Scl.node t.endpoint) ~dst:(Fabric.Scl.node dst) ~bytes

let transfer_from t ~src ~at ~bytes =
  Fabric.Scl.reliable_transfer t.e.network ~now:at
    ~src:(Fabric.Scl.node src) ~dst:(Fabric.Scl.node t.endpoint) ~bytes

let delay_until t instant =
  Desim.Engine.delay (Desim.Time.diff instant (now t))

(* The reply leg of a blocking round trip: [src] answers at [at] and the
   caller resumes when the reply lands. *)
let await_reply t ~src ~at ~bytes =
  delay_until t (transfer_from t ~src ~at ~bytes)

(* The request half of a manager-shard round trip: the request leg to
   [mgr] and one slot of its service loop. Returns the service instant;
   the caller runs the shard operation there and takes the reply leg
   from it. *)
let shard_request t mgr ~bytes =
  let arrival = transfer_to t ~dst:(Manager_shard.endpoint mgr) ~bytes in
  Desim.Resource.reserve (Manager_shard.service mgr) ~now:arrival
    ~duration:t.e.cfg.Config.manager_service

(* ------------------------------------------------------------------ *)
(* Crash fault tolerance: failover and primary-backup mirroring        *)

(* The exceptions after which an interaction may re-run through
   [failover]: a dead node, or an epoch that moved under the round
   trip. *)
let retryable = function
  | Fabric.Scl.Node_dead _ | Directory.Stale_epoch -> true
  | _ -> false

(* Run a protocol interaction, absorbing a fail-stop crash of its peer:
   wait out the paid retransmission timeouts, park until recovery
   repoints the peer (unless it already has), then re-run [f] — which
   re-resolves its peer and lands on the replacement. The dead node's
   role names the recovery. A memory server (nodes 1..memory_servers)
   is replaced by its promoted backup once the monitor repoints the
   directory. A manager shard (never one of those nodes) is absorbed by
   its ring successor once the monitor repoints the shard map.
   [f] must be safe to re-run: a memory-server interaction mutates state
   only after its full round trip lands (the simulation-wide idiom). An
   acquire or a barrier arrival re-runs only when its request leg failed,
   so the shard never saw it: once the shard executes it, the reply is a
   push that a takeover re-drives, and the thread just stays suspended.
   A release re-runs after its lost ack as a no-op, by its sequence
   number. Escalations from any other node propagate.
   {!Sync.acquire_grant} and {!Sync.release_lock} repeat this loop
   without the closure; all three catch exactly the exceptions
   {!retryable} names. *)
let rec with_failover t f =
  match f () with
  | v -> v
  | exception exn when retryable exn ->
    failover t exn;
    with_failover t f

(* The handler half of {!with_failover}: returns once [exn]'s interaction
   may be re-run. The lock path calls it from its own retry loops so that
   an acquire or release builds no closure. *)
and failover t exn =
  match exn with
  | Fabric.Scl.Node_dead (node, at) ->
    let server = node >= 1 && node <= t.e.cfg.Config.memory_servers in
    let shard =
      if server then None else Control_plane.shard_node_of t.e.cp node
    in
    if (not server) && Option.is_none shard then raise exn;
    t.m_failovers <- t.m_failovers + 1;
    if Desim.Time.( < ) (now t) at then delay_until t at;
    let recovered =
      match shard with
      | None -> Directory.failed t.e.dir (node - 1)
      | Some logical -> Control_plane.shard_failed t.e.cp logical
    in
    if not recovered then
      Desim.Engine.suspend ~register:(fun ~wake ->
          Control_plane.park t.e.cp ~wake)
  | Directory.Stale_epoch ->
    (* The slot's epoch moved while the round trip was in flight (a
       promotion happened under us, or our cached hint aimed at a
       deposed primary). Nothing was applied; the directory is already
       repointed, so re-running re-resolves and lands on the
       epoch-current replica immediately. *)
    ()
  | _ -> raise exn

(* Synchronous primary-backup mirroring, timing side: between the primary
   serving a write ([~at]) and its ack to the client, the primary ships
   the payload to its backup, the backup applies it (service occupancy)
   and acks. Returns the instant the primary may ack the client and
   whether the mirror happened. A dead backup costs the primary its retry
   budget and degrades the write (acked unreplicated) — the recovery
   replay covers the gap. A dead primary propagates to the caller's
   {!with_failover}. *)
let replicate_ready t srv ~at ~payload_bytes =
  if t.e.cfg.Config.replication = 0 then (at, false)
  else
    match Memory_server.backup srv with
    | None -> (at, false)
    | Some b ->
      let pnode = Fabric.Scl.node (Memory_server.endpoint srv) in
      let bnode = Fabric.Scl.node (Memory_server.endpoint b) in
      (try
         let m_arrival =
           Fabric.Scl.reliable_transfer t.e.network ~now:at ~src:pnode
             ~dst:bnode
             ~bytes:(Wire.mirror ~payload:payload_bytes)
         in
         let m_served =
           Desim.Resource.reserve (Memory_server.service b) ~now:m_arrival
             ~duration:(Memory_server.service_time_for_bytes b payload_bytes)
         in
         let ack =
           Fabric.Scl.reliable_transfer t.e.network ~now:m_served ~src:bnode
             ~dst:pnode ~bytes:Wire.ack
         in
         (ack, true)
       with Fabric.Scl.Node_dead (n, give_up) when n = bnode ->
         Memory_server.note_degraded srv;
         (Desim.Time.max at give_up, false))

(* The request half of every memory-server interaction: the [request]-
   byte leg to [srv] and a [payload]-byte job on its service loop.
   Returns the service instant; the caller takes the reply leg from it.
   This is the one place a request to a memory server is charged. *)
let home_request t srv ~request ~payload =
  let arrival =
    transfer_to t ~dst:(Memory_server.endpoint srv) ~bytes:request
  in
  Desim.Resource.reserve (Memory_server.service srv) ~now:arrival
    ~duration:(Memory_server.service_time_for_bytes srv payload)

(* One memory-server round trip, the single commit point of the data
   plane. Resolve [logical]'s epoch and physical server, send [request]
   bytes, occupy the server's service loop for a [payload]-byte job,
   mirror the payload to the backup first when [mirror] is set, then wait
   for the [reply]-byte ack and fence it. The epoch fence runs before the
   caller mutates anything: if a promotion moved the slot while the round
   trip was in flight, the ack came from a deposed primary (or raced the
   repointing). That is a [Stale_epoch] reply, not a commit, and the
   enclosing {!with_failover} re-runs against the epoch-current replica.
   Healthy runs compare 0 = 0 and never allocate or raise. Returns
   whether the payload was mirrored; the caller then applies its state
   (and the mirror's). *)
let home_rpc t ~logical ~request ~payload ~mirror ~reply =
  let epoch = Directory.epoch_of t.e.dir ~logical in
  let srv = t.e.servers.(Directory.physical_of_logical t.e.dir logical) in
  let sep = Memory_server.endpoint srv in
  let served = home_request t srv ~request ~payload in
  let ready, mirrored =
    if mirror then replicate_ready t srv ~at:served ~payload_bytes:payload
    else (served, false)
  in
  await_reply t ~src:sep ~at:ready ~bytes:reply;
  Directory.fence t.e.dir ~logical ~epoch;
  if mirrored then Memory_server.note_mirror srv ~bytes:payload;
  mirrored

(* State side of the mirror, run after the client's round trip lands (ack
   received <=> applied at primary and backup). [Diff.apply] /
   [Update.apply_to_line] directly — the backup's own request counters
   track client traffic, not mirrors — and versions forced equal to the
   primary's, which is what makes promotion version-consistent. *)
let mirror_diff srv (diff : Diff.t) ~version =
  match Memory_server.backup srv with
  | None -> ()
  | Some b ->
    Diff.apply diff (Memory_server.line b diff.Diff.line);
    Memory_server.force_version b diff.Diff.line version

let mirror_update t srv (u : Update.t) ~line ~version =
  match Memory_server.backup srv with
  | None -> ()
  | Some b ->
    Update.apply_to_line t.e.layout u ~line (Memory_server.line b line);
    Memory_server.force_version b line version

(* ------------------------------------------------------------------ *)
(* Flushing (ordinary-region diffs)                                    *)

(* The entry's diff against its twin pages, or [None] when there is
   nothing to ship (an entry whose writes restored the twins' bytes is
   cleaned). *)
let diff_of t (entry : Cache.entry) =
  if entry.Cache.dirty_pages = 0 then None
  else
    let diff =
      Diff.make_paged t.e.layout ~line:entry.Cache.line
        ~twins:entry.Cache.twins ~current:entry.Cache.data
        ~dirty_pages:entry.Cache.dirty_pages
    in
    if Diff.is_empty diff then begin
      Cache.clean t.cache entry ~version:entry.Cache.version;
      None
    end
    else Some diff

(* Ship one home's batch of diffs in a single round trip ([logical] is
   the home; the physical server is re-resolved on every retry, so a
   failover lands the whole batch on the promoted replica). *)
let flush_diffs t ~logical ~reply batch =
  let wire =
    List.fold_left (fun acc (_, d) -> acc + Diff.wire_bytes d) 0 batch
  in
  let payload =
    List.fold_left (fun acc (_, d) -> acc + Diff.payload_bytes d) 0 batch
  in
  with_failover t (fun () ->
      let mirrored =
        home_rpc t ~logical ~request:wire ~payload ~mirror:true ~reply
      in
      List.iter
        (fun ((entry : Cache.entry), diff) ->
           let srv = server_of t entry.Cache.line in
           let v = Memory_server.apply_diff srv diff in
           if mirrored then mirror_diff srv diff ~version:v;
           probe_publish t ~srv ~line:entry.Cache.line ~version:v;
           Hashtbl.replace t.interval_writes entry.Cache.line ();
           Cache.clean t.cache entry ~version:v)
        batch)

(* Flush one dirty entry with its own round trip (the eviction path). *)
let flush_entry t (entry : Cache.entry) =
  match diff_of t entry with
  | None -> ()
  | Some diff ->
    let logical = Home.server_of_line t.e.cfg ~line:entry.Cache.line in
    flush_diffs t ~logical ~reply:Wire.diff_ack [ (entry, diff) ]

(* Flush every dirty line, one batch per home server (paper:
   synchronization moves only the minimum data required). *)
let flush_dirty_all t =
  let dirty = Cache.dirty_entries t.cache in
  if dirty <> [] then
    List.filter_map
      (fun entry -> Option.map (fun d -> (entry, d)) (diff_of t entry))
      dirty
    |> Home.group_by_server t.e.cfg (fun ((entry : Cache.entry), _) ->
        entry.Cache.line)
    |> List.iter (fun (logical, batch) ->
        flush_diffs t ~logical ~reply:(Wire.batch_ack batch) batch)

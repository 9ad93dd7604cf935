type env = {
  cfg : Config.t;
  layout : Layout.t;
  engine : Desim.Engine.t;
  network : Fabric.Network.t;
  servers : Memory_server.t array;
  dir : Directory.t;
      (** Logical-to-physical stripe map (identity until a recovery
          promotes a backup). *)
  cp : Control_plane.t;
      (** The sharded control plane; sync objects resolve to their shard
          per request, so a shard takeover is picked up transparently. *)
  sc : Coherence_sc.t;  (** Directory for the Sc_invalidate model. *)
  probe : Probe.t option;
      (** Protocol-event observers (sanitizer, oracle, checker footprint),
          folded into one; see {!Probe}. *)
}

type t = {
  id : int;
  e : env;
  endpoint : Fabric.Scl.endpoint;
  cache : Cache.t;
  arena : Allocator.Arena.t;
  (* Local compute time not yet synchronized with the global clock. A
     one-element [floatarray] rather than a mutable float field: the field
     would box a fresh float on every store, and this is written on every
     memory access. *)
  accum : floatarray;
  (* Single-line fast path for the common repeated-hit case. *)
  mutable last : Cache.entry option;
  (* Held locks, innermost first, each with its consistency-region store
     log (newest store first). *)
  mutable held : (Manager_shard.lock_id * Update.t list ref) list;
  (* Last lock version integrated, per lock. *)
  lock_seen : (Manager_shard.lock_id, int) Hashtbl.t;
  (* Per-lock release sequence numbers: each release carries the next
     number so a shard-crash retry of the same release is recognized as a
     duplicate and not double-applied. *)
  release_seq : (Manager_shard.lock_id, int) Hashtbl.t;
  (* Lines this thread flushed as ordinary-region diffs (at consistency
     points or evictions) since its last barrier. Reported as write notices
     at the next barrier so every other thread invalidates its stale
     copies. *)
  interval_writes : (int, unit) Hashtbl.t;
  mutable m_compute : int;
  mutable m_sync : int;
  mutable m_alloc : int;
  mutable m_idle : int;
  mutable m_locks : int;
  mutable m_barriers : int;
  mutable m_failovers : int;
}

(* Wire sizes of the fixed protocol messages. *)
let fetch_request_wire = 32
let fetch_reply_overhead = 32
let diff_reply_wire = 24
let alloc_request_wire = 32
let alloc_reply_wire = 16
let cond_request_wire = 32
let barrier_arrive_overhead = 32

let create e ~id ~node =
  let t =
    { id;
      e;
      endpoint = Fabric.Scl.endpoint e.network node;
      cache = Cache.create e.cfg e.layout;
      arena = Allocator.Arena.create ();
      accum = Float.Array.make 1 0.;
      last = None;
      held = [];
      lock_seen = Hashtbl.create 8;
      release_seq = Hashtbl.create 8;
      interval_writes = Hashtbl.create 16;
      m_compute = 0;
      m_sync = 0;
      m_alloc = 0;
      m_idle = 0;
      m_locks = 0;
      m_barriers = 0;
      m_failovers = 0 }
  in
  (* Register this thread's cache with the SC directory so remote writers
     can invalidate/recall its copies (no-ops under RegC). *)
  Coherence_sc.register e.sc ~thread:id
    { Coherence_sc.p_node = node;
      p_peek =
        (fun line ->
           Option.map
             (fun (en : Cache.entry) -> en.Cache.data)
             (Cache.peek t.cache line));
      p_invalidate =
        (fun line ->
           (match Cache.peek t.cache line with
            | Some en -> (
                match t.last with
                | Some le when le == en -> t.last <- None
                | _ -> ())
            | None -> ());
           Cache.invalidate t.cache line);
      p_downgrade =
        (fun line ->
           match Cache.peek t.cache line with
           | Some en -> en.Cache.excl <- false
           | None -> ()) };
  t

let id t = t.id
let env t = t.e
let cache t = t.cache
let endpoint t = t.endpoint

let now t = Desim.Engine.now t.e.engine

let sync_clock t =
  let a = Float.Array.unsafe_get t.accum 0 in
  if a > 0. then begin
    let d = Desim.Time.span_of_float_ns a in
    Float.Array.unsafe_set t.accum 0 0.;
    t.m_compute <- t.m_compute + d;
    Desim.Engine.delay d
  end

let charge t ns =
  Float.Array.unsafe_set t.accum 0 (Float.Array.unsafe_get t.accum 0 +. ns)
let charge_flops t n = charge t (float_of_int n *. t.e.cfg.Config.t_flop)

(* The thread's virtual instant: the global clock plus locally accumulated
   (not yet synchronized) cost. Open-loop load generators timestamp
   request starts and completions with this. *)
let now_ns t =
  Desim.Time.to_ns (now t)
  + Desim.Time.span_of_float_ns (Float.Array.unsafe_get t.accum 0)

(* Advance virtual time to at least [target] (ns since simulation start),
   accounting the gap as idle — neither compute nor sync — so a serving
   worker waiting for its next arrival does not distort either metric.
   Past instants are a no-op (the worker is already running behind). *)
let idle_until t target =
  if target > now_ns t then begin
    sync_clock t;
    let gap = target - Desim.Time.to_ns (now t) in
    if gap > 0 then begin
      t.m_idle <- t.m_idle + gap;
      Desim.Engine.delay gap
    end
  end

let server_of t line =
  t.e.servers.(Directory.server_of_line t.e.dir t.e.cfg ~line)

(* Wire size of a reply carrying one whole line. *)
let line_reply_wire t = t.e.layout.Layout.line_bytes + fetch_reply_overhead

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

(* Run a protocol interaction, absorbing a fail-stop crash of its peer:
   wait out the paid retransmission timeouts, park until recovery
   repoints the peer (unless it already has), then re-run [f] — which
   re-resolves its peer and lands on the replacement. The dead node's
   role names the recovery. A memory server (nodes 1..memory_servers)
   is replaced by its promoted backup once the lease monitor repoints
   the directory. A manager shard (never one of those nodes) is absorbed
   by its ring successor once the shard monitor repoints the shard map.
   [f] must be safe to re-run: a memory-server interaction mutates state
   only after its full round trip lands (the simulation-wide idiom), and
   every shard RPC is idempotent under retry (holder re-grants, release
   sequence numbers, barrier epoch replay). Escalations from any other
   node propagate. *)
let rec with_failover t f =
  try f () with
  | Fabric.Scl.Node_dead (node, at) as dead ->
    let server = node >= 1 && node <= t.e.cfg.Config.memory_servers in
    let shard =
      if server then None else Control_plane.shard_node_of t.e.cp node
    in
    if (not server) && Option.is_none shard then raise dead;
    t.m_failovers <- t.m_failovers + 1;
    if Desim.Time.( < ) (now t) at then delay_until t at;
    (match shard with
     | None ->
       if not (Directory.failed t.e.dir (node - 1)) then
         Desim.Engine.suspend ~register:(fun ~wake ->
             Directory.await_recovery t.e.dir ~wake)
     | Some logical ->
       if not (Control_plane.shard_failed t.e.cp logical) then
         Desim.Engine.suspend ~register:(fun ~wake ->
             Control_plane.await_shard_recovery t.e.cp ~wake));
    with_failover t f
  | Directory.Stale_epoch ->
    (* The slot's epoch moved while the round trip was in flight (a
       promotion happened under us, or our cached hint aimed at a
       deposed primary). Nothing was applied; the directory is already
       repointed, so re-running re-resolves and lands on the
       epoch-current replica immediately. *)
    with_failover t f

(* Framing of a primary-to-backup mirror message beyond its payload. *)
let mirror_overhead_wire = 32

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
             ~bytes:(payload_bytes + mirror_overhead_wire)
         in
         let m_served =
           Desim.Resource.reserve (Memory_server.service b) ~now:m_arrival
             ~duration:(Memory_server.service_time_for_bytes b payload_bytes)
         in
         let ack =
           Fabric.Scl.reliable_transfer t.e.network ~now:m_served ~src:bnode
             ~dst:pnode ~bytes:Manager_shard.ack_wire
         in
         (ack, true)
       with Fabric.Scl.Node_dead (n, give_up) when n = bnode ->
         Memory_server.note_degraded srv;
         (Desim.Time.max at give_up, false))

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
  let arrival = transfer_to t ~dst:sep ~bytes:request in
  let served =
    Desim.Resource.reserve (Memory_server.service srv) ~now:arrival
      ~duration:(Memory_server.service_time_for_bytes srv payload)
  in
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

let mirror_update t srv (u : Update.t) ~line_versions =
  match Memory_server.backup srv with
  | None -> ()
  | Some b ->
    List.iter
      (fun (line, v) ->
         Update.apply_to_line t.e.layout u ~line (Memory_server.line b line);
         Memory_server.force_version b line v)
      line_versions

(* Probe emit sites: each tests the probe before it builds any argument
   (the [Some v] cell, the region lookup, the borrowed line), so with no
   observer attached (the default) an event costs one branch on an
   immutable field and allocates nothing. *)

let probe_read t ~addr ~len =
  match t.e.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_read ~thread:t.id ~time:(now t) ~addr ~len ~value:None

(* The consistency region a store belongs to: the innermost held lock. *)
let region t = match t.held with (l, _) :: _ -> l | [] -> -1

let probe_write t ~addr ~len =
  match t.e.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_write ~thread:t.id ~time:(now t) ~addr ~len ~region:(region t)
      ~value:None

(* Publication: the home's line now holds the merged bytes at [version];
   this is the instant the data becomes RegC-visible to later acquirers
   and barrier crossers. The buffer is borrowed (the server's live line). *)
let probe_publish t ~srv ~line ~version =
  match t.e.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_publish ~thread:t.id ~time:(now t)
      ~server:(Memory_server.id srv) ~line ~version
      ~data:(Memory_server.line srv line)

let probe_sync t op id =
  match t.e.probe with
  | None -> ()
  | Some p -> p.Probe.on_sync ~thread:t.id ~time:(now t) ~op ~id

let probe_barrier t ~barrier ~epoch phase =
  match t.e.probe with
  | None -> ()
  | Some p ->
    p.Probe.on_barrier ~thread:t.id ~time:(now t) ~barrier ~epoch ~phase

let forget_last t (e : Cache.entry) =
  match t.last with
  | Some le when le == e -> t.last <- None
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Flushing (ordinary-region diffs)                                    *)

(* The entry's diff against its twin, or [None] when there is nothing to
   ship (an entry whose writes restored the twin's bytes is cleaned). *)
let diff_of t (entry : Cache.entry) =
  match entry.Cache.twin with
  | None -> None
  | Some twin ->
    let diff =
      Diff.make t.e.layout ~line:entry.Cache.line ~twin
        ~current:entry.Cache.data ~dirty_pages:entry.Cache.dirty_pages
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
    flush_diffs t ~logical ~reply:diff_reply_wire [ (entry, diff) ]

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
        flush_diffs t ~logical
          ~reply:(diff_reply_wire + (12 * List.length batch))
          batch)

(* ------------------------------------------------------------------ *)
(* Sequential-consistency mode (Config.Sc_invalidate): IVY-style single
   writer per line. All protocol work below runs in the requesting
   thread's process context; directory state lives in [t.e.sc]. *)

(* A directory round trip from [line]'s home to SC peer [p]: a request
   out at [now], [bytes] back. Returns the reply's arrival at the home. *)
let sc_peer_round_trip t ~line (p : Coherence_sc.peer) ~now ~bytes =
  let home = Fabric.Scl.node (Memory_server.endpoint (server_of t line)) in
  let out =
    Fabric.Network.transfer t.e.network ~now ~src:home
      ~dst:p.Coherence_sc.p_node ~bytes:fetch_request_wire
  in
  Fabric.Network.transfer t.e.network ~now:out ~src:p.Coherence_sc.p_node
    ~dst:home ~bytes

(* Ship an exclusively-held line home (eviction of an exclusive copy).
   The home copy updates once the ack lands. *)
let sc_writeback t (entry : Cache.entry) =
  let line = entry.Cache.line in
  let lb = t.e.layout.Layout.line_bytes in
  ignore
    (home_rpc t
       ~logical:(Home.server_of_line t.e.cfg ~line)
       ~request:(line_reply_wire t) ~payload:lb ~mirror:false
       ~reply:diff_reply_wire
     : bool);
  Bytes.blit entry.Cache.data 0 (Memory_server.line (server_of t line) line)
    0 lb;
  entry.Cache.excl <- false;
  Coherence_sc.clear_owner t.e.sc ~line

(* Recall an exclusive copy held by [owner_tid]: the home asks the owner,
   the owner ships the line back and keeps a shared copy. Runs at [now]
   (the home's service completion); returns when the writeback lands. *)
let sc_recall t ~line ~owner_tid ~now =
  let p = Coherence_sc.peer t.e.sc owner_tid in
  let back = sc_peer_round_trip t ~line p ~now ~bytes:(line_reply_wire t) in
  (match p.Coherence_sc.p_peek line with
   | Some data ->
     Bytes.blit data 0
       (Memory_server.line (server_of t line) line)
       0 t.e.layout.Layout.line_bytes
   | None -> ());  (* owner evicted meanwhile: home already current *)
  p.Coherence_sc.p_downgrade line;
  Coherence_sc.clear_owner t.e.sc ~line;
  Coherence_sc.add_sharer t.e.sc ~line ~thread:owner_tid;
  back

(* Invalidate every sharer except [self]; returns when the last ack is
   back at the home. *)
let sc_invalidate_sharers t ~line ~now =
  List.fold_left
    (fun tmax s ->
       if s = t.id then tmax
       else begin
         let p = Coherence_sc.peer t.e.sc s in
         let ack =
           sc_peer_round_trip t ~line p ~now ~bytes:Manager_shard.ack_wire
         in
         p.Coherence_sc.p_invalidate line;
         Coherence_sc.drop_sharer t.e.sc ~line ~thread:s;
         Desim.Time.max tmax ack
       end)
    now
    (Coherence_sc.sharer_list t.e.sc ~line)

(* ------------------------------------------------------------------ *)
(* Demand paging                                                       *)

let evict_victim t (victim : Cache.entry) =
  forget_last t victim;
  match t.e.cfg.Config.model with
  | Config.Regc ->
    if victim.Cache.dirty_pages <> 0 then flush_entry t victim
  | Config.Sc_invalidate ->
    if victim.Cache.excl then sc_writeback t victim
    else
      Coherence_sc.drop_sharer t.e.sc ~line:victim.Cache.line ~thread:t.id

let install t ~line ~data ~version =
  Cache.insert t.cache ~line ~data ~version ~evict:(evict_victim t)

let maybe_prefetch t line =
  if t.e.cfg.Config.prefetch
     && t.e.cfg.Config.model = Config.Regc
     && Option.is_none (Cache.peek t.cache line)
     && Cache.pending_start t.cache line
  then begin
    let logical = Home.server_of_line t.e.cfg ~line in
    let epoch = Directory.epoch_of t.e.dir ~logical in
    let srv = t.e.servers.(Directory.physical_of_logical t.e.dir logical) in
    let sep = Memory_server.endpoint srv in
    match
      Fabric.Scl.async_read
        ~service:(Memory_server.service srv)
        ~service_time:(Memory_server.service_time_for_bytes srv 0)
        ~src:t.endpoint ~dst:sep
        ~bytes:(line_reply_wire t) ~on_complete:(fun _arrival ->
          if Directory.epoch_of t.e.dir ~logical <> epoch then begin
            (* The prefetched reply was assembled under a deposed
               mapping (promotion raced it): fence it instead of
               installing — a later demand fetch re-resolves. *)
            Directory.note_fenced t.e.dir;
            Cache.pending_abort t.cache line
          end
          else begin
            let data, version = Memory_server.fetch srv line in
            Cache.pending_complete t.cache line ~data ~version
          end)
        ()
    with
    | () -> ()
    | exception Fabric.Scl.Node_dead _ ->
      (* The home crashed: this prefetch will never deliver. Drop the
         in-flight slot so a later demand fetch (which retries through
         the failover path) is not parked on it forever. *)
      Cache.pending_abort t.cache line
  end

(* Demand-fetch a line; the clock must already be synchronized. The miss
   was detected before the caller synchronized the clock (a yield), so the
   line may have been installed by a prefetch completion meanwhile. *)
let rec demand_fetch t line : Cache.entry =
  match Cache.find t.cache line with
  | Some entry -> entry
  | None ->
  match Cache.pending_wait t.cache line with
  | Some register ->
    (* A prefetch of this line is in flight: piggyback on it, chaining the
       prefetch forward immediately so a sequential scan stays pipelined. *)
    maybe_prefetch t (line + 1);
    (match Desim.Engine.suspendv ~register:(fun ~wake -> register wake) with
     | Some (data, version) -> (
         match Cache.peek t.cache line with
         | Some entry -> entry  (* an earlier waiter installed it *)
         | None -> install t ~line ~data ~version)
     | None -> demand_fetch t line (* invalidated in flight: retry *))
  | None ->
    (* Paper section II: on a miss, the request for the missing line and
       the asynchronous request for the adjacent line are placed together,
       so the prefetch overlaps the demand fetch. *)
    maybe_prefetch t (line + 1);
    let logical = Home.server_of_line t.e.cfg ~line in
    ignore
      (home_rpc t ~logical ~request:fetch_request_wire ~payload:0
         ~mirror:false ~reply:(line_reply_wire t)
       : bool);
    (* The fence passed, so [logical] still maps to the server the round
       trip reached: a reply assembled by a deposed primary never enters
       the cache. *)
    let srv = t.e.servers.(Directory.physical_of_logical t.e.dir logical) in
    let data, version = Memory_server.fetch srv line in
    install t ~line ~data ~version

(* The directory transaction of an SC fetch/upgrade must execute without
   yields: concurrent transactions are serialized by the home in reality,
   and in the simulator by execution order. Cache room is therefore
   secured first (eviction writebacks may yield), then the state
   transition (recall, invalidations, fetch, install, ownership) runs
   atomically, and only then the requester pays its latency.

   [sc_request] is the shared request half: secure room, send the request
   and occupy the home's service loop, then open the transaction by
   recalling the line from a foreign exclusive owner. Returns the home
   and the instant it may proceed. *)
let sc_request t line =
  Cache.ensure_room t.cache ~line ~evict:(evict_victim t);
  let srv = server_of t line in
  let arrival =
    transfer_to t ~dst:(Memory_server.endpoint srv) ~bytes:fetch_request_wire
  in
  let served =
    Desim.Resource.reserve (Memory_server.service srv) ~now:arrival
      ~duration:(Memory_server.service_time_for_bytes srv 0)
  in
  (* --- atomic directory transaction (no yields) --- *)
  match Coherence_sc.owner t.e.sc ~line with
  | Some o when o <> t.id ->
    (srv, sc_recall t ~line ~owner_tid:o ~now:served)
  | _ -> (srv, served)

(* SC read miss: fetch from home, recalling an exclusive holder first. *)
let sc_read_fetch t line : Cache.entry =
  let srv, ready = sc_request t line in
  let data, version = Memory_server.fetch srv line in
  Coherence_sc.add_sharer t.e.sc ~line ~thread:t.id;
  let entry = install t ~line ~data ~version in
  (* --- end of transaction; pay the latency --- *)
  await_reply t ~src:(Memory_server.endpoint srv) ~at:ready
    ~bytes:(line_reply_wire t);
  entry

(* SC write: obtain the line exclusively — invalidate every other sharer
   and recall any other owner; upgrade in place when a shared copy is
   already cached. The clock must be synchronized. [commit] runs inside
   the atomic transaction, right after ownership transfers: the store
   commits logically at grant time, so a concurrent transaction that runs
   while this thread pays its latency recalls the already-stored value —
   no lost updates and no grant/steal livelock. *)
let sc_acquire_exclusive t line ~commit : Cache.entry =
  let srv, after_recall = sc_request t line in
  let ready = sc_invalidate_sharers t ~line ~now:after_recall in
  let cached = Cache.peek t.cache line in
  let reply_bytes =
    match cached with
    | Some _ -> Manager_shard.ack_wire  (* upgrade: data already valid *)
    | None -> line_reply_wire t
  in
  let entry =
    match cached with
    | Some e -> e
    | None ->
      let data, version = Memory_server.fetch srv line in
      install t ~line ~data ~version
  in
  entry.Cache.excl <- true;
  Coherence_sc.drop_sharer t.e.sc ~line ~thread:t.id;
  Coherence_sc.set_owner t.e.sc ~line ~thread:t.id;
  commit entry;
  (* --- end of transaction; pay the latency --- *)
  await_reply t ~src:(Memory_server.endpoint srv) ~at:ready ~bytes:reply_bytes;
  entry

(* Locate the cache entry for [addr], faulting it in on a miss. The
   caller derives the line offset with {!line_off} — returning the entry
   alone keeps the repeated-hit path free of the per-access tuple it used
   to build. Miss stalls count as compute time, matching the paper's
   measurement split. *)
let locate t addr : Cache.entry =
  let line = addr lsr t.e.layout.Layout.line_shift in
  let entry =
    match t.last with
    | Some e when e.Cache.line = line ->
      Cache.note_hit t.cache;
      e
    | _ -> (
        match Cache.find_exn t.cache line with
        | e ->
          Cache.note_hit t.cache;
          t.last <- Some e;
          e
        | exception Not_found ->
          (* Sync the clock before classifying: accumulated local time may
             let an in-flight prefetch of this very line land, turning the
             would-be miss into a hit. *)
          sync_clock t;
          (match Cache.find_exn t.cache line with
           | e ->
             Cache.note_hit t.cache;
             t.last <- Some e;
             e
           | exception Not_found ->
             Cache.note_miss t.cache;
             let start = now t in
             let e =
               match t.e.cfg.Config.model with
               | Config.Regc ->
                 with_failover t (fun () -> demand_fetch t line)
               | Config.Sc_invalidate -> sc_read_fetch t line
             in
             t.m_compute <- t.m_compute + Desim.Time.diff (now t) start;
             (* Under SC the copy may have been invalidated while the
                reply was in flight: this read still returns the value
                current at fetch time (legal — it linearizes at the home's
                service instant), but the stale object must not become the
                fast path. *)
             (match Cache.peek t.cache line with
              | Some e' when e' == e -> t.last <- Some e
              | _ -> t.last <- None);
             e))
  in
  charge t t.e.cfg.Config.t_mem;
  entry

let line_off t addr = addr land t.e.layout.Layout.line_mask

(* SC store driver: fast path on an exclusively-held line, else the full
   acquire transaction with the store committed inside it. [store] writes
   into the entry at the line offset and must not yield. *)
let sc_store t addr ~store =
  charge t t.e.cfg.Config.t_mem;
  let line = addr lsr t.e.layout.Layout.line_shift in
  let off = addr land t.e.layout.Layout.line_mask in
  match t.last with
  | Some e when e.Cache.line = line && e.Cache.excl ->
    Cache.note_hit t.cache;
    store e off
  | _ -> (
      match Cache.find t.cache line with
      | Some e when e.Cache.excl ->
        Cache.note_hit t.cache;
        t.last <- Some e;
        store e off
      | _ ->
        Cache.note_miss t.cache;
        sync_clock t;
        let start = now t in
        let e = sc_acquire_exclusive t line ~commit:(fun e -> store e off) in
        t.m_compute <- t.m_compute + Desim.Time.diff (now t) start;
        (* Keep the fast path only if the grant survived the latency. *)
        (match Cache.peek t.cache line with
         | Some e' when e' == e && e.Cache.excl -> t.last <- Some e
         | _ -> t.last <- None))

(* ------------------------------------------------------------------ *)
(* Typed accessors                                                     *)

let check_aligned addr =
  if addr land 7 <> 0 then
    invalid_arg "Samhita: 8-byte accesses must be 8-byte aligned"

let read_i64 t addr =
  check_aligned addr;
  let entry = locate t addr in
  let v = Bytes.get_int64_le entry.Cache.data (line_off t addr) in
  (* The probe test is inline: handing [v] to a helper would box it a
     second time even with nothing attached. *)
  (match t.e.probe with
   | None -> ()
   | Some p ->
     p.Probe.on_read ~thread:t.id ~time:(now t) ~addr ~len:8 ~value:(Some v));
  v

let write_i64 t addr v =
  check_aligned addr;
  (match t.e.probe with
   | None -> ()
   | Some p ->
     p.Probe.on_write ~thread:t.id ~time:(now t) ~addr ~len:8
       ~region:(region t) ~value:(Some v));
  match t.e.cfg.Config.model with
  | Config.Sc_invalidate ->
    sc_store t addr ~store:(fun (e : Cache.entry) off ->
        Bytes.set_int64_le e.Cache.data off v)
  | Config.Regc ->
    let entry = locate t addr in
    let off = line_off t addr in
    (* Dirty tracking must precede the store: the twin snapshots the
       pre-store contents, or the store would be absent from its own
       diff. *)
    (match t.held with
     | (_, log) :: _ ->
       (* Consistency region: fine-grained logging (the paper's
          instrumented store path). The store also lands in any twin so
          it can never be picked up a second time by this thread's
          ordinary-region diff — that stale re-flush would overwrite
          later holders' updates at the home. *)
       log := Update.of_i64 ~addr v :: !log;
       (match entry.Cache.twin with
        | Some twin -> Bytes.set_int64_le twin off v
        | None -> ())
     | [] -> Cache.mark_written t.cache entry ~offset:off ~len:8);
    Bytes.set_int64_le entry.Cache.data off v

let read_f64 t addr = Int64.float_of_bits (read_i64 t addr)
let write_f64 t addr v = write_i64 t addr (Int64.bits_of_float v)

(* Generic raw access, line segment by line segment. Bulk operations charge
   one cached-access cost per 8 bytes touched (locate charges the first). *)
let charge_extra_words t seg =
  if seg > 8 then
    charge t (float_of_int ((seg - 1) / 8) *. t.e.cfg.Config.t_mem)

let write_bytes t addr src =
  let len = Bytes.length src in
  if len > 0 then probe_write t ~addr ~len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    match t.e.cfg.Config.model with
    | Config.Sc_invalidate ->
      let off0 = a land t.e.layout.Layout.line_mask in
      let seg = min (len - !pos) (t.e.layout.Layout.line_bytes - off0) in
      let from = !pos in
      charge_extra_words t seg;
      sc_store t a ~store:(fun (e : Cache.entry) off ->
          Bytes.blit src from e.Cache.data off seg);
      pos := !pos + seg
    | Config.Regc ->
      let entry = locate t a in
      let off = line_off t a in
      let seg = min (len - !pos) (t.e.layout.Layout.line_bytes - off) in
      charge_extra_words t seg;
      (match t.held with
       | (_, log) :: _ ->
         log := { Update.addr = a; data = Bytes.sub src !pos seg } :: !log;
         (match entry.Cache.twin with
          | Some twin -> Bytes.blit src !pos twin off seg
          | None -> ())
       | [] -> Cache.mark_written t.cache entry ~offset:off ~len:seg);
      Bytes.blit src !pos entry.Cache.data off seg;
      pos := !pos + seg
  done

let read_bytes t addr ~len =
  if len < 0 then invalid_arg "Samhita.read_bytes: negative length";
  if len > 0 then probe_read t ~addr ~len;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let entry = locate t a in
    let off = line_off t a in
    let seg = min (len - !pos) (t.e.layout.Layout.line_bytes - off) in
    charge_extra_words t seg;
    Bytes.blit entry.Cache.data off out !pos seg;
    pos := !pos + seg
  done;
  out

let read_u8 t addr =
  let entry = locate t addr in
  probe_read t ~addr ~len:1;
  Char.code (Bytes.get entry.Cache.data (line_off t addr))

let write_u8 t addr v =
  if v < 0 || v > 255 then invalid_arg "Samhita.write_u8: value out of range";
  let b = Bytes.make 1 (Char.chr v) in
  write_bytes t addr b

let check_aligned4 addr =
  if addr land 3 <> 0 then
    invalid_arg "Samhita: 4-byte accesses must be 4-byte aligned"

let read_i32 t addr =
  check_aligned4 addr;
  let entry = locate t addr in
  probe_read t ~addr ~len:4;
  Bytes.get_int32_le entry.Cache.data (line_off t addr)

let write_i32 t addr v =
  check_aligned4 addr;
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  write_bytes t addr b

let read_f32 t addr = Int32.float_of_bits (read_i32 t addr)
let write_f32 t addr v = write_i32 t addr (Int32.bits_of_float v)

let in_consistency_region t = t.held <> []

(* Innermost-first, matching acquisition nesting. *)
let held_locks t = List.map fst t.held

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* Allocation is served by shard 0 (never killable), so the RPC needs no
   failover wrapper. *)
let manager_alloc_rpc t ~kind ~bytes =
  let mgr = Control_plane.alloc_shard t.e.cp in
  let served = shard_request t mgr ~bytes:alloc_request_wire in
  await_reply t ~src:(Manager_shard.endpoint mgr) ~at:served
    ~bytes:alloc_reply_wire;
  Manager_shard.alloc mgr ~kind ~bytes

let rec malloc_impl t ~bytes =
  if bytes <= 0 then invalid_arg "Samhita.malloc: bytes must be positive";
  charge t t.e.cfg.Config.t_mem;
  if bytes <= t.e.cfg.Config.small_threshold then begin
    match Allocator.Arena.alloc t.arena ~bytes with
    | `Hit addr -> addr
    | `Need_chunk ->
      sync_clock t;
      let start = now t in
      let size = t.e.cfg.Config.arena_chunk_bytes in
      let base = manager_alloc_rpc t ~kind:`Arena_chunk ~bytes:size in
      Allocator.Arena.add_chunk t.arena ~base ~size;
      t.m_alloc <- t.m_alloc + Desim.Time.diff (now t) start;
      malloc_impl t ~bytes
  end
  else begin
    sync_clock t;
    let start = now t in
    let kind =
      if bytes <= t.e.cfg.Config.large_threshold then `Shared else `Large
    in
    let addr = manager_alloc_rpc t ~kind ~bytes in
    t.m_alloc <- t.m_alloc + Desim.Time.diff (now t) start;
    addr
  end

let malloc t ~bytes =
  let addr = malloc_impl t ~bytes in
  (match t.e.probe with
   | None -> ()
   | Some p -> p.Probe.on_malloc ~thread:t.id ~time:(now t) ~addr ~bytes);
  addr

let free t ~addr ~bytes =
  (match t.e.probe with
   | None -> ()
   | Some p when bytes > 0 ->
     p.Probe.on_free ~thread:t.id ~time:(now t) ~addr ~bytes
   | Some _ -> ());
  if bytes > 0 && bytes <= t.e.cfg.Config.small_threshold then
    Allocator.Arena.free t.arena ~addr ~bytes

(* ------------------------------------------------------------------ *)
(* RegC grant application                                              *)

(* Version-based invalidation (lock-grant fallback path). A dirty entry is
   flushed first so this thread's ordinary writes are not lost; the home
   merge preserves them. *)
let apply_notices t notices =
  List.iter
    (fun (line, v) ->
       match Cache.peek t.cache line with
       | Some entry when entry.Cache.version <> v ->
         if entry.Cache.dirty_pages <> 0 then flush_entry t entry;
         forget_last t entry;
         Cache.invalidate t.cache line
       | Some _ -> ()
       | None ->
         (* Not cached, but a prefetch may be in flight: mark it stale. *)
         Cache.invalidate t.cache line)
    notices

(* Writer-set invalidation (barrier path): drop any cached line written by
   another thread this interval; only the home holds the merge. *)
let apply_writer_notices t notices =
  List.iter
    (fun (line, writers) ->
       if Tset.exists_other writers ~self:t.id then begin
         (match Cache.peek t.cache line with
          | Some entry ->
            forget_last t entry;
            Cache.invalidate t.cache line
          | None ->
            (* A prefetch may be in flight: mark it stale. *)
            Cache.invalidate t.cache line)
       end)
    notices

let apply_grant t (g : Manager_shard.grant) =
  match g.Manager_shard.action with
  | Manager_shard.Fresh -> ()
  | Manager_shard.Notices ns -> apply_notices t ns
  | Manager_shard.Patch (log, _line_versions) ->
    (* The aggregated log spans (last_seen, current]: its final absolute
       value per byte is the value as of the lock's current version, i.e.
       the newest value any release produced, so unconditional oldest-first
       application converges regardless of how fresh the cached copy is.
       (Writing the same byte both inside and outside consistency regions
       is a race, exactly as mixing atomic and plain accesses is under
       Pthreads.) Entry versions are deliberately left at their fetch/flush
       values: a patch refreshes only this lock's bytes, not the line. *)
    let patched = ref 0 in
    List.iter
      (fun (u : Update.t) ->
         List.iter
           (fun line ->
              match Cache.peek t.cache line with
              | Some entry ->
                Update.apply_to_line t.e.layout u ~line entry.Cache.data;
                (* Keep any twin in step so the patch is not re-flushed as
                   part of this thread's own diff. *)
                (match entry.Cache.twin with
                 | Some twin -> Update.apply_to_line t.e.layout u ~line twin
                 | None -> ());
                patched := !patched + Bytes.length u.Update.data
              | None -> ())
           (Update.lines_touched t.e.layout u))
      log;
    if !patched > 0 then
      Desim.Engine.delay
        (Desim.Time.span_of_float_ns
           (float_of_int !patched *. t.e.cfg.Config.diff_apply_ns_per_byte))

(* ------------------------------------------------------------------ *)
(* Fine-grained update flush (release path)                            *)

let flush_update_log t log =
  if log = [] then []
  else begin
    let merged = Hashtbl.create 16 in
    List.iter
      (fun (logical, batch) ->
         (* The physical server is re-resolved on every retry (see
            {!flush_diffs}). *)
         let wire = Update.log_wire_bytes batch in
         with_failover t (fun () ->
             let mirrored =
               home_rpc t ~logical ~request:wire ~payload:wire ~mirror:true
                 ~reply:diff_reply_wire
             in
             List.iter
               (fun u ->
                  let srv =
                    server_of t (List.hd (Update.lines_touched t.e.layout u))
                  in
                  let lvs = Memory_server.apply_update srv u in
                  if mirrored then
                    mirror_update t srv u ~line_versions:lvs;
                  List.iter
                    (fun (line, v) ->
                       probe_publish t ~srv ~line ~version:v;
                       Hashtbl.replace merged line v;
                       (* Our own cached copy already holds the stored
                          values; track the new home version so barrier
                          notices do not invalidate it spuriously. *)
                       match Cache.peek t.cache line with
                       | Some entry -> entry.Cache.version <- v
                       | None -> ())
                    lvs)
               batch))
      (Home.group_by_server t.e.cfg
         (fun u -> List.hd (Update.lines_touched t.e.layout u))
         log);
    (* Note: lines touched here are deliberately NOT added to
       interval_writes. Under RegC, consistency-region data propagates via
       the lock protocol (grant patches); only ordinary-region writes
       produce barrier write notices. Reading lock-protected data without
       the lock is a race, exactly as under Pthreads. *)
    Hashtbl.fold (fun l v acc -> (l, v) :: acc) merged []
  end

(* ------------------------------------------------------------------ *)
(* Synchronization                                                     *)

let mutex_lock t lock =
  sync_clock t;
  probe_sync t Probe.Lock_attempt lock;
  let start = now t in
  let last_seen =
    Option.value (Hashtbl.find_opt t.lock_seen lock) ~default:0
  in
  let grant =
    with_failover t (fun () ->
        let mgr = Control_plane.shard_for t.e.cp lock in
        (* The one-shot continuation is threaded through an [Ok]/[Error]
           result: if a transfer leg dies with the shard, the continuation
           is consumed with [Error] at the give-up instant and the crash
           re-raised outside — never leaked, never resumed twice. *)
        match
          Desim.Engine.suspendv ~register:(fun ~wake ->
              try
                let served =
                  shard_request t mgr ~bytes:Manager_shard.acquire_request_wire
                in
                match
                  Manager_shard.lock_acquire mgr ~now:served ~lock
                    ~thread:t.id ~last_seen ~endpoint:t.endpoint
                    ~wake:(fun g -> wake (Ok g))
                with
                | `Granted g ->
                  let reply =
                    transfer_from t ~src:(Manager_shard.endpoint mgr)
                      ~at:served ~bytes:g.Manager_shard.wire_bytes
                  in
                  Desim.Engine.schedule_at t.e.engine reply (fun () ->
                      wake (Ok g))
                | `Queued -> ()
              with Fabric.Scl.Node_dead (n, at) ->
                Desim.Engine.schedule_at t.e.engine at (fun () ->
                    wake (Error (n, at))))
        with
        | Ok g -> g
        | Error (n, at) -> raise (Fabric.Scl.Node_dead (n, at)))
  in
  apply_grant t grant;
  Hashtbl.replace t.lock_seen lock grant.Manager_shard.lock_version;
  probe_sync t Probe.Lock_acquired lock;
  t.held <- (lock, ref []) :: t.held;
  t.m_locks <- t.m_locks + 1;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let mutex_unlock t lock =
  sync_clock t;
  probe_sync t Probe.Release lock;
  let start = now t in
  let log =
    match List.assoc_opt lock t.held with
    | Some log_ref ->
      t.held <- List.remove_assoc lock t.held;
      List.rev !log_ref
    | None -> invalid_arg "Samhita.mutex_unlock: lock not held by thread"
  in
  let line_versions = flush_update_log t log in
  let wire = Manager_shard.release_wire ~log ~line_versions in
  (* The release carries a per-lock sequence number so a shard-crash
     retry that already executed is a no-op at the takeover shard. *)
  let seq = 1 + Option.value (Hashtbl.find_opt t.release_seq lock) ~default:0 in
  Hashtbl.replace t.release_seq lock seq;
  with_failover t (fun () ->
      let mgr = Control_plane.shard_for t.e.cp lock in
      let served = shard_request t mgr ~bytes:wire in
      Manager_shard.lock_release mgr ~seq ~now:served ~lock ~thread:t.id ~log
        ~line_versions;
      Hashtbl.replace t.lock_seen lock (Manager_shard.lock_version mgr lock);
      await_reply t ~src:(Manager_shard.endpoint mgr) ~at:served
        ~bytes:Manager_shard.ack_wire);
  probe_sync t Probe.Unlock lock;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let barrier_wait t barrier =
  sync_clock t;
  let start = now t in
  flush_dirty_all t;
  let lines = Hashtbl.fold (fun l () acc -> l :: acc) t.interval_writes [] in
  Hashtbl.reset t.interval_writes;
  let wire = barrier_arrive_overhead + (8 * List.length lines) in
  (* The shard bumps the epoch when it releases the barrier, so every
     participant captures the same epoch number before arriving. The
     capture also keys the shard-crash retry: an arrival whose episode
     already released replays that episode's notices instead of bleeding
     into the next one. *)
  let epoch =
    Manager_shard.barrier_epoch (Control_plane.shard_for t.e.cp barrier)
      barrier
  in
  probe_barrier t ~barrier ~epoch `Arrive;
  let all, _reply_wire =
    with_failover t (fun () ->
        let mgr = Control_plane.shard_for t.e.cp barrier in
        match
          Desim.Engine.suspendv ~register:(fun ~wake ->
              try
                let served = shard_request t mgr ~bytes:wire in
                match
                  Manager_shard.barrier_arrive mgr ~epoch ~now:served
                    ~barrier ~thread:t.id ~lines ~endpoint:t.endpoint
                    ~wake:(fun r -> wake (Ok r))
                with
                | `Released (all, reply_wire) ->
                  let reply =
                    transfer_from t ~src:(Manager_shard.endpoint mgr)
                      ~at:served ~bytes:reply_wire
                  in
                  Desim.Engine.schedule_at t.e.engine reply (fun () ->
                      wake (Ok (all, reply_wire)))
                | `Wait -> ()
              with Fabric.Scl.Node_dead (n, at) ->
                Desim.Engine.schedule_at t.e.engine at (fun () ->
                    wake (Error (n, at))))
        with
        | Ok r -> r
        | Error (n, at) -> raise (Fabric.Scl.Node_dead (n, at)))
  in
  probe_barrier t ~barrier ~epoch `Depart;
  apply_writer_notices t all;
  t.m_barriers <- t.m_barriers + 1;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let cond_wait t cond lock =
  let mgr = Control_plane.shard_for t.e.cp cond in
  (* POSIX requires releasing the mutex and starting the wait to be one
     atomic step, so the waiter registers with the shard before the
     release. Registering after the release's ack round trip (as an
     earlier version did) leaves a window where another thread can
     acquire, signal and release while we are still in flight — the
     signal finds no waiter and the wakeup is lost. The latch handles a
     signal that lands before we manage to suspend. *)
  let state = ref `Armed in
  Manager_shard.cond_wait mgr ~cond ~thread:t.id ~endpoint:t.endpoint
    ~wake:(fun () ->
        match !state with
        | `Suspended wake -> wake ()
        | _ -> state := `Signalled);
  mutex_unlock t lock;
  let start = now t in
  (match !state with
   | `Signalled -> ()
   | _ ->
     Desim.Engine.suspendv ~register:(fun ~wake ->
         (* The waiter is already registered (the direct call above); this
            round trip only models the wait notification's wire cost. If
            the shard died mid-flight the cost is forfeited but the wake
            path stays intact: the registration travels with the absorbed
            state and a signal on the takeover shard fires it. *)
         (try
            ignore (shard_request t mgr ~bytes:cond_request_wire : Desim.Time.t)
          with Fabric.Scl.Node_dead _ -> ());
         state := `Suspended wake));
  probe_sync t Probe.Cond_wake cond;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start;
  mutex_lock t lock

let cond_wake_op t cond ~broadcast =
  sync_clock t;
  probe_sync t Probe.Cond_signal cond;
  let start = now t in
  (* A shard-crash retry whose first attempt already signalled can wake a
     second waiter — a spurious wakeup, benign under the pthreads
     contract (waiters re-check their predicate in a loop). *)
  with_failover t (fun () ->
      let mgr = Control_plane.shard_for t.e.cp cond in
      let served = shard_request t mgr ~bytes:cond_request_wire in
      let woken =
        if broadcast then Manager_shard.cond_broadcast mgr ~now:served ~cond
        else Manager_shard.cond_signal mgr ~now:served ~cond
      in
      ignore (woken : int);
      await_reply t ~src:(Manager_shard.endpoint mgr) ~at:served
        ~bytes:Manager_shard.ack_wire);
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let cond_signal t cond = cond_wake_op t cond ~broadcast:false
let cond_broadcast t cond = cond_wake_op t cond ~broadcast:true

(* ------------------------------------------------------------------ *)
(* Lifecycle / metrics                                                 *)

let finish t = sync_clock t

let compute_ns t = t.m_compute
let sync_ns t = t.m_sync
let alloc_ns t = t.m_alloc
let idle_ns t = t.m_idle
let lock_acquires t = t.m_locks
let barrier_waits t = t.m_barriers
let failover_waits t = t.m_failovers

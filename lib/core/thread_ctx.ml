(* The public thread API. This file holds the access path (the software
   cache's hit path, demand fetch and prefetch) and allocation; the layers
   below it hold the rest: the context and clock ({!Ctx}), the round trips
   and diff flushes ({!Round_trip}), the SC protocol ({!Coherence_sc}) and
   synchronization ({!Sync}). Every hit-path callee stays in this file:
   dune's dev profile compiles modules opaque, so a call that crosses a
   module boundary is never inlined. *)

include Ctx
open Round_trip

let create e ~id ~node =
  let t = Ctx.create e ~id ~node in
  (* Register this thread's cache with the SC directory so remote writers
     can invalidate/recall its copies (unused under RegC). *)
  Coherence_sc.register t;
  t

let id t = t.id
let env t = t.e
let cache t = t.cache

(* {!Ctx.now} again, for the probe branches of the inlined accessors: a
   call into another module is never inlined (dev builds are opaque), and
   that call alone changes the register allocation of the hit path. *)
let now t = Desim.Engine.now t.e.engine

let charge t ns =
  Float.Array.unsafe_set t.accum 0 (Float.Array.unsafe_get t.accum 0 +. ns)
let charge_flops t n = charge t (float_of_int n *. t.e.cfg.Config.t_flop)

(* ------------------------------------------------------------------ *)
(* Demand paging                                                       *)

let evict_victim t (victim : Cache.entry) =
  match t.e.cfg.Config.model with
  | Config.Regc ->
    if victim.Cache.dirty_pages <> 0 then flush_entry t victim
  | Config.Sc_invalidate -> Coherence_sc.evict t victim

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
    match
      let served = home_request t srv ~request:Wire.fetch_request ~payload:0 in
      transfer_from t ~src:(Memory_server.node srv) ~at:served
        ~bytes:(Wire.line_reply t.e.layout)
    with
    | arrival ->
      Desim.Engine.schedule_at t.e.engine arrival (fun () ->
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
    (match Desim.Engine.suspend ~register:(fun ~wake -> register wake) with
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
      (home_rpc t ~logical ~request:Wire.fetch_request ~payload:0
         ~mirror:false ~reply:(Wire.line_reply t.e.layout)
       : bool);
    (* The fence passed, so [logical] still maps to the server the round
       trip reached: a reply assembled by a deposed primary never enters
       the cache. *)
    let srv = t.e.servers.(Directory.physical_of_logical t.e.dir logical) in
    let data, version = Memory_server.fetch srv line in
    install t ~line ~data ~version

(* Locate the cache entry for [addr], faulting it in on a miss. The
   caller derives the line offset with {!line_off} — returning the entry
   alone keeps the repeated-hit path free of the per-access tuple it used
   to build. Miss stalls count as compute time, matching the paper's
   measurement split. *)
let locate t addr : Cache.entry =
  let line = addr lsr t.e.layout.Layout.line_shift in
  let entry =
    match t.last with
    | Some e when e.Cache.line = line && e.Cache.lru_next != e ->
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
               | Config.Sc_invalidate -> Coherence_sc.read_fetch t line
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

(* ------------------------------------------------------------------ *)
(* Typed accessors                                                     *)

let check_aligned addr =
  if addr land 7 <> 0 then
    invalid_arg "Samhita: 8-byte accesses must be 8-byte aligned"

(* [read_i64] and [write_i64] are inlined so that [read_f64] and
   [write_f64] below keep the word's bits unboxed: only the probe branch
   and [write_i64_general] need the boxed int64. *)
let[@inline] read_i64 t addr =
  check_aligned addr;
  let entry = locate t addr in
  let v = Bytes.get_int64_le entry.Cache.data (line_off t addr) in
  (* The probe test is inline: handing [v] to a helper would box it a
     second time even with nothing attached. *)
  (match t.e.probe with
   | None -> ()
   | Some p ->
     p.Probe.on_read ~thread:t.id ~time:(now t) ~addr ~value:v);
  v

(* Every 8-byte store except the one [write_i64] handles inline. These
   take [v] boxed: the probe, the region log's update and the SC commit
   closure all hold it. *)
let write_i64_general t addr v =
  (match t.e.probe with
   | None -> ()
   | Some p ->
     p.Probe.on_write ~thread:t.id ~time:(now t) ~addr ~region:(region t)
       ~value:v);
  match t.e.cfg.Config.model with
  | Config.Sc_invalidate -> (
      charge t t.e.cfg.Config.t_mem;
      match Coherence_sc.owned t addr with
      | e -> Bytes.set_int64_le e.Cache.data (line_off t addr) v
      | exception Not_found -> Coherence_sc.store_miss t addr v)
  | Config.Regc ->
    let entry = locate t addr in
    let off = line_off t addr in
    (* Dirty tracking must precede the store: the twin snapshots the
       page's pre-store contents, or the store would be absent from its
       own diff. *)
    (match t.held with
     | r :: _ ->
       (* Consistency region: fine-grained logging (the paper's
          instrumented store path). The store also lands in the page's
          twin, if it has one, so it can never be picked up a second time
          by this thread's ordinary-region diff — that stale re-flush
          would overwrite later holders' updates at the home. An
          untwinned page copies the store when it is twinned. *)
       r.r_log <- Update.of_i64 ~addr v :: r.r_log;
       Cache.set_twin_word t.cache entry ~offset:off v
     | [] -> Cache.mark_written t.cache entry ~offset:off);
    Bytes.set_int64_le entry.Cache.data off v

(* The common store — RegC, ordinary region, no probe attached — is
   handled here with [v] unboxed; [write_i64_general] above serves the
   rest. *)
let[@inline] write_i64 t addr v =
  check_aligned addr;
  match (t.e.probe, t.e.cfg.Config.model, t.held) with
  | None, Config.Regc, [] ->
    let entry = locate t addr in
    let off = line_off t addr in
    (* Only the first store to a page since its last flush twins it; the
       bit is tested here so that a hit makes no call. *)
    if
      entry.Cache.dirty_pages
      land (1 lsl (off lsr t.e.layout.Layout.page_shift))
      = 0
    then Cache.mark_written t.cache entry ~offset:off;
    Bytes.set_int64_le entry.Cache.data off v
  | _ -> write_i64_general t addr v

let read_f64 t addr = Int64.float_of_bits (read_i64 t addr)
let write_f64 t addr v = write_i64 t addr (Int64.bits_of_float v)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* Allocation is served by shard 0 (never killable), so the RPC needs no
   failover wrapper. *)
let manager_alloc_rpc t ~kind ~bytes =
  let mgr = Control_plane.alloc_shard t.e.cp in
  let served = shard_request t mgr ~bytes:Wire.alloc_request in
  await_reply t ~src:(Manager_shard.node mgr) ~at:served
    ~bytes:Wire.alloc_reply;
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
(* Synchronization (see {!Sync})                                       *)

let mutex_lock = Sync.mutex_lock
let mutex_unlock = Sync.mutex_unlock
let barrier_wait = Sync.barrier_wait
let cond_wait = Sync.cond_wait
let cond_signal = Sync.cond_signal
let cond_broadcast = Sync.cond_broadcast

(* A compute thread's synchronization under RegC: applying lock grants and
   barrier write notices, flushing a consistency region's update log on
   release, and the lock, barrier and condition-variable operations. *)

open Ctx
open Round_trip

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
       (* Also marks a prefetch of the line in flight stale. *)
       if Tset.exists_other writers ~self:t.id then
         Cache.invalidate t.cache line)
    notices

(* Apply a patch's updates to the lines this thread caches; returns
   [patched] plus the bytes written. *)
let rec patch_cached t (log : Update.t list) patched =
  match log with
  | [] -> patched
  | u :: rest -> (
      let line = Update.line_of t.e.layout u in
      match Cache.peek t.cache line with
      | Some entry ->
        Update.apply_to_line t.e.layout u ~line entry.Cache.data;
        (* Keep the page's twin in step so the patch is not re-flushed
           as part of this thread's own diff. *)
        Cache.set_twin_word t.cache entry
          ~offset:(Layout.offset_in_line t.e.layout u.Update.addr)
          u.Update.value;
        patch_cached t rest (patched + 8)
      | None -> patch_cached t rest patched)

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
    let patched = patch_cached t log 0 in
    if patched > 0 then
      Desim.Engine.delay
        (Desim.Time.span_of_units ~units:patched
           ~ns_per_unit:t.e.cfg.Config.diff_apply_ns_per_byte)

(* ------------------------------------------------------------------ *)
(* Fine-grained update flush (release path)                            *)

let flush_update_log t log =
  if log = [] then []
  else begin
    (* A reset table folds in the same order as a fresh one. *)
    let merged = t.merged in
    Hashtbl.reset merged;
    List.iter
      (fun (logical, batch) ->
         (* The physical server is re-resolved on every retry (see
            {!Round_trip.flush_diffs}). *)
         let wire = Wire.update_log batch in
         with_failover t (fun () ->
             let mirrored =
               home_rpc t ~logical ~request:wire
                 ~payload:(Wire.update_log_service batch) ~mirror:true
                 ~reply:Wire.diff_ack
             in
             List.iter
               (fun u ->
                  let srv = server_of t (Update.line_of t.e.layout u) in
                  let line, v = Memory_server.apply_update srv u in
                  if mirrored then mirror_update t srv u ~line ~version:v;
                  probe_publish t ~srv ~line ~version:v;
                  Hashtbl.replace merged line v;
                  (* Our own cached copy already holds the stored value;
                     track the new home version so barrier notices do not
                     invalidate it spuriously. *)
                  match Cache.peek t.cache line with
                  | Some entry -> entry.Cache.version <- v
                  | None -> ())
               batch))
      (Home.group_by_server t.e.cfg (Update.line_of t.e.layout) log);
    (* Note: lines touched here are deliberately NOT added to
       interval_writes. Under RegC, consistency-region data propagates via
       the lock protocol (grant patches); only ordinary-region writes
       produce barrier write notices. Reading lock-protected data without
       the lock is a race, exactly as under Pthreads. *)
    Hashtbl.fold (fun l v acc -> (l, v) :: acc) merged []
  end

(* ------------------------------------------------------------------ *)
(* Synchronization                                                     *)

(* The acquire's round trip, retried as {!with_failover} would but with
   no closure: the request leg goes out before the suspend, so a dead
   shard's [Node_dead] reaches the retry directly. Once the shard
   executed the acquire, the grant is its push (re-driven by a takeover
   if the shard died), never a re-sent request. *)
let rec acquire_grant t lock ~last_seen =
  match
    let mgr = Control_plane.shard_for t.e.cp lock in
    let served = shard_request t mgr ~bytes:Wire.acquire_request in
    Desim.Engine.suspend ~register:(fun ~wake ->
        Manager_shard.lock_acquire mgr ~now:served ~lock ~thread:t.id
          ~last_seen ~node:t.node ~wake)
  with
  | grant -> grant
  | exception exn when retryable exn ->
    failover t exn;
    acquire_grant t lock ~last_seen

let mutex_lock t lock =
  sync_clock t;
  probe_sync t Probe.Lock_attempt lock;
  let start = now t in
  let last_seen = try Hashtbl.find t.lock_seen lock with Not_found -> 0 in
  let grant = acquire_grant t lock ~last_seen in
  apply_grant t grant;
  Hashtbl.replace t.lock_seen lock grant.Manager_shard.lock_version;
  probe_sync t Probe.Lock_acquired lock;
  t.held <- { r_lock = lock; r_log = [] } :: t.held;
  t.m_locks <- t.m_locks + 1;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

(* Remove [lock]'s region from the held stack; usually the innermost. *)
let take_region t lock =
  match t.held with
  | r :: rest when r.r_lock = lock ->
    t.held <- rest;
    r
  | held -> (
      match List.find (fun r -> r.r_lock = lock) held with
      | r ->
        t.held <- List.filter (fun r' -> r' != r) held;
        r
      | exception Not_found ->
        invalid_arg "Samhita.mutex_unlock: lock not held by thread")

(* The release's round trip, retried like {!acquire_grant}. *)
let rec release_lock t lock ~seq ~log ~line_versions =
  match
    let mgr = Control_plane.shard_for t.e.cp lock in
    let served =
      shard_request t mgr ~bytes:(Wire.release ~log ~line_versions)
    in
    (* The version this thread's own release produced: a duplicate
       retry after a takeover must not claim releases other threads
       made in between. *)
    let version =
      Manager_shard.lock_release mgr ~seq ~now:served ~lock ~thread:t.id
        ~log ~line_versions
    in
    Hashtbl.replace t.lock_seen lock version;
    await_reply t ~src:(Manager_shard.node mgr) ~at:served
      ~bytes:Wire.ack
  with
  | () -> ()
  | exception exn when retryable exn ->
    failover t exn;
    release_lock t lock ~seq ~log ~line_versions

let mutex_unlock t lock =
  sync_clock t;
  probe_sync t Probe.Release lock;
  let start = now t in
  let log = List.rev (take_region t lock).r_log in
  let line_versions = flush_update_log t log in
  (* The release carries a per-lock sequence number so a shard-crash
     retry that already executed is a no-op at the takeover shard. *)
  let seq = 1 + (try Hashtbl.find t.release_seq lock with Not_found -> 0) in
  Hashtbl.replace t.release_seq lock seq;
  release_lock t lock ~seq ~log ~line_versions;
  probe_sync t Probe.Unlock lock;
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let barrier_wait t barrier =
  sync_clock t;
  let start = now t in
  flush_dirty_all t;
  let lines = Hashtbl.fold (fun l () acc -> l :: acc) t.interval_writes [] in
  Hashtbl.reset t.interval_writes;
  (* The shard bumps the epoch when it releases the barrier, so every
     participant captures the same epoch number before arriving. Only the
     probe reads it: the release is a push like a grant, so a shard crash
     never makes a thread re-arrive for an episode already released. *)
  let epoch =
    Manager_shard.barrier_epoch (Control_plane.shard_for t.e.cp barrier)
      barrier
  in
  probe_barrier t ~barrier ~epoch `Arrive;
  let all =
    with_failover t (fun () ->
        let mgr = Control_plane.shard_for t.e.cp barrier in
        let served = shard_request t mgr ~bytes:(Wire.barrier_arrive lines) in
        Desim.Engine.suspend ~register:(fun ~wake ->
            Manager_shard.barrier_arrive mgr ~now:served ~barrier
              ~thread:t.id ~lines ~node:t.node ~wake))
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
  Manager_shard.cond_wait mgr ~cond ~thread:t.id ~node:t.node
    ~wake:(fun () ->
        match !state with
        | `Suspended wake -> wake ()
        | _ -> state := `Signalled);
  mutex_unlock t lock;
  let start = now t in
  (match !state with
   | `Signalled -> ()
   | _ ->
     Desim.Engine.suspend ~register:(fun ~wake ->
         (* The waiter is already registered (the direct call above); this
            round trip only models the wait notification's wire cost. If
            the shard died mid-flight the cost is forfeited but the wake
            path stays intact: the registration travels with the absorbed
            state and a signal on the takeover shard fires it. *)
         (try
            ignore (shard_request t mgr ~bytes:Wire.cond_request : Desim.Time.t)
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
      let served = shard_request t mgr ~bytes:Wire.cond_request in
      let woken =
        if broadcast then Manager_shard.cond_broadcast mgr ~now:served ~cond
        else Manager_shard.cond_signal mgr ~now:served ~cond
      in
      ignore (woken : int);
      await_reply t ~src:(Manager_shard.node mgr) ~at:served
        ~bytes:Wire.ack);
  t.m_sync <- t.m_sync + Desim.Time.diff (now t) start

let cond_signal t cond = cond_wake_op t cond ~broadcast:false
let cond_broadcast t cond = cond_wake_op t cond ~broadcast:true

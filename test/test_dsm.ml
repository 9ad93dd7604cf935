(* Integration tests of the full DSM stack: System + Thread_ctx + RegC.

   These tests exercise real data movement through the simulated cluster:
   demand paging, twins/diffs, multiple-writer merging, write notices,
   fine-grained lock-grant patching, prefetching, eviction, allocation,
   condition variables and the single-node manager bypass. *)

module T = Samhita.Thread_ctx

let cfg = Samhita.Config.default
let line_bytes = Samhita.Config.line_bytes cfg

let run_threads ?config ~threads body =
  let sys = Samhita.System.create ?config ~threads () in
  for tid = 0 to threads - 1 do
    ignore (Samhita.System.spawn sys (fun t -> body sys tid t) : T.t)
  done;
  Samhita.System.run sys;
  sys

(* ---------------- basics ---------------- *)

let test_read_own_write () =
  ignore
    (run_threads ~threads:1 (fun sys _tid t ->
         ignore sys;
         let a = T.malloc t ~bytes:64 in
         T.write_f64 t a 3.25;
         T.write_i64 t (a + 8) 99L;
         Alcotest.(check (float 0.)) "f64" 3.25 (T.read_f64 t a);
         Alcotest.(check int64) "i64" 99L (T.read_i64 t (a + 8))))

let test_zero_fill () =
  ignore
    (run_threads ~threads:1 (fun _sys _tid t ->
         let a = T.malloc t ~bytes:64 in
         Alcotest.(check (float 0.)) "fresh memory is zero" 0.0
           (T.read_f64 t a)))

let test_alignment_enforced () =
  ignore
    (run_threads ~threads:1 (fun _sys _tid t ->
         let a = T.malloc t ~bytes:64 in
         Alcotest.check_raises "misaligned"
           (Invalid_argument
              "Samhita: 8-byte accesses must be 8-byte aligned") (fun () ->
             ignore (T.read_f64 t (a + 4)))))

let test_malloc_invalid () =
  ignore
    (run_threads ~threads:1 (fun _sys _tid t ->
         Alcotest.check_raises "bytes<=0"
           (Invalid_argument "Samhita.malloc: bytes must be positive")
           (fun () -> ignore (T.malloc t ~bytes:0))))

let test_unlock_without_lock () =
  ignore
    (run_threads ~threads:1 (fun sys _tid t ->
         let l = Samhita.System.mutex sys in
         Alcotest.check_raises "unlock unheld"
           (Invalid_argument "Samhita.mutex_unlock: lock not held by thread")
           (fun () -> T.mutex_unlock t l)))

let test_arena_reuse_after_free () =
  ignore
    (run_threads ~threads:1 (fun _sys _tid t ->
         let a1 = T.malloc t ~bytes:128 in
         T.free t ~addr:a1 ~bytes:128;
         let a2 = T.malloc t ~bytes:128 in
         Alcotest.(check int) "exact-size reuse" a1 a2))

let test_three_allocation_strategies () =
  ignore
    (run_threads ~threads:1 (fun sys _tid t ->
         let small = T.malloc t ~bytes:64 in
         let medium = T.malloc t ~bytes:(cfg.small_threshold * 2) in
         let large = T.malloc t ~bytes:(cfg.large_threshold * 2) in
         Alcotest.(check int) "medium 8-aligned" 0 (medium mod 8);
         Alcotest.(check int) "large stripe-aligned" 0
           (large mod Samhita.Home.stripe_bytes cfg);
         (* All three land in distinct, non-overlapping GAS regions. *)
         let mgr = Samhita.System.manager sys in
         Alcotest.(check bool) "gas covers them" true
           (Samhita.Manager_shard.gas_used mgr
            > max small (max medium large));
         (* And are usable. *)
         T.write_f64 t small 1.0;
         T.write_f64 t medium 2.0;
         T.write_f64 t large 3.0;
         Alcotest.(check (float 0.)) "small" 1.0 (T.read_f64 t small);
         Alcotest.(check (float 0.)) "medium" 2.0 (T.read_f64 t medium);
         Alcotest.(check (float 0.)) "large" 3.0 (T.read_f64 t large)))

(* ---------------- barrier propagation / multiple writers ---------------- *)

(* Each thread writes its slice of one shared line; after a barrier every
   thread must observe every other thread's bytes (home-merged diffs). *)
let test_multiple_writer_merge () =
  let threads = 4 in
  let base = ref 0 in
  let errors = ref 0 in
  let sys = Samhita.System.create ~threads () in
  let bar = Samhita.System.barrier sys ~parties:threads in
  let slice = line_bytes / threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:line_bytes;
           T.barrier_wait t bar;
           for o = 0 to (slice / 8) - 1 do
             T.write_f64 t
               (!base + (tid * slice) + (o * 8))
               (float_of_int (100 + tid))
           done;
           T.barrier_wait t bar;
           for other = 0 to threads - 1 do
             for o = 0 to (slice / 8) - 1 do
               let got = T.read_f64 t (!base + (other * slice) + (o * 8)) in
               if got <> float_of_int (100 + other) then incr errors
             done
           done)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check int) "no stale or lost bytes" 0 !errors

(* Repeated write/read rounds over the same shared line. *)
let test_barrier_rounds () =
  let threads = 3 in
  let rounds = 5 in
  let base = ref 0 in
  let errors = ref 0 in
  let sys = Samhita.System.create ~threads () in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:(threads * 8);
           T.barrier_wait t bar;
           for r = 1 to rounds do
             T.write_f64 t (!base + (tid * 8)) (float_of_int ((r * 10) + tid));
             T.barrier_wait t bar;
             for other = 0 to threads - 1 do
               let got = T.read_f64 t (!base + (other * 8)) in
               if got <> float_of_int ((r * 10) + other) then incr errors
             done;
             T.barrier_wait t bar
           done)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check int) "every round coherent" 0 !errors

(* ---------------- locks & fine-grained updates ---------------- *)

let test_lock_protected_counter () =
  let threads = 8 in
  let iters = 20 in
  let addr = ref 0 in
  let final = ref nan in
  let sys = Samhita.System.create ~threads () in
  let l = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then begin
             addr := T.malloc t ~bytes:8;
             T.write_f64 t !addr 0.0
           end;
           T.barrier_wait t bar;
           for _ = 1 to iters do
             T.mutex_lock t l;
             T.write_f64 t !addr (T.read_f64 t !addr +. 1.0);
             T.mutex_unlock t l
           done;
           T.barrier_wait t bar;
           if tid = 0 then begin
             T.mutex_lock t l;
             final := T.read_f64 t !addr;
             T.mutex_unlock t l
           end)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check (float 0.)) "all increments survive"
    (float_of_int (threads * iters))
    !final

(* With zero history the acquire path must fall back to invalidation and
   still be correct. *)
let test_lock_counter_no_history () =
  let config = { cfg with update_log_history = 0 } in
  let threads = 4 in
  let addr = ref 0 in
  let final = ref nan in
  let sys = Samhita.System.create ~config ~threads () in
  let l = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then addr := T.malloc t ~bytes:8;
           T.barrier_wait t bar;
           for _ = 1 to 10 do
             T.mutex_lock t l;
             T.write_f64 t !addr (T.read_f64 t !addr +. 1.0);
             T.mutex_unlock t l
           done;
           T.barrier_wait t bar;
           if tid = 0 then begin
             T.mutex_lock t l;
             final := T.read_f64 t !addr;
             T.mutex_unlock t l
           end)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check (float 0.)) "invalidate fallback correct" 40.0 !final

(* A lock-fallback notice that names a line this thread holds dirty: the
   grant (no history, so [Notices]) must flush the ordinary store before
   it invalidates the stale copy. Thread 0 caches line L before the
   barrier, then stores w0 with no barrier afterwards; thread 1 stores w1
   of the same line under the lock and releases; thread 0 then acquires
   and must read both words back, and the home must hold w0. *)
let test_notice_flushes_dirty_line () =
  let config = { cfg with update_log_history = 0; prefetch = false } in
  let sys = Samhita.System.create ~config ~threads:2 () in
  let l = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:2 in
  let a = ref 0 in
  let w0 = ref 0L and w1 = ref 0L in
  for tid = 0 to 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then begin
             a := T.malloc t ~bytes:16;
             ignore (T.read_i64 t !a : int64)
           end;
           T.barrier_wait t bar;
           if tid = 0 then begin
             T.write_i64 t !a 42L;
             (* Let thread 1's locked store and release land first. *)
             T.idle_until t (T.now_ns t + 1_000_000);
             T.mutex_lock t l;
             w0 := T.read_i64 t !a;
             w1 := T.read_i64 t (!a + 8);
             T.mutex_unlock t l
           end
           else begin
             T.mutex_lock t l;
             T.write_i64 t (!a + 8) 7L;
             T.mutex_unlock t l
           end)
        : T.t)
  done;
  Samhita.System.run sys;
  let line = !a / line_bytes in
  Alcotest.(check int) "both words on one line" line ((!a + 8) / line_bytes);
  Alcotest.(check int64) "own ordinary store survives" 42L !w0;
  Alcotest.(check int64) "locked store visible" 7L !w1;
  let home =
    (Samhita.System.servers sys).(Samhita.Home.server_of_line config ~line)
  in
  Alcotest.(check int64) "home holds w0" 42L
    (Bytes.get_int64_le (Samhita.Memory_server.line home line)
       (!a mod line_bytes))

let test_nested_locks () =
  let threads = 2 in
  let addr = ref 0 in
  let final = ref nan in
  let sys = Samhita.System.create ~threads () in
  let outer = Samhita.System.mutex sys in
  let inner = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then addr := T.malloc t ~bytes:16;
           T.barrier_wait t bar;
           for _ = 1 to 5 do
             T.mutex_lock t outer;
             T.write_f64 t !addr (T.read_f64 t !addr +. 1.0);
             T.mutex_lock t inner;
             T.write_f64 t (!addr + 8) (T.read_f64 t (!addr + 8) +. 2.0);
             T.mutex_unlock t inner;
             T.mutex_unlock t outer
           done;
           T.barrier_wait t bar;
           if tid = 0 then begin
             T.mutex_lock t outer;
             T.mutex_lock t inner;
             final := T.read_f64 t !addr +. T.read_f64 t (!addr + 8);
             T.mutex_unlock t inner;
             T.mutex_unlock t outer
           end)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check (float 0.)) "nested regions both propagate" 30.0 !final

let test_mutual_exclusion_is_real () =
  (* Under mutual exclusion, observed occupancy never exceeds one. *)
  let threads = 6 in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let sys = Samhita.System.create ~threads () in
  let l = Samhita.System.mutex sys in
  for _tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           for _ = 1 to 5 do
             T.mutex_lock t l;
             incr inside;
             if !inside > !max_inside then max_inside := !inside;
             (* Hold the lock across simulated time. *)
             T.charge_flops t 10_000;
             decr inside;
             T.mutex_unlock t l
           done)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check int) "never two holders" 1 !max_inside

(* ---------------- eviction under pressure ---------------- *)

let test_tiny_cache_correctness () =
  (* A 2-line cache forces constant eviction; data must survive via
     flush-on-evict and refetch. *)
  let config = { cfg with cache_lines = 2; prefetch = false } in
  let lines = 6 in
  ignore
    (run_threads ~config ~threads:1 (fun _sys _tid t ->
         let a = T.malloc t ~bytes:(lines * line_bytes) in
         for i = 0 to lines - 1 do
           T.write_f64 t (a + (i * line_bytes)) (float_of_int i)
         done;
         for i = 0 to lines - 1 do
           Alcotest.(check (float 0.))
             (Printf.sprintf "line %d survives eviction" i)
             (float_of_int i)
             (T.read_f64 t (a + (i * line_bytes)))
         done;
         Alcotest.(check bool) "evictions happened" true
           (Samhita.Cache.evictions (T.cache t) > 0)))

let test_tiny_cache_multithreaded () =
  let config = { cfg with cache_lines = 2; prefetch = false } in
  let threads = 3 in
  let lines = 4 in
  let base = ref 0 in
  let errors = ref 0 in
  let sys = Samhita.System.create ~config ~threads () in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then
             base := T.malloc t ~bytes:(threads * lines * line_bytes);
           T.barrier_wait t bar;
           for i = 0 to lines - 1 do
             T.write_f64 t
               (!base + (((tid * lines) + i) * line_bytes))
               (float_of_int ((tid * 100) + i))
           done;
           T.barrier_wait t bar;
           let other = (tid + 1) mod threads in
           for i = 0 to lines - 1 do
             let got =
               T.read_f64 t (!base + (((other * lines) + i) * line_bytes))
             in
             if got <> float_of_int ((other * 100) + i) then incr errors
           done)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check int) "cross-thread reads correct under thrash" 0 !errors

(* ---------------- prefetching ---------------- *)

let test_prefetch_installs_adjacent () =
  ignore
    (run_threads ~threads:1 (fun _sys _tid t ->
         let a = T.malloc t ~bytes:(4 * line_bytes) in
         (* Sequential walk with enough compute between touches for the
            asynchronous prefetch of the adjacent line to land. *)
         for i = 0 to 3 do
           ignore (T.read_f64 t (a + (i * line_bytes)));
           T.charge_flops t 1_000_000
         done;
         let c = T.cache t in
         Alcotest.(check bool) "prefetch installs happened" true
           (Samhita.Cache.prefetch_installs c > 0);
         Alcotest.(check bool) "fewer demand misses than lines touched" true
           (Samhita.Cache.misses c < 4)))

let test_prefetch_off () =
  let config = { cfg with prefetch = false } in
  ignore
    (run_threads ~config ~threads:1 (fun _sys _tid t ->
         let a = T.malloc t ~bytes:(4 * line_bytes) in
         for i = 0 to 3 do
           ignore (T.read_f64 t (a + (i * line_bytes)))
         done;
         Alcotest.(check int) "no prefetch installs" 0
           (Samhita.Cache.prefetch_installs (T.cache t))))

(* A prefetch delivery ([Cache.pending_complete] -> [Cache.try_install])
   runs outside any thread and may displace a clean victim with no
   eviction callback — here the line thread 0 just read, which its
   single-line fast path still names. The two installs below are exactly
   what two such deliveries do to a full two-line cache. A store through
   the fast path must not reach the displaced entry: it would never be
   flushed, and thread 1 would read the old value after the barrier. *)
let test_prefetch_displaces_fast_path_line () =
  let config = { cfg with cache_lines = 2; prefetch = false } in
  let sys = Samhita.System.create ~config ~threads:2 () in
  let bar = Samhita.System.barrier sys ~parties:2 in
  let addr = ref 0 and seen = ref 0L in
  for tid = 0 to 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then begin
             let a = T.malloc t ~bytes:64 in
             addr := a;
             ignore (T.read_i64 t a : int64);
             let far = (a / line_bytes) + 100 in
             let deliver line =
               Samhita.Cache.try_install (T.cache t) ~line
                 ~data:(Bytes.make line_bytes '\000') ~version:0
             in
             Alcotest.(check bool) "room for the first" true (deliver far);
             Alcotest.(check bool) "second displaces the read line" true
               (deliver (far + 1));
             Alcotest.(check bool) "read line gone" true
               (Samhita.Cache.peek (T.cache t) (a / line_bytes) = None);
             T.write_i64 t a 42L
           end;
           T.barrier_wait t bar;
           if tid = 1 then seen := T.read_i64 t !addr)
       : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check int64) "store after displacement is published" 42L !seen

(* ---------------- condition variables ---------------- *)

let test_cond_ping_pong () =
  let threads = 2 in
  let addr = ref 0 in
  let observed = ref [] in
  let sys = Samhita.System.create ~threads () in
  let l = Samhita.System.mutex sys in
  let c = Samhita.System.cond sys in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then begin
             addr := T.malloc t ~bytes:8;
             T.write_f64 t !addr 0.0
           end;
           T.barrier_wait t bar;
           if tid = 0 then begin
             (* Consumer: wait until the flag is set, then record it. *)
             T.mutex_lock t l;
             while T.read_f64 t !addr = 0.0 do
               T.cond_wait t c l
             done;
             observed := T.read_f64 t !addr :: !observed;
             T.mutex_unlock t l
           end
           else begin
             T.charge_flops t 100_000;
             T.mutex_lock t l;
             T.write_f64 t !addr 42.0;
             T.cond_signal t c;
             T.mutex_unlock t l
           end)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check (list (float 0.))) "consumer saw the flag" [ 42.0 ]
    !observed

let test_cond_broadcast_wakes_all () =
  let threads = 4 in
  let woken = ref 0 in
  let addr = ref 0 in
  let sys = Samhita.System.create ~threads () in
  let l = Samhita.System.mutex sys in
  let c = Samhita.System.cond sys in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then begin
             addr := T.malloc t ~bytes:8;
             T.write_f64 t !addr 0.0
           end;
           T.barrier_wait t bar;
           if tid > 0 then begin
             T.mutex_lock t l;
             while T.read_f64 t !addr = 0.0 do
               T.cond_wait t c l
             done;
             incr woken;
             T.mutex_unlock t l
           end
           else begin
             T.charge_flops t 1_000_000;
             T.mutex_lock t l;
             T.write_f64 t !addr 1.0;
             T.cond_broadcast t c;
             T.mutex_unlock t l
           end)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check int) "all waiters woken" 3 !woken

(* ---------------- configuration variants ---------------- *)

let shared_line_round_trip config =
  let threads = 4 in
  let base = ref 0 in
  let errors = ref 0 in
  let sys = Samhita.System.create ~config ~threads () in
  let bar = Samhita.System.barrier sys ~parties:threads in
  let slice = 2048 in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:(threads * slice);
           T.barrier_wait t bar;
           for o = 0 to (slice / 8) - 1 do
             T.write_f64 t (!base + (tid * slice) + (o * 8))
               (float_of_int tid)
           done;
           T.barrier_wait t bar;
           for other = 0 to threads - 1 do
             for o = 0 to (slice / 8) - 1 do
               if
                 T.read_f64 t (!base + (other * slice) + (o * 8))
                 <> float_of_int other
               then incr errors
             done
           done)
        : T.t)
  done;
  Samhita.System.run sys;
  !errors

let test_multiple_memory_servers () =
  Alcotest.(check int) "striped homes stay coherent" 0
    (shared_line_round_trip { cfg with memory_servers = 3 })

let test_single_page_lines () =
  Alcotest.(check int) "1-page lines" 0
    (shared_line_round_trip { cfg with pages_per_line = 1 })

let test_large_lines () =
  Alcotest.(check int) "8-page lines" 0
    (shared_line_round_trip { cfg with pages_per_line = 8 })

let test_manager_bypass_correct () =
  Alcotest.(check int) "bypass mode coherent" 0
    (shared_line_round_trip { cfg with manager_bypass = true })

let test_scif_profile_correct () =
  Alcotest.(check int) "scif fabric coherent" 0
    (shared_line_round_trip { cfg with fabric = Fabric.Profile.pcie_scif })

let test_manager_bypass_cheaper_sync () =
  let sync_of config =
    let sys = Samhita.System.create ~config ~threads:4 () in
    let bar = Samhita.System.barrier sys ~parties:4 in
    for _ = 1 to 4 do
      ignore
        (Samhita.System.spawn sys (fun t ->
             for _ = 1 to 10 do
               T.barrier_wait t bar
             done)
          : T.t)
    done;
    Samhita.System.run sys;
    List.fold_left
      (fun acc t -> acc + T.sync_ns t)
      0 (Samhita.System.threads sys)
  in
  Alcotest.(check bool) "bypass reduces barrier cost" true
    (sync_of { cfg with manager_bypass = true } < sync_of cfg)

(* ---------------- accounting ---------------- *)

let test_metrics_accounting () =
  let sys =
    run_threads ~threads:2 (fun sys tid t ->
        let bar_done = Samhita.System.manager sys in
        ignore bar_done;
        let a = T.malloc t ~bytes:64 in
        T.write_f64 t a 1.0;
        T.charge_flops t 1000;
        ignore tid)
  in
  List.iter
    (fun ctx ->
       let m = Samhita.Metrics.of_ctx ctx in
       Alcotest.(check bool) "compute accounted" true (m.compute_ns > 0);
       Alcotest.(check bool) "alloc accounted" true (m.alloc_ns > 0))
    (Samhita.System.threads sys);
  let agg = Samhita.Metrics.of_system sys in
  Alcotest.(check int) "thread count" 2 agg.threads;
  Alcotest.(check bool) "wall covers work" true
    (agg.wall_ns >= agg.max_compute_ns)

let test_spawn_limit () =
  let sys = Samhita.System.create ~threads:1 () in
  ignore (Samhita.System.spawn sys (fun _ -> ()) : T.t);
  Alcotest.check_raises "no more slots"
    (Invalid_argument "System.spawn: all thread slots used") (fun () ->
      ignore (Samhita.System.spawn sys (fun _ -> ()) : T.t))

let tests =
  [ Alcotest.test_case "read own write" `Quick test_read_own_write;
    Alcotest.test_case "zero fill" `Quick test_zero_fill;
    Alcotest.test_case "alignment enforced" `Quick test_alignment_enforced;
    Alcotest.test_case "malloc invalid" `Quick test_malloc_invalid;
    Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock;
    Alcotest.test_case "arena reuse" `Quick test_arena_reuse_after_free;
    Alcotest.test_case "three allocation strategies" `Quick
      test_three_allocation_strategies;
    Alcotest.test_case "multiple-writer merge" `Quick
      test_multiple_writer_merge;
    Alcotest.test_case "barrier rounds" `Quick test_barrier_rounds;
    Alcotest.test_case "lock-protected counter" `Quick
      test_lock_protected_counter;
    Alcotest.test_case "counter without history" `Quick
      test_lock_counter_no_history;
    Alcotest.test_case "notice flushes dirty line" `Quick
      test_notice_flushes_dirty_line;
    Alcotest.test_case "nested locks" `Quick test_nested_locks;
    Alcotest.test_case "mutual exclusion" `Quick
      test_mutual_exclusion_is_real;
    Alcotest.test_case "tiny cache single thread" `Quick
      test_tiny_cache_correctness;
    Alcotest.test_case "tiny cache multithreaded" `Quick
      test_tiny_cache_multithreaded;
    Alcotest.test_case "prefetch installs" `Quick
      test_prefetch_installs_adjacent;
    Alcotest.test_case "prefetch off" `Quick test_prefetch_off;
    Alcotest.test_case "prefetch displaces fast-path line" `Quick
      test_prefetch_displaces_fast_path_line;
    Alcotest.test_case "condvar ping-pong" `Quick test_cond_ping_pong;
    Alcotest.test_case "condvar broadcast" `Quick
      test_cond_broadcast_wakes_all;
    Alcotest.test_case "multiple memory servers" `Quick
      test_multiple_memory_servers;
    Alcotest.test_case "single-page lines" `Quick test_single_page_lines;
    Alcotest.test_case "large lines" `Quick test_large_lines;
    Alcotest.test_case "manager bypass correct" `Quick
      test_manager_bypass_correct;
    Alcotest.test_case "scif profile correct" `Quick
      test_scif_profile_correct;
    Alcotest.test_case "manager bypass cheaper" `Quick
      test_manager_bypass_cheaper_sync;
    Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
    Alcotest.test_case "spawn limit" `Quick test_spawn_limit ]

let () = Alcotest.run "samhita.dsm" [ ("dsm-integration", tests) ]

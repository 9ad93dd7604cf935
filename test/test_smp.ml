(* Tests for the simulated cache-coherent SMP node (Pthreads baseline). *)

module R = Smp.Runtime
module M = Smp.Machine

let cfg = Smp.Config.default

(* ---------------- Machine / coherence ---------------- *)

let test_machine_alloc () =
  let m = M.create cfg in
  let a1 = M.alloc m ~bytes:10 ~align:64 in
  let a2 = M.alloc m ~bytes:10 ~align:64 in
  Alcotest.(check int) "aligned" 0 (a1 mod 64);
  Alcotest.(check bool) "disjoint lines" true (a2 - a1 >= 64);
  Alcotest.check_raises "bad align"
    (Invalid_argument
       "Smp.Machine.alloc: align must be a positive power of two")
    (fun () -> ignore (M.alloc m ~bytes:8 ~align:3))

let test_machine_grow () =
  let m = M.create cfg in
  let a = M.alloc m ~bytes:(4 lsl 20) ~align:8 in
  M.write_f64 m (a + (4 lsl 20) - 8) 5.5;
  Alcotest.(check (float 0.)) "large store grows" 5.5
    (M.read_f64 m (a + (4 lsl 20) - 8))

let test_coherence_costs () =
  let m = M.create cfg in
  let a = M.alloc m ~bytes:8 ~align:64 in
  (* Cold read. *)
  Alcotest.(check (float 0.)) "cold read" cfg.t_cold_miss
    (M.read_cost m ~thread:0 ~addr:a);
  (* Warm read. *)
  Alcotest.(check (float 0.)) "hit" cfg.t_mem (M.read_cost m ~thread:0 ~addr:a);
  (* Another thread reads: not present in its cache -> miss. *)
  Alcotest.(check (float 0.)) "second reader cold" cfg.t_cold_miss
    (M.read_cost m ~thread:1 ~addr:a);
  (* Write by thread 0 invalidates thread 1's copy. *)
  Alcotest.(check (float 0.)) "write upgrade invalidates" cfg.t_invalidate
    (M.write_cost m ~thread:0 ~addr:a);
  Alcotest.(check (float 0.)) "owner write hits" cfg.t_mem
    (M.write_cost m ~thread:0 ~addr:a);
  (* Thread 1 reads a modified line: cache-to-cache transfer. *)
  Alcotest.(check (float 0.)) "coherence miss" cfg.t_coherence_miss
    (M.read_cost m ~thread:1 ~addr:a);
  (* After the downgrade the owner reads cheaply. *)
  Alcotest.(check (float 0.)) "shared hit" cfg.t_mem
    (M.read_cost m ~thread:0 ~addr:a);
  Alcotest.(check bool) "counters moved" true
    (M.coherence_misses m = 1 && M.invalidations m >= 1
     && M.cold_misses m >= 2)

let test_false_sharing_granularity () =
  let m = M.create cfg in
  let a = M.alloc m ~bytes:128 ~align:64 in
  ignore (M.write_cost m ~thread:0 ~addr:a);
  (* Same line, different byte: ping-pong. *)
  Alcotest.(check (float 0.)) "false sharing costs" cfg.t_invalidate
    (M.write_cost m ~thread:1 ~addr:(a + 8));
  (* Different line: independent. *)
  ignore (M.write_cost m ~thread:0 ~addr:(a + 64));
  Alcotest.(check (float 0.)) "own line hit" cfg.t_mem
    (M.write_cost m ~thread:0 ~addr:(a + 64))

(* ---------------- Runtime ---------------- *)

let test_thread_cap () =
  Alcotest.(check bool) "over core count rejected" true
    (match R.create ~threads:(cfg.max_threads + 1) () with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_data_through_runtime () =
  let sys = R.create ~threads:1 () in
  ignore
    (R.spawn sys (fun t ->
         let a = R.malloc t ~bytes:16 in
         R.write_f64 t a 2.5;
         R.write_i64 t (a + 8) 9L;
         Alcotest.(check (float 0.)) "f64" 2.5 (R.read_f64 t a);
         Alcotest.(check int64) "i64" 9L (R.read_i64 t (a + 8))));
  R.run sys

let test_mutex_exclusion () =
  let sys = R.create ~threads:4 () in
  let m = R.mutex sys in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    ignore
      (R.spawn sys (fun t ->
           for _ = 1 to 10 do
             R.lock t m;
             incr inside;
             if !inside > !max_inside then max_inside := !inside;
             R.charge_flops t 1_000;
             decr inside;
             R.unlock t m
           done))
  done;
  R.run sys;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside

let test_unlock_not_held () =
  let sys = R.create ~threads:1 () in
  let m = R.mutex sys in
  ignore
    (R.spawn sys (fun t ->
         Alcotest.check_raises "not holder"
           (Invalid_argument "Smp.Runtime.unlock: lock not held by thread")
           (fun () -> R.unlock t m)));
  R.run sys

let test_barrier_rounds () =
  let threads = 4 in
  let sys = R.create ~threads () in
  let b = R.barrier sys ~parties:threads in
  let shared = Array.make threads 0 in
  let errors = ref 0 in
  for tid = 0 to threads - 1 do
    ignore
      (R.spawn sys (fun t ->
           for r = 1 to 3 do
             shared.(tid) <- r;
             R.barrier_wait t b;
             Array.iter (fun v -> if v <> r then incr errors) shared;
             R.barrier_wait t b
           done;
           ignore t))
  done;
  R.run sys;
  Alcotest.(check int) "barrier separates rounds" 0 !errors

let test_barrier_cost_scales () =
  let sync_for threads =
    let sys = R.create ~threads () in
    let b = R.barrier sys ~parties:threads in
    let acc = ref 0 in
    for _ = 1 to threads do
      ignore
        (R.spawn sys (fun t ->
             for _ = 1 to 5 do
               R.barrier_wait t b
             done;
             acc := !acc + R.sync_ns t))
    done;
    R.run sys;
    !acc / threads
  in
  Alcotest.(check bool) "more threads, more sync" true
    (sync_for 8 > sync_for 2)

let test_accounting_split () =
  let sys = R.create ~threads:2 () in
  let b = R.barrier sys ~parties:2 in
  let results = Array.make 2 (0, 0) in
  for tid = 0 to 1 do
    ignore
      (R.spawn sys (fun t ->
           R.charge_flops t 10_000;
           R.barrier_wait t b;
           results.(tid) <- (R.compute_ns t, R.sync_ns t)))
  done;
  R.run sys;
  Array.iter
    (fun (c, s) ->
       Alcotest.(check bool) "compute accounted" true (c >= 8_000);
       Alcotest.(check bool) "sync accounted" true (s > 0))
    results

let tests =
  [ Alcotest.test_case "machine alloc" `Quick test_machine_alloc;
    Alcotest.test_case "machine grow" `Quick test_machine_grow;
    Alcotest.test_case "coherence costs" `Quick test_coherence_costs;
    Alcotest.test_case "false sharing granularity" `Quick
      test_false_sharing_granularity;
    Alcotest.test_case "thread cap" `Quick test_thread_cap;
    Alcotest.test_case "data through runtime" `Quick
      test_data_through_runtime;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "unlock not held" `Quick test_unlock_not_held;
    Alcotest.test_case "barrier rounds" `Quick test_barrier_rounds;
    Alcotest.test_case "barrier cost scales" `Quick test_barrier_cost_scales;
    Alcotest.test_case "accounting split" `Quick test_accounting_split ]

let () = Alcotest.run "smp" [ ("smp", tests) ]

(* Crash fault tolerance: primary-backup replication, the lease-based
   failure detector and the recovery protocol.

   These tests kill one memory server (or manager shard) mid-run (fail-stop, by simulated
   instant) and check that the run still completes, that the promoted
   backup serves version-consistent data, and that every acked write
   survives the failover. *)

module T = Samhita.Thread_ctx

let cfg = Samhita.Config.default
let line_bytes = Samhita.Config.line_bytes cfg

(* A replicated two-server geometry with a short lease so the detector
   fires promptly at test scale. *)
let ft_config ?fault () =
  { cfg with
    memory_servers = 2;
    replication = true;
    lease_interval = Desim.Time.ns 20_000;
    fault }

(* ---------------- configuration validation ---------------- *)

let test_config_validation () =
  let bad c =
    match Samhita.Config.validate c with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "replication needs 2 servers" true
    (bad { cfg with memory_servers = 1; replication = true });
  Alcotest.(check bool) "crash index out of range" true
    (bad
       { cfg with
         memory_servers = 2;
         fault = Some (Crash_server { server = 2; at_ns = 1000 }) });
  Alcotest.(check bool) "negative crash instant" true
    (bad
       { cfg with
         memory_servers = 2;
         fault = Some (Crash_server { server = 0; at_ns = -1 }) });
  Alcotest.(check bool) "valid ft config accepted" false
    (bad
       (ft_config ~fault:(Crash_server { server = 0; at_ns = 50_000 }) ()))

(* Every injected failure is regc-only, and each is accepted on a
   geometry that can survive it: two servers, two manager shards,
   primary-backup replication (SC rejects replication on its own, so its
   geometry leaves it off). *)
let test_fault_constructors () =
  let valid =
    { cfg with memory_servers = 2; manager_shards = 2; replication = true }
  in
  let sc =
    { valid with model = Samhita.Config.Sc_invalidate; replication = false }
  in
  List.iter
    (fun (name, fault) ->
       Alcotest.(check (result unit string))
         (name ^ " rejected under sc-invalidate")
         (Error (name ^ " is only modeled for the regc engine"))
         (Samhita.Config.validate { sc with fault = Some fault });
       Alcotest.(check (result unit string)) (name ^ " accepted") (Ok ())
         (Samhita.Config.validate { valid with fault = Some fault }))
    [ ("crash_server", Samhita.Config.Crash_server { server = 1; at_ns = 0 });
      ("crash_shard", Crash_shard { shard = 1; at_ns = 0 });
      ( "partition_server",
        Partition_server
          { server = 0; scope = Control; start_ns = 0; heal_ns = 1 } ) ]

(* ---------------- replication without a crash ---------------- *)

(* Healthy replicated run: every flushed write is mirrored, no lease
   expires, and both replicas of every stripe hold identical bytes and
   versions at the end. *)
let test_mirror_on_healthy_run () =
  let config = ft_config () in
  let threads = 4 in
  let base = ref 0 in
  let sys = Samhita.System.create ~config ~threads () in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:(4 * line_bytes);
           T.barrier_wait t bar;
           T.write_f64 t (!base + (tid * line_bytes)) (float_of_int tid);
           T.barrier_wait t bar)
        : T.t)
  done;
  Samhita.System.run sys;
  let r = Samhita.Metrics.replication_of_system sys in
  Alcotest.(check bool) "writes mirrored" true (r.mirrored_writes > 0);
  Alcotest.(check bool) "mirror bytes counted" true (r.mirror_bytes > 0);
  Alcotest.(check int) "no degraded writes" 0 r.degraded_writes;
  Alcotest.(check bool) "heartbeats ran" true (r.heartbeats > 0);
  Alcotest.(check int) "no lease expired" 0 r.leases_expired;
  Alcotest.(check int) "no promotion" 0 r.promotions

(* ---------------- replication cost ---------------- *)

(* What primary-backup costs a real kernel: quick Jacobi on two memory
   servers, without and with replication, same seed and shape. The
   makespans and mirror counters are the figures EXPERIMENTS.md quotes
   (777.7 us -> 982.6 us, 1.26x); a protocol change that moves them
   must update both. *)
let test_replication_cost () =
  let run replication =
    let config = { cfg with memory_servers = 2; replication } in
    let captured = ref None in
    let b =
      Workload.Samhita_backend.make ~config
        ~on_create:(fun sys -> captured := Some sys)
        ()
    in
    let p = { Workload.Jacobi.default_params with n = 32; iters = 4 } in
    let r = Workload.Jacobi.run b ~threads:4 p in
    match !captured with
    | Some sys -> (r.Workload.Jacobi.wall_ns, sys)
    | None -> Alcotest.fail "system not captured"
  in
  let base_ns, _ = run false in
  let repl_ns, sys = run true in
  Alcotest.(check int) "unreplicated makespan" 777_690 base_ns;
  Alcotest.(check int) "replicated makespan" 982_587 repl_ns;
  let r = Samhita.Metrics.replication_of_system sys in
  Alcotest.(check int) "mirrored writes" 40 r.mirrored_writes;
  Alcotest.(check int) "mirror bytes" 3012 r.mirror_bytes;
  Alcotest.(check int) "no promotion" 0 r.promotions

(* ---------------- crash and recovery ---------------- *)

(* The workhorse: [threads] writers hammer lock-protected counters while
   one peer dies mid-run. Returns the cell thread 0 fills with the final
   count once [sys] has run. *)
let spawn_counters sys ~threads ~iters =
  let addr = ref 0 in
  let final = ref nan in
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
  final

(* One server dies mid-run. The run must complete (no [Engine.Stalled]),
   exactly one promotion must happen, and all acked increments must
   survive on the promoted replica. *)
let crash_run ~crash:(server, at_ns) ~threads ~iters =
  let config = ft_config ~fault:(Crash_server { server; at_ns }) () in
  let sys = Samhita.System.create ~config ~threads () in
  let final = spawn_counters sys ~threads ~iters in
  Samhita.System.run sys;
  (sys, !final)

let test_crash_mid_run_completes () =
  let threads = 4 and iters = 25 in
  let sys, final = crash_run ~crash:(0, 400_000) ~threads ~iters in
  Alcotest.(check (float 0.)) "all acked increments survive failover"
    (float_of_int (threads * iters))
    final;
  let r = Samhita.Metrics.replication_of_system sys in
  Alcotest.(check int) "one lease expired" 1 r.leases_expired;
  Alcotest.(check int) "one promotion" 1 r.promotions;
  Alcotest.(check bool) "dead sends observed" true (r.dead_sends > 0)

let test_crash_other_server () =
  let threads = 4 and iters = 25 in
  let sys, final = crash_run ~crash:(1, 400_000) ~threads ~iters in
  Alcotest.(check (float 0.)) "server 1 crash also survives"
    (float_of_int (threads * iters))
    final;
  let r = Samhita.Metrics.replication_of_system sys in
  Alcotest.(check int) "one promotion" 1 r.promotions

(* A crash at t=0: the very first server interaction already faces a dead
   node, exercising the park-until-recovery path from a cold start. *)
let test_crash_at_time_zero () =
  let threads = 2 and iters = 10 in
  let sys, final = crash_run ~crash:(0, 0) ~threads ~iters in
  Alcotest.(check (float 0.)) "cold-start crash survives"
    (float_of_int (threads * iters))
    final;
  let r = Samhita.Metrics.replication_of_system sys in
  Alcotest.(check int) "one promotion" 1 r.promotions

(* Determinism: the same crash spec twice gives bit-identical makespan
   and counters. *)
let test_crash_run_deterministic () =
  let run () =
    let sys, final = crash_run ~crash:(0, 300_000) ~threads:3 ~iters:15 in
    let r = Samhita.Metrics.replication_of_system sys in
    ( Desim.Time.to_ns (Samhita.System.elapsed sys),
      final,
      r.mirrored_writes,
      r.replayed_updates,
      r.failover_waits )
  in
  let w1, f1, m1, rp1, fw1 = run () in
  let w2, f2, m2, rp2, fw2 = run () in
  Alcotest.(check int) "same makespan" w1 w2;
  Alcotest.(check (float 0.)) "same result" f1 f2;
  Alcotest.(check int) "same mirrors" m1 m2;
  Alcotest.(check int) "same replays" rp1 rp2;
  Alcotest.(check int) "same failover waits" fw1 fw2

(* Degraded mode: when the backup dies, primaries keep acking writes
   unreplicated and count them. Crash server 1 (= backup of 0) and keep
   writing to stripes homed on 0 after the crash. *)
let test_degraded_writes_counted () =
  let sys, final = crash_run ~crash:(1, 100_000) ~threads:4 ~iters:40 in
  Alcotest.(check (float 0.)) "degraded run correct" (float_of_int (4 * 40))
    final;
  let r = Samhita.Metrics.replication_of_system sys in
  Alcotest.(check bool) "degraded writes counted" true
    (r.degraded_writes > 0)

(* Replication combined with a sharded control plane: the one monitor on
   shard 0 heartbeats both memory servers and shards 1..N-1. A server
   crash is promoted while the shards stay watched; after a shard
   takeover the servers' leases keep renewing. *)
let test_replicated_sharded_detection () =
  let threads = 4 and iters = 40 in
  List.iter
    (fun (name, manager_shards, fault) ->
       let config = { (ft_config ~fault ()) with manager_shards } in
       let sys = Samhita.System.create ~config ~threads () in
       let final = spawn_counters sys ~threads ~iters in
       let cp = Samhita.System.control_plane sys in
       let engine = Samhita.System.engine sys in
       (* Step to the takeover (if any) and read the lease count there. *)
       while
         Samhita.Control_plane.takeovers cp = 0
         && Samhita.System.finished_threads sys < threads
       do
         Desim.Engine.run_until engine
           (Desim.Time.add (Desim.Engine.now engine) (Desim.Time.ns 1_000))
       done;
       let heartbeats_at_takeover = Samhita.Control_plane.heartbeats cp in
       Samhita.System.run sys;
       Alcotest.(check (float 0.)) (name ^ ": all increments survive")
         (float_of_int (threads * iters))
         !final;
       let r = Samhita.Metrics.replication_of_system sys in
       let c = Samhita.Metrics.control_of_system sys in
       Alcotest.(check bool) (name ^ ": server leases renewed") true
         (r.heartbeats > 0);
       Alcotest.(check bool) (name ^ ": shard leases renewed") true
         (c.shard_heartbeats > 0);
       match fault with
       | Samhita.Config.Crash_server _ ->
         Alcotest.(check int) (name ^ ": one promotion") 1 r.promotions;
         Alcotest.(check int) (name ^ ": no takeover") 0 c.takeovers
       | _ ->
         Alcotest.(check int) (name ^ ": one takeover") 1 c.takeovers;
         Alcotest.(check int) (name ^ ": no promotion") 0 r.promotions;
         Alcotest.(check bool)
           (name ^ ": leases renew after the takeover") true
           (r.heartbeats > heartbeats_at_takeover))
    [ ("crash server, 2 shards", 2,
       Samhita.Config.Crash_server { server = 0; at_ns = 300_000 });
      ("crash shard, 3 shards", 3, Crash_shard { shard = 1; at_ns = 300_000 }) ]

(* Report integration: the fault-tolerance line shows up on a replicated
   run that injects a crash. *)
let test_report_shows_ft_line () =
  let sys, _ = crash_run ~crash:(0, 300_000) ~threads:2 ~iters:10 in
  let report = Format.asprintf "%a" Samhita.Metrics.pp_report sys in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "fault tolerance section present" true
    (contains report "fault tolerance")

let tests =
  [ Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "fault constructors are regc-only" `Quick
      test_fault_constructors;
    Alcotest.test_case "healthy replicated run" `Quick
      test_mirror_on_healthy_run;
    Alcotest.test_case "replication cost on jacobi" `Quick
      test_replication_cost;
    Alcotest.test_case "crash mid-run completes" `Quick
      test_crash_mid_run_completes;
    Alcotest.test_case "crash other server" `Quick test_crash_other_server;
    Alcotest.test_case "crash at t=0" `Quick test_crash_at_time_zero;
    Alcotest.test_case "crash run deterministic" `Quick
      test_crash_run_deterministic;
    Alcotest.test_case "degraded writes counted" `Quick
      test_degraded_writes_counted;
    Alcotest.test_case "replicated sharded detection" `Quick
      test_replicated_sharded_detection;
    Alcotest.test_case "report shows ft line" `Quick
      test_report_shows_ft_line ]

let () = Alcotest.run "samhita.recovery" [ ("crash-recovery", tests) ]

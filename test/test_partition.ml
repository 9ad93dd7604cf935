(* Gray failures: partitions, false suspicion and epoch fencing.

   These tests partition one memory server mid-run — the server keeps
   executing, unlike a crash — and check that the lease detector's false
   suspicion is survivable: the backup is promoted under a new epoch,
   stale traffic is fenced, no acked write is lost, and the zombie stays
   failed and fenced after the heal. *)

module T = Samhita.Thread_ctx

let cfg = Samhita.Config.default
let line_bytes = Samhita.Config.line_bytes cfg

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A replicated two-server geometry with a short lease so the detector
   fires inside the partition window at test scale. *)
let gray_config ?fault () =
  { cfg with
    memory_servers = 2;
    replication = 1;
    lease_interval = Desim.Time.ns 20_000;
    fault }

let partition scope server start_ns heal_ns =
  Samhita.Config.Partition_server { server; scope; start_ns; heal_ns }

(* ---------------- configuration validation ---------------- *)

let test_config_validation () =
  let bad c =
    match Samhita.Config.validate c with Ok () -> false | Error _ -> true
  in
  let iso = Samhita.Config.Isolate in
  Alcotest.(check bool) "victim out of range" true
    (bad (gray_config ~fault:(partition iso 2 0 1000) ()));
  Alcotest.(check bool) "empty window rejected" true
    (bad (gray_config ~fault:(partition iso 0 1000 1000) ()));
  Alcotest.(check bool) "negative start rejected" true
    (bad (gray_config ~fault:(partition iso 0 (-1) 1000) ()));
  Alcotest.(check bool) "partition requires replication" true
    (bad
       { (gray_config ~fault:(partition iso 0 0 1000) ()) with
         replication = 0 });
  Alcotest.(check bool) "valid partition accepted" false
    (bad (gray_config ~fault:(partition iso 0 5_000 300_000) ()))

(* ---------------- retry jitter (decorrelated backoff) ---------------- *)

let test_retry_jitter_diverges () =
  let f = Fabric.Faults.create ~seed:42 ~level:Fabric.Faults.Off () in
  (* Deterministic and bounded. *)
  for attempt = 0 to 5 do
    let j = Fabric.Faults.retry_jitter f ~src:3 ~dst:1 ~attempt in
    Alcotest.(check int) "jitter is a pure function" j
      (Fabric.Faults.retry_jitter f ~src:3 ~dst:1 ~attempt);
    Alcotest.(check bool) "jitter bounded" true (j >= 0 && j < 1024)
  done;
  (* Two clients retrying against the same server must not retry in
     lockstep: their jitter sequences differ somewhere in the budget. *)
  let diverged = ref false in
  for attempt = 0 to Fabric.Scl.dead_retry_budget - 1 do
    if
      Fabric.Faults.retry_jitter f ~src:3 ~dst:1 ~attempt
      <> Fabric.Faults.retry_jitter f ~src:4 ~dst:1 ~attempt
    then diverged := true
  done;
  Alcotest.(check bool) "two clients' retry instants diverge" true !diverged;
  (* Different seeds decorrelate the same (src, dst, attempt). *)
  let g = Fabric.Faults.create ~seed:43 ~level:Fabric.Faults.Off () in
  let diverged = ref false in
  for attempt = 0 to Fabric.Scl.dead_retry_budget - 1 do
    if
      Fabric.Faults.retry_jitter f ~src:3 ~dst:1 ~attempt
      <> Fabric.Faults.retry_jitter g ~src:3 ~dst:1 ~attempt
    then diverged := true
  done;
  Alcotest.(check bool) "seeds decorrelate jitter" true !diverged

(* ---------------- partition window semantics ---------------- *)

let test_partition_window () =
  let t0 = Desim.Time.of_ns 10_000 and t1 = Desim.Time.of_ns 20_000 in
  (* Isolate: empty peer list means everyone is blocked. *)
  let f =
    Fabric.Faults.create
      ~injection:(Partition { victim = 2; peers = []; start = t0; heal = t1 })
      ~seed:7 ~level:Fabric.Faults.Off ()
  in
  let at ns = Desim.Time.of_ns ns in
  Alcotest.(check (option int)) "closed before the window" None
    (Fabric.Faults.unreachable_peer f ~src:0 ~dst:2 ~at:(at 9_999));
  Alcotest.(check (option int)) "victim named inside the window" (Some 2)
    (Fabric.Faults.unreachable_peer f ~src:0 ~dst:2 ~at:(at 10_000));
  Alcotest.(check (option int)) "both directions blocked" (Some 2)
    (Fabric.Faults.unreachable_peer f ~src:2 ~dst:0 ~at:(at 15_000));
  Alcotest.(check (option int)) "healed at the heal instant" None
    (Fabric.Faults.unreachable_peer f ~src:0 ~dst:2 ~at:(at 20_000));
  Alcotest.(check (option int)) "bystanders unaffected" None
    (Fabric.Faults.unreachable_peer f ~src:0 ~dst:1 ~at:(at 15_000));
  (* Control: only the listed peers are cut off from the victim. *)
  let g =
    Fabric.Faults.create
      ~injection:
        (Partition { victim = 2; peers = [ 5 ]; start = t0; heal = t1 })
      ~seed:7 ~level:Fabric.Faults.Off ()
  in
  Alcotest.(check (option int)) "listed peer blocked" (Some 2)
    (Fabric.Faults.unreachable_peer g ~src:5 ~dst:2 ~at:(at 15_000));
  Alcotest.(check (option int)) "unlisted peer passes" None
    (Fabric.Faults.unreachable_peer g ~src:0 ~dst:2 ~at:(at 15_000))

(* ---------------- epoch fencing (directory unit) ---------------- *)

let test_directory_epoch_fence () =
  let config = gray_config () in
  let dir = Samhita.Directory.create config in
  Alcotest.(check int) "epoch starts at 0" 0 (Samhita.Directory.epoch dir);
  Alcotest.(check int) "slots start at 0" 0
    (Samhita.Directory.epoch_of dir ~logical:0);
  (* A healthy-epoch fence passes. *)
  Samhita.Directory.fence dir ~logical:0 ~epoch:0;
  Alcotest.(check int) "passing fence not counted" 0
    (Samhita.Directory.fenced dir);
  (* Promotion bumps the epoch and stamps the repointed slot. *)
  let promoted = Samhita.Directory.promote dir ~dead:0 in
  Alcotest.(check int) "backup promoted" 1 promoted;
  Alcotest.(check int) "promotion bumps the epoch" 1
    (Samhita.Directory.epoch dir);
  Alcotest.(check int) "repointed slot stamped" 1
    (Samhita.Directory.epoch_of dir ~logical:0);
  (* Traffic resolved under the old epoch is fenced and counted. *)
  (match Samhita.Directory.fence dir ~logical:0 ~epoch:0 with
   | () -> Alcotest.fail "stale fence must raise"
   | exception Samhita.Directory.Stale_epoch -> ());
  Alcotest.(check int) "fenced message counted" 1
    (Samhita.Directory.fenced dir);
  (* Current-epoch traffic passes. *)
  Samhita.Directory.fence dir ~logical:0 ~epoch:1

(* ---------------- oracle: split-brain detection ---------------- *)

let test_oracle_split_brain () =
  let oracle = Torture.Oracle.create ~config:cfg () in
  let p = Torture.Oracle.probe oracle in
  let data = Bytes.create line_bytes in
  let at ns = Desim.Time.of_ns ns in
  p.Samhita.Probe.on_recovery ~time:(at 100_000) ~failed:0 ~promoted:1
    ~replayed:0;
  (* A publication at the promoted server is fine. *)
  p.Samhita.Probe.on_publish ~thread:0 ~time:(at 150_000) ~server:1 ~line:3
    ~version:1 ~data;
  Alcotest.(check int) "promoted server publishes freely" 0
    (List.length (Torture.Oracle.violations oracle));
  (* A publication routed through the deposed primary is split-brain. *)
  p.Samhita.Probe.on_publish ~thread:0 ~time:(at 150_001) ~server:0 ~line:3
    ~version:2 ~data;
  match Torture.Oracle.violations oracle with
  | [ v ] ->
    Alcotest.(check string) "classified" "split-brain"
      v.Torture.Oracle.v_class
  | vs ->
    Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

(* ---------------- end-to-end partition runs ---------------- *)

(* The workhorse, mirroring test_recovery's crash_run: [threads] writers
   hammer a lock-protected counter while one server is partitioned over
   a window. The run must complete, every acked increment must survive,
   and — when the window is long enough for the lease to expire — the
   detector's false suspicion must end in exactly one fenced epoch bump
   that outlives the heal. *)
let partition_run ?fault ~threads ~iters () =
  let config = gray_config ?fault () in
  let addr = ref 0 in
  let final = ref nan in
  let sys = Samhita.System.create ~config ~threads () in
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
  (sys, !final)

(* What holds at the end of a run whose lease expired: the victim is
   still failed (the heal does not bring it back), and exactly one
   promotion bumped the epoch once. *)
let check_zombie_stays_fenced ?(ctx = "") sys ~victim =
  let dir = Samhita.System.directory sys in
  Alcotest.(check bool) (ctx ^ "victim still failed after the heal") true
    (Samhita.Directory.failed dir victim);
  Alcotest.(check int) (ctx ^ "epoch exactly 1") 1
    (Samhita.Directory.epoch dir);
  Alcotest.(check int) (ctx ^ "one promotion") 1
    (Samhita.Directory.promotions dir)

let test_partition_isolate_survives () =
  let threads = 4 and iters = 25 in
  let sys, final =
    partition_run
      ~fault:(partition Samhita.Config.Isolate 0 5_000 400_000)
      ~threads ~iters ()
  in
  Alcotest.(check (float 0.)) "all acked increments survive the partition"
    (float_of_int (threads * iters))
    final;
  let d = Samhita.Metrics.detection_of_system sys in
  Alcotest.(check bool) "lease falsely expired" true (d.suspicions >= 1);
  Alcotest.(check int) "suspicion was false" d.suspicions d.false_suspicions;
  check_zombie_stays_fenced sys ~victim:0

let test_partition_control_zombie_fenced () =
  (* Control scope: clients can still reach the deposed primary — the
     epoch fence is what keeps the zombie from serving. With this window
     and thread count the promotion lands while a memory-server round
     trip already resolved against the zombie (epoch 0) is in flight; its
     reply is fenced and the write re-runs at the promoted replica. No
     prefetch is fenced here, so the count is the round trip's alone.
     Every acked increment must still land exactly once. *)
  let threads = 2 and iters = 25 in
  let sys, final =
    partition_run
      ~fault:(partition Samhita.Config.Control 0 85_000 385_000)
      ~threads ~iters ()
  in
  Alcotest.(check (float 0.)) "no increment lost or doubled via the zombie"
    (float_of_int (threads * iters))
    final;
  let d = Samhita.Metrics.detection_of_system sys in
  Alcotest.(check bool) "lease falsely expired" true (d.suspicions >= 1);
  Alcotest.(check bool) "an in-flight round trip was fenced" true
    (d.fenced_messages >= 1);
  check_zombie_stays_fenced sys ~victim:0

(* Boundary sweep: the heal instant crosses the lease-expiry instant.
   Short windows heal before the detector fires (no suspicion, no
   promotion); long windows promote once and the zombie stays failed
   after the heal. Every point must complete with the exact counter
   value — including the race where the expiry lands at the heal instant
   itself. *)
let test_lease_expiry_at_heal_boundary () =
  let threads = 2 and iters = 15 in
  let saw_quiet = ref false and saw_promoted = ref false in
  List.iter
    (fun heal ->
       let sys, final =
         partition_run
           ~fault:(partition Samhita.Config.Isolate 0 5_000 heal)
           ~threads ~iters ()
       in
       Alcotest.(check (float 0.))
         (Printf.sprintf "heal=%dns completes exactly" heal)
         (float_of_int (threads * iters))
         final;
       let d = Samhita.Metrics.detection_of_system sys in
       if d.suspicions = 0 then saw_quiet := true
       else begin
         saw_promoted := true;
         check_zombie_stays_fenced sys ~victim:0
           ~ctx:(Printf.sprintf "heal=%dns: " heal)
       end)
    [ 25_000; 60_000; 90_000; 110_000; 130_000; 150_000; 200_000; 300_000 ];
  Alcotest.(check bool) "sweep crosses the expiry boundary" true
    (!saw_quiet && !saw_promoted)

let test_partition_run_deterministic () =
  let run () =
    let sys, final =
      partition_run
        ~fault:(partition Samhita.Config.Control 1 10_000 350_000)
        ~threads:3 ~iters:15 ()
    in
    let d = Samhita.Metrics.detection_of_system sys in
    ( Desim.Time.to_ns (Samhita.System.elapsed sys),
      final,
      d.suspicions,
      d.fenced_messages )
  in
  let w1, f1, s1, fe1 = run () in
  let w2, f2, s2, fe2 = run () in
  Alcotest.(check int) "same makespan" w1 w2;
  Alcotest.(check (float 0.)) "same result" f1 f2;
  Alcotest.(check int) "same suspicions" s1 s2;
  Alcotest.(check int) "same fenced" fe1 fe2

(* The heal is the only wake for a client parked on an isolated server
   whose lease never expires: the 5 ms lease outlives the window, so no
   recovery runs. One thread writes a line homed on the victim and
   publishes it at a barrier inside the window; its flush escalates,
   parks, and must resume at the heal. Without the heal-wake the monitor
   re-arms forever, so the run is bounded by a horizon and the test
   asserts the thread finished. *)
let test_partition_heal_wakes_parked_client () =
  let config =
    { (gray_config
         ~fault:(partition Samhita.Config.Isolate 0 1_000 400_000) ())
      with
      lease_interval = Desim.Time.ns 5_000_000 }
  in
  let sys = Samhita.System.create ~config ~threads:1 () in
  let bar = Samhita.System.barrier sys ~parties:1 in
  let value = ref 0L in
  let t =
    Samhita.System.spawn sys (fun t ->
        (* Two stripes span both servers; take the first line homed on
           server 0. *)
        let bytes = 2 * Samhita.Home.stripe_bytes config in
        let base = T.malloc t ~bytes in
        let rec on_victim addr =
          let line = addr / line_bytes in
          if Samhita.Home.server_of_line config ~line = 0 then addr
          else on_victim (addr + line_bytes)
        in
        let addr = on_victim base in
        T.write_i64 t addr 7L;
        T.barrier_wait t bar;
        value := T.read_i64 t addr)
  in
  Desim.Engine.run_until
    (Samhita.System.engine sys)
    (Desim.Time.of_ns 50_000_000);
  Alcotest.(check int) "thread finished" 1
    (Samhita.System.finished_threads sys);
  Alcotest.(check int64) "value survives the park" 7L !value;
  Alcotest.(check int) "no promotion" 0
    (Samhita.Directory.promotions (Samhita.System.directory sys));
  Alcotest.(check int) "one failover wait" 1 (T.failover_waits t)

(* ---------------- suspicion vs in-flight write (model) ---------------- *)

(* The gray model exhausts every interleaving of a replicated write with
   the suspect/heal events — including a write resolved before the
   promotion and delivered after it: the write either commits under the
   old epoch (delivered before the suspect) or is fenced and re-run,
   never half-applied. The fence-disabled negative control proves the
   invariant checks can fail. *)
let test_suspicion_during_inflight_write () =
  List.iter
    (fun scope ->
       let r = Check.Gray.explore ~scope ~writes:2 () in
       Alcotest.(check int)
         (Printf.sprintf "scope %s: no violations with the fence"
            (Samhita.Config.scope_name scope))
         0
         (List.length r.Check.Gray.g_defects);
       Alcotest.(check bool) "interleavings explored" true
         (r.Check.Gray.g_states > 10);
       Alcotest.(check bool) "some deliveries were fenced" true
         (r.Check.Gray.g_fenced > 0))
    [ Samhita.Config.Isolate; Samhita.Config.Control ];
  let neg =
    Check.Gray.explore ~fence:false ~scope:Samhita.Config.Control ~writes:2
      ()
  in
  Alcotest.(check bool) "fence disabled: split-brain found" true
    (List.exists
       (fun (msg, _) -> contains msg "split-brain")
       neg.Check.Gray.g_defects)

(* ---------------- reporting gates ---------------- *)

(* The default configuration injects no failure. Which report lines a
   gray-failure run adds is pinned by the accessors suite's table. *)
let test_detection_gated () =
  let pp = Format.asprintf "%a" Samhita.Config.pp cfg in
  Alcotest.(check bool) "default config pp names no fault" true
    (contains pp "fault=none")

let test_report_shows_detection_line () =
  let sys, _ =
    partition_run
      ~fault:(partition Samhita.Config.Isolate 0 5_000 400_000)
      ~threads:2 ~iters:10 ()
  in
  let report = Format.asprintf "%a" Samhita.Metrics.pp_report sys in
  Alcotest.(check bool) "failure detection section present" true
    (contains report "failure detection");
  Alcotest.(check bool) "fault tolerance section present too" true
    (contains report "fault tolerance")

(* ---------------- torture integration ---------------- *)

(* One deterministic partition-torture seed end to end: clean oracle,
   one false suspicion ending in exactly one promotion (the epoch bump;
   the zombie never comes back), and the failing-seed artifact machinery
   (fault trace ring) captures the partition events. Micro 1236 and
   jacobi 1893 at [High] are regression seeds (PROTOCOL.md, "Known oracle
   violations"). At [High] the bounded fault ring fills with drops and
   reorders, so only the first seed checks it. *)
let test_torture_partition_seed () =
  let run kernel level seed =
    let o = Torture.Runner.run_one ~partition:true ~kernel ~level ~seed () in
    let ctx =
      Printf.sprintf "%s seed %d: " (Torture.Runner.kernel_name kernel) seed
    in
    Alcotest.(check int) (ctx ^ "clean") 0
      (List.length o.Torture.Runner.o_violations);
    Alcotest.(check bool) (ctx ^ "suspicion recorded") true
      (o.Torture.Runner.o_detect.suspicions >= 1);
    Alcotest.(check int) (ctx ^ "one promotion") 1
      o.Torture.Runner.o_promotions;
    o
  in
  let o = run Torture.Runner.Jacobi Fabric.Faults.Off 10 in
  Alcotest.(check bool) "fault trace captured partition events" true
    (List.exists
       (fun l -> contains l "partition")
       o.Torture.Runner.o_fault_trace);
  List.iter
    (fun (kernel, seed) ->
       ignore (run kernel Fabric.Faults.High seed : Torture.Runner.outcome))
    [ (Torture.Runner.Micro, 1236); (Torture.Runner.Jacobi, 1893) ]

let tests =
  [ Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "retry jitter diverges" `Quick
      test_retry_jitter_diverges;
    Alcotest.test_case "partition window semantics" `Quick
      test_partition_window;
    Alcotest.test_case "directory epoch fence" `Quick
      test_directory_epoch_fence;
    Alcotest.test_case "heal wakes a parked client" `Quick
      test_partition_heal_wakes_parked_client;
    Alcotest.test_case "oracle split-brain" `Quick test_oracle_split_brain;
    Alcotest.test_case "isolate partition survives" `Quick
      test_partition_isolate_survives;
    Alcotest.test_case "control zombie fenced" `Quick
      test_partition_control_zombie_fenced;
    Alcotest.test_case "lease expiry at heal boundary" `Quick
      test_lease_expiry_at_heal_boundary;
    Alcotest.test_case "partition run deterministic" `Quick
      test_partition_run_deterministic;
    Alcotest.test_case "suspicion during in-flight write" `Quick
      test_suspicion_during_inflight_write;
    Alcotest.test_case "detection gated off by default" `Quick
      test_detection_gated;
    Alcotest.test_case "report shows detection line" `Quick
      test_report_shows_detection_line;
    Alcotest.test_case "torture partition seed" `Quick
      test_torture_partition_seed ]

let () = Alcotest.run "samhita.partition" [ ("gray-failures", tests) ]

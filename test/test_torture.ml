(* Tests for the torture harness: oracle legality checking, digest
   determinism, and the racy kernel's pinned per-class defect counts
   under fault injection and schedule fuzzing. *)

let t_ns = Desim.Time.of_ns

let config = Samhita.Config.default
let line_bytes = Samhita.Config.line_bytes config

let mk_oracle () = Torture.Oracle.create ~config ()

let classes o =
  List.map (fun v -> v.Torture.Oracle.v_class) (Torture.Oracle.violations o)

(* ---------------- Oracle legality (fed directly, no system) -------- *)

let test_oracle_zero_legal () =
  let o = mk_oracle () in
  let p = Torture.Oracle.probe o in
  p.Samhita.Probe.on_read ~thread:0 ~time:(t_ns 10) ~addr:64 ~value:0L;
  Alcotest.(check (list string)) "initial zero is legal" [] (classes o);
  Alcotest.(check int) "read was checked" 1 (Torture.Oracle.reads_checked o)

let test_oracle_flags_illegal_read () =
  let o = mk_oracle () in
  let p = Torture.Oracle.probe o in
  p.Samhita.Probe.on_read ~thread:0 ~time:(t_ns 10) ~addr:64 ~value:0xDEADL;
  Alcotest.(check (list string)) "unsourced value flagged"
    [ "illegal-read" ] (classes o);
  Alcotest.(check bool) "trace contextualizes it" true
    (Torture.Oracle.trace_tail o <> [])

let test_oracle_own_store_legal () =
  let o = mk_oracle () in
  let p = Torture.Oracle.probe o in
  p.Samhita.Probe.on_write ~thread:2 ~time:(t_ns 1) ~addr:128
    ~region:(-1) ~value:7L;
  p.Samhita.Probe.on_read ~thread:2 ~time:(t_ns 2) ~addr:128 ~value:7L;
  Alcotest.(check (list string)) "own last store is legal" [] (classes o);
  (* Another thread has no such edge: 7 was never published. *)
  p.Samhita.Probe.on_read ~thread:3 ~time:(t_ns 3) ~addr:128 ~value:7L;
  Alcotest.(check (list string)) "other thread may not see it"
    [ "illegal-read" ] (classes o)

let test_oracle_published_history_legal () =
  let o = mk_oracle () in
  let p = Torture.Oracle.probe o in
  let publish v =
    let data = Bytes.make line_bytes '\000' in
    Bytes.set_int64_le data 0 v;
    p.Samhita.Probe.on_publish ~thread:0 ~time:(t_ns 5) ~server:0 ~line:2
      ~version:1 ~data
  in
  publish 11L;
  publish 22L;
  let addr = 2 * line_bytes in
  (* RegC permits stale reads: the full history is legal, not just the
     newest publication. *)
  p.Samhita.Probe.on_read ~thread:1 ~time:(t_ns 6) ~addr ~value:22L;
  p.Samhita.Probe.on_read ~thread:1 ~time:(t_ns 7) ~addr ~value:11L;
  Alcotest.(check (list string)) "published history legal" [] (classes o);
  p.Samhita.Probe.on_read ~thread:1 ~time:(t_ns 8) ~addr ~value:33L;
  Alcotest.(check (list string)) "unpublished value still flagged"
    [ "illegal-read" ] (classes o)

let test_oracle_alloc_invariants () =
  let o = mk_oracle () in
  let p = Torture.Oracle.probe o in
  p.Samhita.Probe.on_malloc ~thread:0 ~time:(t_ns 1) ~addr:1024 ~bytes:256;
  p.Samhita.Probe.on_malloc ~thread:1 ~time:(t_ns 2) ~addr:1152 ~bytes:64;
  p.Samhita.Probe.on_free ~thread:0 ~time:(t_ns 3) ~addr:4096 ~bytes:16;
  Alcotest.(check (list string)) "overlap and invalid free"
    [ "alloc-overlap"; "alloc-invalid-free" ] (classes o)

let test_oracle_digest_order_sensitive () =
  let feed order =
    let o = mk_oracle () in
    let p = Torture.Oracle.probe o in
    List.iter
      (fun (thread, addr) ->
         p.Samhita.Probe.on_write ~thread ~time:(t_ns 1) ~addr
           ~region:(-1) ~value:1L)
      order;
    Torture.Oracle.digest o
  in
  let a = [ (0, 64); (1, 128) ] in
  Alcotest.(check int) "same stream, same digest" (feed a) (feed a);
  Alcotest.(check bool) "swapped stream, different digest" true
    (feed a <> feed (List.rev a))

(* Every access is one aligned word with its value, so the oracle checks
   every read the probe stream carries: its checked count equals a plain
   read counter attached beside it. One torture-style run per kernel:
   small lines and caches, high fault level, shuffled tie-breaks. *)
let test_oracle_checks_every_read () =
  let config =
    { config with
      Samhita.Config.seed = 7;
      fault_level = Fabric.Faults.High;
      shuffle = true;
      page_bytes = 256;
      cache_lines = 4;
      memory_servers = 2;
      small_threshold = 1024;
      large_threshold = 64 * 1024;
      arena_chunk_bytes = 16 * 256 }
  in
  List.iter
    (fun (name, run) ->
       let oracle = Torture.Oracle.create ~config () in
       let reads = ref 0 in
       let counter =
         { Samhita.Probe.nothing with
           on_read = (fun ~thread:_ ~time:_ ~addr:_ ~value:_ -> incr reads) }
       in
       let on_create sys =
         Samhita.System.add_probe sys
           (Samhita.Probe.both (Torture.Oracle.probe oracle) counter)
       in
       run (Workload.Samhita_backend.make ~on_create ~config ());
       Alcotest.(check bool) (name ^ " reads memory") true (!reads > 0);
       Alcotest.(check int) (name ^ ": every read checked") !reads
         (Torture.Oracle.reads_checked oracle);
       Alcotest.(check (list string)) (name ^ " clean") [] (classes oracle))
    [ ( "micro",
        fun b ->
          ignore
            (Workload.Microbench.run b ~threads:3
               { Workload.Microbench.default_params with
                 Workload.Microbench.n_outer = 3;
                 m_inner = 2;
                 s_rows = 2;
                 b_cols = 24;
                 warmup = 1;
                 alloc = Workload.Microbench.Global_strided }
             : Workload.Microbench.result) );
      ( "jacobi",
        fun b ->
          ignore
            (Workload.Jacobi.run b ~threads:3
               { Workload.Jacobi.default_params with n = 12; iters = 2 }
             : Workload.Jacobi.result) );
      ( "kv",
        fun b ->
          ignore
            (Workload.Kv.run b ~threads:3
               { Workload.Kv.traffic =
                   { Workload.Traffic.clients = 6;
                     requests = 64;
                     rate_rps = 500_000.;
                     keys = 24;
                     zipf_s = 0.9;
                     read_fraction = 0.7;
                     seed = 7 };
                 shards = 2;
                 service_flops = 16 }
             : Workload.Kv.result) ) ]

(* ---------------- Runner ------------------------------------------- *)

let test_kernel_of_string () =
  List.iter
    (fun (s, k) ->
       Alcotest.(check string) s (Torture.Runner.kernel_name k)
         (match Torture.Runner.kernel_of_string s with
          | Ok k -> Torture.Runner.kernel_name k
          | Error e -> e))
    [ ("micro", Torture.Runner.Micro); ("jacobi", Torture.Runner.Jacobi);
      ("racy", Torture.Runner.Racy) ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Torture.Runner.kernel_of_string "fft"))

let test_run_one_deterministic () =
  let o1 = Torture.Runner.run_one ~kernel:Torture.Runner.Micro
      ~level:Fabric.Faults.High ~seed:5 ()
  and o2 = Torture.Runner.run_one ~kernel:Torture.Runner.Micro
      ~level:Fabric.Faults.High ~seed:5 () in
  Alcotest.(check int) "same digest" o1.Torture.Runner.o_digest
    o2.Torture.Runner.o_digest;
  Alcotest.(check int) "same event count" o1.Torture.Runner.o_events
    o2.Torture.Runner.o_events;
  Alcotest.(check int) "same makespan" o1.Torture.Runner.o_wall_ns
    o2.Torture.Runner.o_wall_ns;
  Alcotest.(check bool) "oracle exercised" true
    (o1.Torture.Runner.o_reads_checked > 0);
  Alcotest.(check bool) "clean" true (o1.Torture.Runner.o_violations = []);
  let o3 = Torture.Runner.run_one ~kernel:Torture.Runner.Micro
      ~level:Fabric.Faults.High ~seed:6 () in
  Alcotest.(check bool) "different seed, different stream" true
    (o3.Torture.Runner.o_digest <> o1.Torture.Runner.o_digest)

let test_runner_summary_smoke () =
  let s = Torture.Runner.run ~kernel:Torture.Runner.Jacobi
      ~level:Fabric.Faults.Medium ~seeds:3 ~base_seed:100 () in
  Alcotest.(check int) "all seeds ran" 3 s.Torture.Runner.s_runs;
  Alcotest.(check bool) "reads checked" true
    (s.Torture.Runner.s_reads_checked > 0);
  Alcotest.(check bool) "faults injected" true
    (s.Torture.Runner.s_faults.Samhita.Metrics.delayed > 0);
  Alcotest.(check (list string)) "no failing seeds" []
    (List.map
       (fun (o : Torture.Runner.outcome) -> string_of_int o.o_seed)
       s.Torture.Runner.s_failures)

let test_crash_mode_smoke () =
  (* Crash mode: every seed gets a replicated geometry and one fail-stop
     server crash; runs must stay clean (no deadlock, no oracle
     violation) and recoveries must actually happen. *)
  let s = Torture.Runner.run ~crash:true ~kernel:Torture.Runner.Micro
      ~level:Fabric.Faults.High ~seeds:3 ~base_seed:1 () in
  Alcotest.(check int) "all seeds ran" 3 s.Torture.Runner.s_runs;
  Alcotest.(check (list string)) "no failing seeds" []
    (List.map
       (fun (o : Torture.Runner.outcome) -> string_of_int o.o_seed)
       s.Torture.Runner.s_failures);
  Alcotest.(check bool) "promotions happened" true
    (s.Torture.Runner.s_promotions > 0)

(* ---------------- Lost-acked-write check after a crash ------------- *)

(* Jacobi resets its global residual to 0.0 under the lock, so a zero on
   the promoted replica can be a legitimately published value. These
   seeds used to report a false lost-acked-write. *)
let test_jacobi_zero_reset_clean () =
  List.iter
    (fun seed ->
       let o =
         Torture.Runner.run_one ~crash:true ~kernel:Torture.Runner.Jacobi
           ~level:Fabric.Faults.High ~seed ()
       in
       Alcotest.(check (list string))
         (Printf.sprintf "jacobi --crash seed %d clean" seed)
         []
         (List.map (fun v -> v.Torture.Oracle.v_class) o.o_violations))
    [ 210; 3009 ]

(* One thread publishes 10.0 into the first word of eight lines (after
   storing 0.0 there first when [zero_first]), then outlives the crash
   of server 0 so the lease monitor promotes server 1. [tamper] runs on
   the finished system just before the oracle's final check. *)
let crash_then_finalize ~zero_first ~tamper =
  let config =
    { config with
      Samhita.Config.memory_servers = 2;
      replication = true;
      lease_interval = Desim.Time.ns 20_000;
      fault = Some (Crash_server { server = 0; at_ns = 200_000 }) }
  in
  let oracle = Torture.Oracle.create ~config () in
  let sys = Samhita.System.create ~config ~threads:1 () in
  Torture.Oracle.attach oracle sys;
  let lines = 8 in
  let first_line = ref 0 in
  let bar = Samhita.System.barrier sys ~parties:1 in
  ignore
    (Samhita.System.spawn sys (fun t ->
         let base = Samhita.Thread_ctx.malloc t ~bytes:(lines * line_bytes) in
         first_line := base / line_bytes;
         for l = 0 to lines - 1 do
           let addr = base + (l * line_bytes) in
           if zero_first then Samhita.Thread_ctx.write_f64 t addr 0.0;
           Samhita.Thread_ctx.write_f64 t addr 10.0
         done;
         Samhita.Thread_ctx.barrier_wait t bar;
         Desim.Engine.delay (Desim.Time.ns 500_000))
     : Samhita.Thread_ctx.t);
  Samhita.System.run sys;
  tamper sys ~first_line:!first_line ~lines;
  Torture.Oracle.finalize oracle sys;
  Alcotest.(check int) "server 0 crashed and was replaced" 1
    (Torture.Oracle.recoveries oracle);
  classes oracle

(* Zero the first word of every line on the promoted replica. *)
let zero_on_promoted sys ~first_line ~lines =
  let promoted = (Samhita.System.servers sys).(1) in
  for l = first_line to first_line + lines - 1 do
    Bytes.set_int64_le (Samhita.Memory_server.line promoted l) 0 0L
  done

let test_lost_acked_write_flagged () =
  Alcotest.(check (list string)) "untampered run is clean" []
    (crash_then_finalize ~zero_first:false
       ~tamper:(fun _ ~first_line:_ ~lines:_ -> ()));
  Alcotest.(check bool) "zeroed acked word is a lost write" true
    (List.mem "lost-acked-write"
       (crash_then_finalize ~zero_first:false ~tamper:zero_on_promoted));
  (* Lines server 1 was already home to now also diverge from their last
     publication; only the durability verdict matters here. *)
  Alcotest.(check bool) "zero is legal where a thread stored it" false
    (List.mem "lost-acked-write"
       (crash_then_finalize ~zero_first:true ~tamper:zero_on_promoted))

(* ---------------- Racy kernel under torture (satellite) ------------ *)

(* The racy workload seeds exactly one defect of each class; fault
   injection and schedule fuzzing must not add or mask findings — the
   defects are ordering bugs in the program, not in the schedule. *)
let test_racy_one_defect_per_class_50_seeds () =
  for seed = 1 to 50 do
    let cfg =
      { config with
        Samhita.Config.seed;
        fault_level = Fabric.Faults.High;
        shuffle = true }
    in
    let oracle = Torture.Oracle.create ~config:cfg () in
    let sys, san =
      Workload.Racy.run ~on_create:(Torture.Oracle.attach oracle)
        ~config:cfg ()
    in
    Torture.Oracle.finalize oracle sys;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: memory oracle clean" seed)
      []
      (List.map (fun v -> v.Torture.Oracle.v_class)
         (Torture.Oracle.violations oracle));
    let kinds =
      List.sort compare
        (List.map
           (fun (f : Analysis.Regcsan.finding) ->
              Analysis.Regcsan.kind_name f.Analysis.Regcsan.kind)
           (Analysis.Regcsan.findings san))
    in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: one defect per class" seed)
      (List.sort compare [ "race"; "unpublished"; "mixed"; "invalid-read" ])
      kinds
  done

(* ---------------- Observer attach order ---------------------------- *)

(* RegCSan and the memory oracle each attach as a probe, in whatever
   order their caller subscribes them. Both are pure observers, so the
   order must not move what either one sees: the same findings, the same
   reads checked, the same oracle digest. The racy kernel is RegCCheck's
   (it takes a caller-built system, so both orders are reachable), run
   under fault injection and schedule fuzzing; micro is the clean one. *)
let observed ~san_first ~threads run =
  let cfg =
    { config with
      Samhita.Config.seed = 11;
      fault_level = Fabric.Faults.High;
      shuffle = true }
  in
  let oracle = Torture.Oracle.create ~config:cfg () in
  let san =
    Analysis.Regcsan.create ~threads ~page_bytes:cfg.Samhita.Config.page_bytes
  in
  let captured = ref None in
  let on_create sys =
    captured := Some sys;
    let s = Analysis.Regcsan.probe san and o = Torture.Oracle.probe oracle in
    List.iter (Samhita.System.add_probe sys)
      (if san_first then [ s; o ] else [ o; s ])
  in
  run ~config:cfg ~on_create;
  (match !captured with
   | Some sys -> Torture.Oracle.finalize oracle sys
   | None -> Alcotest.fail "kernel never built a system");
  Alcotest.(check (list string)) "oracle clean" [] (classes oracle);
  ( List.map
      (Format.asprintf "%a" Analysis.Regcsan.pp_finding)
      (Analysis.Regcsan.findings san),
    Torture.Oracle.reads_checked oracle,
    Torture.Oracle.digest oracle )

let test_observer_order_irrelevant () =
  let racy ~config ~on_create =
    let sys = Samhita.System.create ~config ~threads:3 () in
    on_create sys;
    let checksum =
      Check.Kernels.build Check.Kernels.Racy sys ~threads:3 ~pages:1
    in
    Samhita.System.run sys;
    Alcotest.(check (option string)) "racy counter" None (checksum ())
  in
  let micro ~config ~on_create =
    let p =
      { Workload.Microbench.default_params with
        Workload.Microbench.n_outer = 2;
        m_inner = 2;
        alloc = Workload.Microbench.Global_strided }
    in
    let b = Workload.Samhita_backend.make ~config ~on_create () in
    let r = Workload.Microbench.run b ~threads:4 p in
    Alcotest.(check bool) "micro gsum" true
      (r.Workload.Microbench.gsum = r.Workload.Microbench.expected_gsum)
  in
  List.iter
    (fun (name, threads, run, racy) ->
       let findings, reads, digest = observed ~san_first:true ~threads run in
       let findings', reads', digest' =
         observed ~san_first:false ~threads run
       in
       Alcotest.(check bool) (name ^ ": findings iff racy") racy
         (findings <> []);
       Alcotest.(check bool) (name ^ ": reads checked") true (reads > 0);
       Alcotest.(check (list string)) (name ^ ": same findings") findings
         findings';
       Alcotest.(check int) (name ^ ": same reads checked") reads reads';
       Alcotest.(check int) (name ^ ": same oracle digest") digest digest')
    [ ("racy", 3, racy, true); ("micro", 4, micro, false) ]

let tests =
  [ Alcotest.test_case "oracle: zero legal" `Quick test_oracle_zero_legal;
    Alcotest.test_case "oracle: illegal read flagged" `Quick
      test_oracle_flags_illegal_read;
    Alcotest.test_case "oracle: own store legal" `Quick
      test_oracle_own_store_legal;
    Alcotest.test_case "oracle: published history legal" `Quick
      test_oracle_published_history_legal;
    Alcotest.test_case "oracle: allocation invariants" `Quick
      test_oracle_alloc_invariants;
    Alcotest.test_case "oracle: digest order-sensitive" `Quick
      test_oracle_digest_order_sensitive;
    Alcotest.test_case "oracle: every read checked" `Quick
      test_oracle_checks_every_read;
    Alcotest.test_case "kernel_of_string" `Quick test_kernel_of_string;
    Alcotest.test_case "run_one deterministic" `Quick
      test_run_one_deterministic;
    Alcotest.test_case "runner summary" `Quick test_runner_summary_smoke;
    Alcotest.test_case "crash mode smoke" `Quick test_crash_mode_smoke;
    Alcotest.test_case "racy: one defect per class, 50 seeds" `Slow
      test_racy_one_defect_per_class_50_seeds;
    Alcotest.test_case "jacobi crash: zero reset not lost" `Quick
      test_jacobi_zero_reset_clean;
    Alcotest.test_case "oracle: zeroed acked word flagged" `Quick
      test_lost_acked_write_flagged;
    Alcotest.test_case "observer attach order irrelevant" `Quick
      test_observer_order_irrelevant ]

let () = Alcotest.run "torture" [ ("torture", tests) ]

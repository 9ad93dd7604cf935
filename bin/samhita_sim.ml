(* Command-line driver for the Samhita/RegC reproduction.

   Subcommands:
     list                 enumerate reproducible figures/ablations
     fig <id>             regenerate one figure (text table or CSV)
     micro                run the Figure-2 micro-benchmark once
     jacobi               run the Jacobi kernel once
     md                   run the molecular-dynamics kernel once
     race                 run the seeded-race kernel under RegCSan
     serve                KV serving: open-loop load sweep, tail latency

   Shared flags, converters, validators and the usage-error shape live in
   {!Cli}; `micro`, `jacobi` and `md` accept --sanitize to attach the
   RegCSan analyzer, and --shards / --servers to shard the control plane
   and stripe the address space over more memory servers. *)

open Cmdliner

let scale_t = Cli.scale_t
let backend_t = Cli.backend_t
let report_t = Cli.report_t
let threads_t = Cli.threads_t
let sanitize_t = Cli.sanitize_t

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    List.iter (fun (id, _) -> print_endline id) Harness.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible figures and ablations")
    Term.(const run $ const ())

(* ---------------- fig ---------------- *)

let fig_cmd =
  let id_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Figure id (see $(b,list)).")
  in
  let csv_t =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let run id scale csv =
    match Harness.Experiments.by_id id with
    | None ->
      Cli.usage ~cmd:"fig" "unknown figure id %S (try `samhita_sim list`)" id
    | Some f ->
      let fig = f (Harness.Experiments.ctx scale) in
      if csv then print_string (Harness.Series.to_csv fig)
      else Harness.Series.render Format.std_formatter fig
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate one figure of the paper's evaluation")
    Term.(const run $ id_t $ scale_t $ csv_t)

(* ---------------- micro ---------------- *)

let micro_cmd =
  let alloc_t =
    let parse = function
      | "local" -> Ok Workload.Microbench.Local
      | "global" -> Ok Workload.Microbench.Global
      | "strided" -> Ok Workload.Microbench.Global_strided
      | s -> Error (`Msg (Printf.sprintf "unknown allocation mode %S" s))
    in
    let print ppf v =
      Format.pp_print_string ppf (Workload.Microbench.mode_name v)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Workload.Microbench.Local
      & info [ "alloc" ] ~docv:"MODE"
          ~doc:"Allocation: $(b,local), $(b,global) or $(b,strided).")
  in
  let m_t =
    Arg.(value & opt int 10 & info [ "m" ] ~docv:"M" ~doc:"Inner iterations.")
  in
  let s_t =
    Arg.(value & opt int 2 & info [ "s" ] ~docv:"S" ~doc:"Rows per thread.")
  in
  let run backend threads alloc m s shards servers report sanitize =
    let p =
      { Workload.Microbench.default_params with alloc; m_inner = m; s_rows = s }
    in
    let b, after =
      Cli.kernel_backend ~cmd:"micro" ~backend ~threads ~shards ~servers
        ~report ~sanitize ()
    in
    let r = Workload.Microbench.run b ~threads p in
    Printf.printf
      "micro %s alloc=%s P=%d M=%d S=%d\n\
      \  wall            %.3f ms\n\
      \  compute (mean)  %.3f ms   sync (mean)  %.3f ms\n\
      \  misses          %d\n\
      \  gsum            %.9g (expected %.9g) %s\n"
      (Cli.backend_name backend)
      (Workload.Microbench.mode_name alloc)
      threads m s
      (float_of_int r.wall_ns /. 1e6)
      (Workload.Microbench.mean r.compute_ns /. 1e6)
      (Workload.Microbench.mean r.sync_ns /. 1e6)
      (Array.fold_left ( + ) 0 r.misses)
      r.gsum r.expected_gsum
      (if r.gsum = r.expected_gsum then "OK" else "MISMATCH");
    after ()
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Run the paper's Figure-2 micro-benchmark once")
    Term.(
      const run $ backend_t $ threads_t $ alloc_t $ m_t $ s_t $ Cli.shards_t
      $ Cli.servers_t $ report_t $ sanitize_t)

(* ---------------- jacobi ---------------- *)

let jacobi_cmd =
  let n_t =
    Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"Interior size.")
  in
  let iters_t =
    Arg.(value & opt int 20 & info [ "iters" ] ~docv:"K" ~doc:"Sweeps.")
  in
  let run backend threads n iters shards servers sanitize =
    let p = { Workload.Jacobi.default_params with n; iters } in
    let b, after =
      Cli.kernel_backend ~cmd:"jacobi" ~backend ~threads ~shards ~servers
        ~sanitize ()
    in
    let r = Workload.Jacobi.run b ~threads p in
    let ref_sum, ref_res = Workload.Jacobi.reference p in
    Printf.printf
      "jacobi %s P=%d n=%d iters=%d\n\
      \  wall       %.3f ms\n\
      \  checksum   %.9g (reference %.9g) %s\n\
      \  residual   %.9g (reference %.9g)\n"
      (Cli.backend_name backend)
      threads n iters
      (float_of_int r.wall_ns /. 1e6)
      r.checksum ref_sum
      (if r.checksum = ref_sum then "OK" else "MISMATCH")
      r.residual ref_res;
    after ()
  in
  Cmd.v
    (Cmd.info "jacobi" ~doc:"Run the Jacobi application kernel once")
    Term.(
      const run $ backend_t $ threads_t $ n_t $ iters_t $ Cli.shards_t
      $ Cli.servers_t $ sanitize_t)

(* ---------------- md ---------------- *)

let md_cmd =
  let n_t =
    Arg.(value & opt int 192 & info [ "n" ] ~docv:"N" ~doc:"Particles.")
  in
  let steps_t =
    Arg.(value & opt int 10 & info [ "steps" ] ~docv:"K" ~doc:"Time steps.")
  in
  let run backend threads n steps shards servers sanitize =
    let p = { Workload.Md.default_params with n; steps } in
    let b, after =
      Cli.kernel_backend ~cmd:"md" ~backend ~threads ~shards ~servers
        ~sanitize ()
    in
    let r = Workload.Md.run b ~threads p in
    let ref_sum, _ = Workload.Md.reference p in
    Printf.printf
      "md %s P=%d n=%d steps=%d\n\
      \  wall          %.3f ms\n\
      \  pos checksum  %.9g (reference %.9g) %s\n"
      (Cli.backend_name backend)
      threads n steps
      (float_of_int r.wall_ns /. 1e6)
      r.pos_checksum ref_sum
      (if r.pos_checksum = ref_sum then "OK" else "MISMATCH");
    List.iteri
      (fun i (ke, pe) ->
         Printf.printf "  step %2d  kinetic %.6f  potential %.6f\n" i ke pe)
      r.energies;
    after ()
  in
  Cmd.v
    (Cmd.info "md" ~doc:"Run the molecular-dynamics kernel once")
    Term.(
      const run $ backend_t $ threads_t $ n_t $ steps_t $ Cli.shards_t
      $ Cli.servers_t $ sanitize_t)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let keys_t =
    Arg.(value & opt int 256 & info [ "keys" ] ~docv:"N" ~doc:"Key count.")
  in
  let shards_t =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Mutex-protected key partitions ($(i,key mod shards)).")
  in
  let clients_t =
    Arg.(
      value & opt int 16
      & info [ "clients" ] ~docv:"N"
          ~doc:"Simulated clients (serial request streams).")
  in
  let requests_t =
    Arg.(
      value & opt int 2048
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per sweep point.")
  in
  let zipf_t =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Key-popularity skew exponent; 0 is uniform.")
  in
  let read_fraction_t =
    Arg.(
      value & opt float 0.9
      & info [ "read-fraction" ] ~docv:"F"
          ~doc:"Probability a request is a Get.")
  in
  let seed_t =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")
  in
  let replication_t =
    Arg.(
      value & opt int 0
      & info [ "replication" ] ~docv:"R"
          ~doc:
            "Memory-server replication factor, 0 or 1 (smh backend \
             only; 1 mirrors every write to a backup).")
  in
  let crash_t =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Inject a fail-stop memory-server crash mid-point and measure \
             what the lease-detected promotion costs the tail (requires \
             --replication 1).")
  in
  let load_t =
    Arg.(
      value
      & opt string "0.25,0.5,0.75,0.9,1.5"
      & info [ "load" ] ~docv:"F1,F2,..."
          ~doc:
            "Offered-load sweep, as fractions of the measured closed-loop \
             capacity; points past 1.0 are overloaded.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the sweep as one JSON object instead of the table.")
  in
  let run backend threads keys shards manager_shards clients requests zipf
      read_fraction seed replication crash load json =
    (* Hand-validated so usage errors exit 2 (the shared contract). *)
    let usage fmt = Cli.usage ~cmd:"serve" fmt in
    Cli.check_threads ~cmd:"serve" threads;
    if keys <= 0 then usage "--keys must be positive";
    if shards <= 0 || shards > keys then
      usage "--shards must be in 1..keys";
    Cli.check_shards ~cmd:"serve" ~flag:"--manager-shards" manager_shards;
    if clients <= 0 then usage "--clients must be positive";
    if requests <= 0 then usage "--requests must be positive";
    if not (Float.is_finite zipf) || zipf < 0. then
      usage "--zipf must be non-negative";
    if not (Float.is_finite read_fraction)
       || read_fraction < 0. || read_fraction > 1.
    then usage "--read-fraction must be in [0,1]";
    if replication < 0 || replication > 1 then
      usage "--replication must be 0 or 1";
    if backend = `Pth && (replication > 0 || crash) then
      usage "--replication and --crash require --backend smh";
    Cli.check_smh_only ~cmd:"serve" ~backend
      [ ("--manager-shards", manager_shards > 1) ];
    if crash && replication = 0 then
      usage "--crash requires --replication 1";
    let replication = replication = 1 in
    let fractions =
      String.split_on_char ',' load
      |> List.map (fun s ->
          match float_of_string_opt (String.trim s) with
          | Some f when Float.is_finite f && f > 0. -> f
          | _ -> usage "--load: %S is not a positive load fraction" s)
    in
    if fractions = [] then usage "--load: empty sweep";
    let kv =
      { Workload.Kv.traffic =
          { Workload.Traffic.clients;
            requests;
            rate_rps = 1.;  (* overridden per sweep point *)
            keys;
            zipf_s = zipf;
            read_fraction;
            seed };
        shards;
        service_flops = Workload.Kv.default_params.Workload.Kv.service_flops }
    in
    let kind =
      match backend with
      | `Smh -> Harness.Serving.Smh
      | `Pth -> Harness.Serving.Pth
    in
    let sweep =
      Harness.Serving.run ~fractions ~backend:kind ~threads ~replication
        ~manager_shards ~crash kv
    in
    if json then print_endline (Harness.Serving.to_json sweep)
    else Format.printf "%a@?" Harness.Serving.pp sweep;
    let lost =
      List.fold_left
        (fun a p -> a + p.Harness.Serving.lost_writes)
        0 sweep.Harness.Serving.points
    in
    if lost > 0 then begin
      Printf.eprintf
        "samhita_sim serve: %d acked write(s) lost (see the lost column)\n"
        lost;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Zipfian KV serving scenario: measure closed-loop capacity, then \
          sweep open-loop offered load at fractions of it, reporting \
          p50/p99/p999 tail latency per point (exit 1 if any acked write \
          was lost)")
    Term.(
      const run $ backend_t $ threads_t $ keys_t $ shards_t
      $ Cli.manager_shards_t $ clients_t $ requests_t $ zipf_t
      $ read_fraction_t $ seed_t $ replication_t $ crash_t $ load_t
      $ json_t)

(* ---------------- torture ---------------- *)

let torture_cmd =
  let seeds_t =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of consecutive seeds to run.")
  in
  let base_seed_t =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"S" ~doc:"First seed of the range.")
  in
  let faults_t =
    Arg.(
      value
      & opt Cli.faults_conv Fabric.Faults.High
      & info [ "faults" ] ~docv:"LEVEL"
          ~doc:
            "Fabric fault-injection level: $(b,off), $(b,low), \
             $(b,medium) or $(b,high).")
  in
  let kernel_t =
    let parse s =
      match Torture.Runner.kernel_of_string s with
      | Ok v -> Ok v
      | Error e -> Error (`Msg e)
    in
    let print ppf v =
      Format.pp_print_string ppf (Torture.Runner.kernel_name v)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Torture.Runner.Micro
      & info [ "kernel" ] ~docv:"K"
          ~doc:
            "Workload to torture: $(b,micro), $(b,jacobi), $(b,kv) or \
             $(b,racy).")
  in
  let replay_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Replay one seed verbosely (violations and oracle trace tail) \
             instead of sweeping; exits 1 if it has violations.")
  in
  let crash_t =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Crash mode: each seed additionally derives a replicated \
             geometry (primary-backup memory servers, short leases) and a \
             fail-stop crash of one seed-chosen memory server at a \
             seed-chosen instant; the oracle also checks post-recovery \
             invariants (no stale promotion, no lost acked write).")
  in
  let crash_shard_t =
    Arg.(
      value & flag
      & info [ "crash-shard" ]
          ~doc:
            "Shard-crash mode: each seed additionally derives a sharded \
             control plane (2..4 manager shards) and a fail-stop crash of \
             one seed-chosen non-zero shard at a seed-chosen instant; the \
             surviving ring successor absorbs the dead shard's locks, \
             barriers and condvars and the oracle's invariants (checksums \
             vs the sequential reference, session guarantees, determinism \
             replay) must still hold across the takeover.")
  in
  let partition_t =
    Arg.(
      value & flag
      & info [ "partition" ]
          ~doc:
            "Gray-failure mode: each seed derives a replicated geometry \
             and a network partition (not a crash) of one seed-chosen \
             memory server over a seed-chosen window, long enough that \
             its lease falsely expires while it keeps executing; the \
             oracle also checks the epoch-fencing invariants (no \
             split-brain through the zombie primary, no lost acked write \
             across the false suspicion).")
  in
  let run seeds base_seed level kernel replay crash crash_shard partition =
    let mode =
      match Torture.Runner.mode_of_flags ~crash ~crash_shard ~partition with
      | Ok mode -> mode
      | Error e -> Cli.usage ~cmd:"torture" "%s" e
    in
    (match (mode, kernel) with
     | Torture.Runner.Crash_shard, Torture.Runner.Racy ->
       Cli.usage ~cmd:"torture"
         "--crash-shard supports --kernel micro, jacobi or kv (racy pins \
          per-class defect counts that a takeover would perturb)"
     | Torture.Runner.Partition, Torture.Runner.Racy ->
       Cli.usage ~cmd:"torture"
         "--partition supports --kernel micro, jacobi or kv (racy pins \
          per-class defect counts that a false suspicion would perturb)"
     | _ -> ());
    let flags_repro =
      match mode with
      | Torture.Runner.Plain -> ""
      | Torture.Runner.Crash -> " --crash"
      | Torture.Runner.Crash_shard -> " --crash-shard"
      | Torture.Runner.Partition -> " --partition"
    in
    match replay with
    | Some seed ->
      let o =
        Torture.Runner.run_one ~crash ~crash_shard ~partition ~kernel
          ~level ~seed ()
      in
      Format.printf "%a@." Torture.Runner.pp_outcome o;
      if o.Torture.Runner.o_violations <> [] then begin
        Printf.eprintf
          "samhita_sim torture: replay of --kernel %s --faults %s%s --replay \
           %d found violations\n"
          (Torture.Runner.kernel_name kernel)
          (Fabric.Faults.level_name level)
          flags_repro seed;
        exit 1
      end
    | None ->
      let s =
        Torture.Runner.run ~crash ~crash_shard ~partition ~kernel ~level
          ~seeds ~base_seed ()
      in
      Format.printf "%a@." Torture.Runner.pp_summary s;
      if s.Torture.Runner.s_failures <> [] then begin
        List.iter
          (fun o -> Format.printf "%a@." Torture.Runner.pp_outcome o)
          s.Torture.Runner.s_failures;
        Format.printf
          "reproduce any failing seed with: samhita_sim torture --kernel \
           %s --faults %s%s --replay <seed>@."
          (Torture.Runner.kernel_name kernel)
          (Fabric.Faults.level_name level)
          flags_repro;
        Printf.eprintf
          "samhita_sim torture: --kernel %s --faults %s%s: %d of %d seed(s) \
           failed\n"
          (Torture.Runner.kernel_name kernel)
          (Fabric.Faults.level_name level)
          flags_repro
          (List.length s.Torture.Runner.s_failures)
          seeds;
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Deterministic fault-injection + schedule-fuzzing torture harness: \
          each seed derives a system geometry, a same-instant event \
          shuffle and a fabric fault policy, runs a kernel under the \
          linearizable-memory oracle, checks the result against the \
          sequential reference, and replays the seed to prove \
          bit-for-bit determinism")
    Term.(
      const run $ seeds_t $ base_seed_t $ faults_t $ kernel_t $ replay_t
      $ crash_t $ crash_shard_t $ partition_t)

(* ---------------- race ---------------- *)

let race_cmd =
  let run () =
    let _, san = Workload.Racy.run () in
    Format.printf "%a@." Analysis.Regcsan.pp_report san;
    (* Defect-detection commands share one exit-code contract: 1 when the
       tool found what it hunts for, 2 on usage errors, 0 clean. *)
    if Analysis.Regcsan.findings_count san > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Run the deliberately racy two-thread kernel under RegCSan; it \
          must report exactly one finding per seeded defect class and \
          exit 1")
    Term.(const run $ const ())

(* ---------------- check ---------------- *)

let check_cmd =
  let kernel_t =
    (* Parsed by hand in [run] so an unknown kernel exits 2 (the usage
       exit of the shared contract) rather than cmdliner's 124. *)
    Arg.(
      value
      & opt string (Check.Kernels.name Check.Kernels.Racy)
      & info [ "kernel" ] ~docv:"K"
          ~doc:
            "Bounded kernel to exhaust: $(b,racy) (seeded race), \
             $(b,micro) (clean global-sum), $(b,abba) \
             (schedule-dependent lock-order deadlock), or $(b,gray) \
             (explicit-state model of epoch-fenced recovery: every \
             interleaving of client writes with false suspicion and \
             heal, plus a fence-disabled negative control).")
  in
  let threads_t =
    Arg.(
      value & opt int 2
      & info [ "t"; "threads" ] ~docv:"N"
          ~doc:"Compute threads (small scope: 2 or 3).")
  in
  let pages_t =
    Arg.(
      value & opt int 1
      & info [ "pages" ] ~docv:"N" ~doc:"Data pages (small scope: 1 or 2).")
  in
  let crash_t =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Explore with a replicated geometry and one injected \
             fail-stop memory-server crash.")
  in
  let max_t =
    Arg.(
      value & opt int 10_000
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Exploration budget (runs + prunes) before truncating.")
  in
  let naive_t =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Disable partial-order reduction and enumerate the full \
             choice tree.")
  in
  let quantum_t =
    Arg.(
      value
      & opt int Check.Checker.default_opts.Check.Checker.quantum
      & info [ "quantum" ] ~docv:"NS"
          ~doc:
            "Scheduling quantum: future event instants round up to this \
             grid (ns) so contended operations staggered only by port \
             serialization become explicit same-instant choices.")
  in
  let compare_t =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Run naive enumeration and DPOR back to back and print the \
             schedule-count reduction factor.")
  in
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SCHEDULE"
          ~doc:
            "Re-execute one counterexample schedule (dot-separated \
             choices as printed by an exploration) instead of exploring.")
  in
  let run kernel threads pages crash max_schedules naive quantum compare
      replay =
    (* The gray kernel is a self-contained explicit-state model (no
       simulator underneath), dispatched before the simulator-backed
       kernel registry. *)
    if kernel = "gray" then begin
      if crash then
        Cli.usage ~cmd:"check"
          "--kernel gray models a partition, not a crash (--crash is for \
           the simulator-backed kernels)";
      if replay <> None then
        Cli.usage ~cmd:"check" "--kernel gray does not support --replay";
      let writes = 2 in
      let defects = ref 0 in
      List.iter
        (fun scope ->
           let r = Check.Gray.explore ~scope ~writes () in
           Format.printf "%a@." Check.Gray.pp_result r;
           defects := !defects + List.length r.Check.Gray.g_defects)
        [ Samhita.Config.Isolate; Samhita.Config.Control ];
      (* Negative control: the same exploration with the epoch fence
         disabled must find split-brain counterexamples, or the
         invariant checks are vacuous. *)
      let neg =
        Check.Gray.explore ~fence:false ~scope:Samhita.Config.Control ~writes
          ()
      in
      Format.printf "%a@." Check.Gray.pp_result neg;
      if neg.Check.Gray.g_defects = [] then begin
        Printf.eprintf
          "samhita_sim check: gray negative control (fence disabled) found \
           no violations — the invariant checks are vacuous\n";
        exit 1
      end;
      Format.printf
        "gray: fence holds over every interleaving; %d violation(s) \
         without it@."
        (List.length neg.Check.Gray.g_defects);
      if !defects > 0 then exit 1 else exit 0
    end;
    let kernel =
      match Check.Kernels.of_name kernel with
      | Ok k -> k
      | Error e -> Cli.usage ~cmd:"check" "%s" e
    in
    if threads < 2 || threads > 3 then
      Cli.usage ~cmd:"check" "--threads must be 2 or 3";
    if pages < 1 || pages > 2 then
      Cli.usage ~cmd:"check" "--pages must be 1 or 2";
    if quantum < 0 then Cli.usage ~cmd:"check" "--quantum must be >= 0";
    let opts =
      { Check.Checker.kernel;
        threads;
        pages;
        crash;
        dpor = not naive;
        max_schedules;
        quantum }
    in
    match replay with
    | Some sched_str -> begin
        match Check.Schedule.of_string sched_str with
        | Error e -> Cli.usage ~cmd:"check" "%s" e
        | Ok sched -> begin
            match Check.Checker.replay opts sched with
            | rp ->
              Format.printf "%a@." Check.Checker.pp_replay rp;
              if rp.Check.Checker.rp_defects <> [] then exit 1
            | exception Check.Checker.Bad_schedule msg ->
              Cli.usage ~cmd:"check" "%s" msg
          end
      end
    | None ->
      if compare then begin
        let naive_r =
          Check.Checker.explore { opts with Check.Checker.dpor = false }
        in
        let dpor_r =
          Check.Checker.explore { opts with Check.Checker.dpor = true }
        in
        Format.printf "%a@.%a@." Check.Checker.pp_result naive_r
          Check.Checker.pp_result dpor_r;
        let nn = naive_r.Check.Checker.r_schedules
        and nd = dpor_r.Check.Checker.r_schedules in
        Format.printf "reduction: naive %d vs dpor %d schedules (%.2fx)@."
          nn nd
          (if nd > 0 then float_of_int nn /. float_of_int nd else nan);
        if dpor_r.Check.Checker.r_defects <> [] then exit 1
      end
      else begin
        let r = Check.Checker.explore opts in
        Format.printf "%a@." Check.Checker.pp_result r;
        if r.Check.Checker.r_defects <> [] then exit 1
      end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "RegCCheck: exhaustively model-check a bounded kernel over every \
          same-instant scheduling choice (with dynamic partial-order \
          reduction), checking RegCSan findings, torture-oracle \
          invariants, kernel checksums and deadlock at every terminal \
          state; exits 1 with a replayable counterexample schedule when a \
          defect is found")
    Term.(
      const run $ kernel_t $ threads_t $ pages_t $ crash_t $ max_t $ naive_t
      $ quantum_t $ compare_t $ replay_t)

let () =
  let doc = "Samhita virtual-shared-memory reproduction driver" in
  let info = Cmd.info "samhita_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; fig_cmd; micro_cmd; jacobi_cmd; md_cmd; race_cmd;
            serve_cmd; torture_cmd; check_cmd ]))

type kernel = Micro | Jacobi | Kv | Racy

let kernel_name = function
  | Micro -> "micro"
  | Jacobi -> "jacobi"
  | Kv -> "kv"
  | Racy -> "racy"

let kernel_of_string = function
  | "micro" -> Ok Micro
  | "jacobi" -> Ok Jacobi
  | "kv" -> Ok Kv
  | "racy" -> Ok Racy
  | s -> Error (Printf.sprintf "unknown torture kernel %S" s)

type outcome = {
  o_seed : int;
  o_wall_ns : int;
  o_events : int;
  o_reads_checked : int;
  o_digest : int;
  o_violations : Oracle.violation list;
  o_trace : string list;
  o_faults : Samhita.Metrics.faults;
  o_promotions : int;
  o_takeovers : int;
  o_redriven : int;
  o_detect : Samhita.Metrics.detection;
  o_fault_trace : string list;
}

type mode = Plain | Crash | Crash_shard | Partition

let mode_of_flags ~crash ~crash_shard ~partition =
  match (crash, crash_shard, partition) with
  | false, false, false -> Ok Plain
  | true, false, false -> Ok Crash
  | false, true, false -> Ok Crash_shard
  | false, false, true -> Ok Partition
  | _ ->
    Error
      "--crash, --crash-shard and --partition are mutually exclusive \
       (single-failure model)"

(* Seed-derived system geometry for the compute kernels: small lines and
   tiny caches force evictions, multiple servers exercise striping, varied
   history lengths flip acquirers between patch and invalidate paths. The
   racy kernel keeps the default geometry — its per-class defect counts
   are pinned by a test and must not depend on eviction accidents. Each
   fault mode draws its spec after all geometry draws, so it perturbs
   only its own stream position, never the geometry. *)
let config_for ~kernel ~level ~mode ~seed rng =
  let base =
    match kernel with
    | Racy ->
      { Samhita.Config.default with
        Samhita.Config.seed;
        fault_level = level;
        shuffle = true }
    | Micro | Jacobi | Kv ->
      let pick l = List.nth l (Desim.Rng.int rng (List.length l)) in
      let page_bytes = pick [ 256; 512 ] in
      let pages_per_line = pick [ 1; 2 ] in
      let line = page_bytes * pages_per_line in
      { Samhita.Config.default with
        Samhita.Config.seed;
        fault_level = level;
        shuffle = true;
        page_bytes;
        pages_per_line;
        cache_lines = pick [ 4; 8; 32 ];
        prefetch = Desim.Rng.bool rng;
        evict_dirty_first = Desim.Rng.bool rng;
        small_threshold = 1024;
        large_threshold = 64 * 1024;
        arena_chunk_bytes = 16 * line;
        stripe_lines = pick [ 1; 2; 4 ];
        update_log_history = pick [ 0; 1; 64 ];
        memory_servers = pick [ 1; 2; 3 ];
        threads_per_node = pick [ 1; 2; 4 ] }
  in
  (* Replicated geometry for the server-fault modes: at least two servers
     so a backup exists, short leases. The racy kernel keeps its minimal
     replicated geometry for the same pinned-count reason as above. *)
  let replicated () =
    let ms =
      match kernel with
      | Racy -> 2
      | Micro | Jacobi | Kv -> 2 + Desim.Rng.int rng 2
    in
    { base with
      Samhita.Config.memory_servers = ms;
      replication = 1;
      lease_interval = Desim.Time.ns 20_000 }
  in
  match mode with
  | Plain -> base
  | Crash ->
    (* One seed-chosen server killed at a seed-chosen instant. *)
    let cfg = replicated () in
    let server = Desim.Rng.int rng cfg.Samhita.Config.memory_servers in
    let at_ns = 5_000 + Desim.Rng.int rng 500_000 in
    { cfg with fault = Some (Crash_server { server; at_ns }) }
  | Crash_shard ->
    (* Seed-derived sharded control plane (2..4 manager shards) with one
       seed-chosen non-zero shard killed at a seed-chosen instant; the
       ring successor must absorb the dead shard's sync objects with no
       protocol invariant violated. *)
    let shards = 2 + Desim.Rng.int rng 3 in
    let shard = 1 + Desim.Rng.int rng (shards - 1) in
    let at_ns = 5_000 + Desim.Rng.int rng 500_000 in
    { base with
      Samhita.Config.manager_shards = shards;
      fault = Some (Crash_shard { shard; at_ns }) }
  | Partition ->
    (* Gray failure: one seed-chosen server partitioned (not crashed)
       over a seed-chosen window, sized so the 20us lease reliably
       expires inside it (heartbeat escalation lands ~90-150us after the
       cut): every seed exercises a false suspicion and the epoch fence;
       the healed zombie stays fenced for the rest of the run. The scope
       coin flip alternates the two
       gray-failure shapes — [Isolate] (clients blocked too,
       park-and-retry) and [Control] (zombie primary still reachable by
       clients, fencing load-bearing). *)
    let cfg = replicated () in
    let scope =
      if Desim.Rng.bool rng then Samhita.Config.Control
      else Samhita.Config.Isolate
    in
    let server = Desim.Rng.int rng cfg.Samhita.Config.memory_servers in
    let start_ns = 5_000 + Desim.Rng.int rng 100_000 in
    let dur = 200_000 + Desim.Rng.int rng 300_001 in
    { cfg with
      fault =
        Some
          (Partition_server
             { server; scope; start_ns; heal_ns = start_ns + dur }) }

let no_detection =
  { Samhita.Metrics.suspicions = 0;
    false_suspicions = 0;
    fenced_messages = 0;
    rejoins = 0 }

let run_one ?(crash = false) ?(crash_shard = false) ?(partition = false)
    ~kernel ~level ~seed () =
  let mode =
    match mode_of_flags ~crash ~crash_shard ~partition with
    | Ok mode -> mode
    | Error e -> invalid_arg ("Torture.Runner.run_one: " ^ e)
  in
  (* All scenario draws come from a stream independent of the system's own
     seeded streams (engine tie-break, fault policy). *)
  let rng = Desim.Rng.create ~seed:(Desim.Rng.hash3 seed 0x746f72 1) in
  let config = config_for ~kernel ~level ~mode ~seed rng in
  let oracle = Oracle.create ~config () in
  let captured = ref None in
  let on_create sys =
    captured := Some sys;
    Oracle.attach oracle sys
  in
  let finished = ref false in
  (try
     match kernel with
     | Racy ->
       let _, san = Workload.Racy.run ~on_create ~config () in
       finished := true;
       let n = Analysis.Regcsan.findings_count san in
       if n <> 4 then
         Oracle.note_violation oracle ~v_class:"sanitizer-count"
           (Printf.sprintf
              "RegCSan reported %d findings, expected exactly 4 (one per \
               seeded defect class)"
              n)
     | Micro ->
       let threads = 2 + Desim.Rng.int rng 3 in
       let alloc =
         List.nth
           [ Workload.Microbench.Local;
             Workload.Microbench.Global;
             Workload.Microbench.Global_strided ]
           (Desim.Rng.int rng 3)
       in
       let p =
         { Workload.Microbench.default_params with
           Workload.Microbench.n_outer = 3;
           m_inner = 2;
           s_rows = 2;
           b_cols = 24;
           warmup = 1;
           alloc }
       in
       let backend = Workload.Samhita_backend.make ~on_create ~config () in
       let r = Workload.Microbench.run backend ~threads p in
       finished := true;
       if r.Workload.Microbench.gsum <> r.Workload.Microbench.expected_gsum
       then
         Oracle.note_violation oracle ~v_class:"checksum"
           (Printf.sprintf
              "micro gsum %.17g <> sequential reference %.17g (lost or \
               corrupted update)"
              r.Workload.Microbench.gsum
              r.Workload.Microbench.expected_gsum)
     | Kv ->
       let threads = 2 + Desim.Rng.int rng 3 in
       let shards = 1 + Desim.Rng.int rng 4 in
       let zipf_s = List.nth [ 0.0; 0.9; 1.4 ] (Desim.Rng.int rng 3) in
       let rate_rps = float_of_int (200_000 + Desim.Rng.int rng 700_001) in
       let requests = 48 + Desim.Rng.int rng 33 in
       let p =
         { Workload.Kv.traffic =
             { Workload.Traffic.clients = 6;
               requests;
               rate_rps;
               keys = 24;
               zipf_s;
               read_fraction = 0.7;
               seed };
           shards;
           service_flops = 16 }
       in
       let backend = Workload.Samhita_backend.make ~on_create ~config () in
       let r = Workload.Kv.run ~record_history:true backend ~threads p in
       finished := true;
       (match Workload.Kv.lost_writes r with
        | [] -> ()
        | (k, want, got) :: _ as l ->
          Oracle.note_violation oracle ~v_class:"checksum"
            (Printf.sprintf
               "kv: %d key(s) disagree with the request stream; first: key \
                %d expected version %d found %d (lost or phantom acked \
                write)"
               (List.length l) k want got));
       Oracle.check_kv_history oracle r.Workload.Kv.history
     | Jacobi ->
       let threads = 2 + Desim.Rng.int rng 3 in
       let n = 8 + (2 * Desim.Rng.int rng 4) in
       let iters = 2 + Desim.Rng.int rng 2 in
       let p = { Workload.Jacobi.default_params with n; iters } in
       let backend = Workload.Samhita_backend.make ~on_create ~config () in
       let r = Workload.Jacobi.run backend ~threads p in
       finished := true;
       let ref_sum, ref_res = Workload.Jacobi.reference p in
       if r.Workload.Jacobi.checksum <> ref_sum then
         Oracle.note_violation oracle ~v_class:"checksum"
           (Printf.sprintf
              "jacobi checksum %.17g <> sequential reference %.17g (lost \
               or corrupted update)"
              r.Workload.Jacobi.checksum ref_sum);
       if r.Workload.Jacobi.residual <> ref_res then
         Oracle.note_violation oracle ~v_class:"checksum"
           (Printf.sprintf
              "jacobi residual %.17g <> sequential reference %.17g"
              r.Workload.Jacobi.residual ref_res)
   with
   | Desim.Engine.Stalled msg ->
     Oracle.note_violation oracle ~v_class:"deadlock" msg
   | exn ->
     Oracle.note_violation oracle ~v_class:"crash" (Printexc.to_string exn));
  (* End-of-run invariants need a quiescent system; a deadlocked or
     crashed run is reported by its primary violation alone. *)
  (match (!finished, !captured) with
   | true, Some sys -> Oracle.finalize oracle sys
   | _ -> ());
  let outcome =
    { o_seed = seed;
      o_wall_ns = 0;
      o_events = Oracle.events oracle;
      o_reads_checked = Oracle.reads_checked oracle;
      o_digest = Oracle.digest oracle;
      o_violations = Oracle.violations oracle;
      o_trace = Oracle.trace_tail oracle;
      o_faults = { delayed = 0; reordered = 0; dropped = 0; retried = 0 };
      o_promotions = 0;
      o_takeovers = 0;
      o_redriven = 0;
      o_detect = no_detection;
      o_fault_trace = [] }
  in
  match !captured with
  | None -> outcome
  | Some sys ->
    let control = Samhita.Metrics.control_of_system sys in
    { outcome with
      o_wall_ns = Desim.Time.to_ns (Samhita.System.elapsed sys);
      o_faults = Samhita.Metrics.faults_of_system sys;
      o_promotions =
        (Samhita.Metrics.replication_of_system sys).promotions;
      o_takeovers = control.takeovers;
      o_redriven = control.redriven_pushes;
      o_detect = Samhita.Metrics.detection_of_system sys;
      o_fault_trace =
        (match Fabric.Network.faults (Samhita.System.network sys) with
         | Some f -> Fabric.Faults.trace_tail f
         | None -> []) }

type summary = {
  s_kernel : kernel;
  s_level : Fabric.Faults.level;
  s_runs : int;
  s_events : int;
  s_reads_checked : int;
  s_faults : Samhita.Metrics.faults;
  s_promotions : int;
  s_takeovers : int;
  s_redriven : int;
  s_detect : Samhita.Metrics.detection option;
  s_digest : int;
  s_failures : outcome list;
}

let run ?(replay_check = true) ?(crash = false) ?(crash_shard = false)
    ?(partition = false) ~kernel ~level ~seeds ~base_seed () =
  if seeds <= 0 then invalid_arg "Torture.Runner.run: seeds must be positive";
  let failures = ref [] in
  let events = ref 0 and reads = ref 0 in
  let fd = ref 0 and fr = ref 0 and fo = ref 0 and ft = ref 0 in
  let promotions = ref 0 and takeovers = ref 0 and redriven = ref 0 in
  let detect = ref no_detection in
  let digest = ref 0 in
  for i = 0 to seeds - 1 do
    let seed = base_seed + i in
    let o = run_one ~crash ~crash_shard ~partition ~kernel ~level ~seed () in
    let o =
      if not replay_check then o
      else begin
        let o2 =
          run_one ~crash ~crash_shard ~partition ~kernel ~level ~seed ()
        in
        if
          o2.o_digest <> o.o_digest
          || o2.o_events <> o.o_events
          || o2.o_wall_ns <> o.o_wall_ns
        then
          { o with
            o_violations =
              o.o_violations
              @ [ { Oracle.v_class = "nondeterminism";
                    v_message =
                      Printf.sprintf
                        "replay diverged: digest %x vs %x, %d vs %d \
                         events, wall %dns vs %dns"
                        o.o_digest o2.o_digest o.o_events o2.o_events
                        o.o_wall_ns o2.o_wall_ns } ] }
        else o
      end
    in
    events := !events + o.o_events;
    reads := !reads + o.o_reads_checked;
    fd := !fd + o.o_faults.delayed;
    fo := !fo + o.o_faults.reordered;
    fr := !fr + o.o_faults.dropped;
    ft := !ft + o.o_faults.retried;
    promotions := !promotions + o.o_promotions;
    takeovers := !takeovers + o.o_takeovers;
    redriven := !redriven + o.o_redriven;
    detect := Samhita.Metrics.add_detection !detect o.o_detect;
    digest := Desim.Rng.hash3 !digest o.o_digest o.o_wall_ns;
    if o.o_violations <> [] then failures := o :: !failures
  done;
  { s_kernel = kernel;
    s_level = level;
    s_runs = seeds;
    s_events = !events;
    s_reads_checked = !reads;
    s_faults =
      { Samhita.Metrics.delayed = !fd;
        reordered = !fo;
        dropped = !fr;
        retried = !ft };
    s_promotions = !promotions;
    s_takeovers = !takeovers;
    s_redriven = !redriven;
    s_detect = (if partition then Some !detect else None);
    s_digest = !digest;
    s_failures = List.rev !failures }

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>seed %d: %d violation(s)@," o.o_seed
    (List.length o.o_violations);
  List.iter
    (fun (v : Oracle.violation) ->
       Format.fprintf ppf "  [%s] %s@," v.Oracle.v_class v.Oracle.v_message)
    o.o_violations;
  if o.o_trace <> [] then begin
    Format.fprintf ppf "  trace tail (%d events):@," (List.length o.o_trace);
    List.iter (fun l -> Format.fprintf ppf "    %s@," l) o.o_trace
  end;
  if o.o_fault_trace <> [] then begin
    Format.fprintf ppf "  fault trace (%d events):@,"
      (List.length o.o_fault_trace);
    List.iter (fun l -> Format.fprintf ppf "    %s@," l) o.o_fault_trace
  end;
  Format.fprintf ppf "@]"

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>torture %s faults=%s: %d seed(s), %d events, %d reads checked@,\
     injected: %a@,"
    (kernel_name s.s_kernel)
    (Fabric.Faults.level_name s.s_level)
    s.s_runs s.s_events s.s_reads_checked Samhita.Metrics.pp_faults s.s_faults;
  if s.s_promotions > 0 then
    Format.fprintf ppf "crash recovery: %d promotion(s)@," s.s_promotions;
  if s.s_takeovers > 0 then
    Format.fprintf ppf "shard recovery: %d takeover(s), %d re-driven push(es)@,"
      s.s_takeovers s.s_redriven;
  (match s.s_detect with
   | None -> ()
   | Some d ->
     Format.fprintf ppf
       "gray failures: suspicions=%d false-suspicions=%d fenced=%d@,"
       d.Samhita.Metrics.suspicions d.Samhita.Metrics.false_suspicions
       d.Samhita.Metrics.fenced_messages);
  Format.fprintf ppf "digest %x@," s.s_digest;
  Format.fprintf ppf "%s@]"
    (if s.s_failures = [] then "all seeds clean"
     else Printf.sprintf "%d FAILING seed(s)" (List.length s.s_failures))

(* Benchmark driver: regenerates every figure of the paper's evaluation
   (Figures 3-13) plus the ablations, then runs Bechamel micro-benchmarks
   of the core runtime primitives.

     dune exec bench/main.exe                 # everything, paper scale
     dune exec bench/main.exe -- --quick      # shrunken sweeps
     dune exec bench/main.exe -- fig3 fig11   # a subset
     dune exec bench/main.exe -- --no-micro   # skip Bechamel section
     dune exec bench/main.exe -- --json       # also write BENCH.json *)

let run_figures ~scale ~ids =
  let c = Harness.Experiments.ctx scale in
  let all = Harness.Experiments.all c in
  let selected =
    match ids with
    | [] -> all
    | ids ->
      List.map
        (fun id ->
           match List.assoc_opt id all with
           | Some f -> (id, f)
           | None ->
             Printf.eprintf "unknown figure id %S; try: %s\n%!" id
               (String.concat " " (List.map fst all));
             exit 2)
        ids
  in
  List.map
    (fun (id, f) ->
       let t0 = Unix.gettimeofday () in
       let fig = f c in
       Harness.Series.render Format.std_formatter fig;
       (id, Unix.gettimeofday () -. t0))
    selected

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core primitives                    *)

(* The cache-hit benchmarks drive a real Thread_ctx outside the engine:
   a one-thread system faults a line in (and dirties it) during a warmup
   run, after which repeated hits on that line perform no effects — the
   access path is plain OCaml — so Bechamel can call it directly. *)
let warmed_hit_ctx () =
  let sys = Samhita.System.create ~threads:1 () in
  let got = ref None in
  ignore
    (Samhita.System.spawn sys (fun t ->
         let a = Samhita.Thread_ctx.malloc t ~bytes:64 in
         Samhita.Thread_ctx.write_i64 t a 1L;
         got := Some (t, a))
     : Samhita.Thread_ctx.t);
  Samhita.System.run sys;
  match !got with
  | Some ta -> ta
  | None -> failwith "warmup did not run"

let bechamel_tests () =
  let open Bechamel in
  let cfg = Samhita.Config.default in
  let layout = Samhita.Layout.of_config cfg in
  let line_bytes = Samhita.Config.line_bytes cfg in

  (* The strided false-sharing shape of Figures 5 and 8-11: at P=8 a
     thread owns every 8th double, so its twin diff changes one 8-byte
     slot per 64 bytes. Sparse diffs like this are where the word-wise
     scan earns its keep — 7 of 8 words compare equal and are skipped in
     one load each. *)
  let diff_pair () =
    let twin = Bytes.make line_bytes '\000' in
    let current = Bytes.copy twin in
    for i = 0 to (4096 / 64) - 1 do
      Bytes.set_int64_le current (i * 64) 0x3FF0000000000000L
    done;
    (twin, current)
  in
  let diff_make =
    let twin, current = diff_pair () in
    Test.make ~name:"diff.make (strided false sharing)"
      (Staged.stage (fun () ->
           ignore
             (Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
              : Samhita.Diff.t)))
  in
  let diff_make_ref =
    (* The retired scalar implementation on the same input, measured in
       the same process: the diff.make speedup reported in BENCH.json is
       the ratio of these two, immune to run-to-run machine drift. *)
    let twin, current = diff_pair () in
    Test.make ~name:"diff.make (reference scalar)"
      (Staged.stage (fun () ->
           ignore
             (Samhita.Diff_reference.make layout ~line:0 ~twin ~current
                ~dirty_pages:1
              : Samhita.Diff_reference.t)))
  in
  (* The other shape that matters: numeric data freshly recomputed in
     place (a Jacobi or MD sweep) changes the mantissa bytes of every
     double but rarely its exponent byte, so every word differs
     partially. This is the worst case for a word-wise scan (nearly
     every word takes the byte-loop fallback) and is kept benched so it
     cannot regress silently. *)
  let diff_pair_dense () =
    let twin = Bytes.make line_bytes '\000' in
    let current = Bytes.copy twin in
    for i = 0 to (4096 / 8) - 1 do
      Bytes.set_int64_le current (i * 8) 0x0000BEEFBEEFBEEFL
    done;
    (twin, current)
  in
  let diff_make_dense =
    let twin, current = diff_pair_dense () in
    Test.make ~name:"diff.make (dense numeric)"
      (Staged.stage (fun () ->
           ignore
             (Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
              : Samhita.Diff.t)))
  in
  let diff_make_dense_ref =
    let twin, current = diff_pair_dense () in
    Test.make ~name:"diff.make (dense numeric, reference)"
      (Staged.stage (fun () ->
           ignore
             (Samhita.Diff_reference.make layout ~line:0 ~twin ~current
                ~dirty_pages:1
              : Samhita.Diff_reference.t)))
  in
  let diff_apply =
    let twin, current = diff_pair () in
    let d = Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1 in
    let target = Bytes.make line_bytes '\000' in
    Test.make ~name:"diff.apply"
      (Staged.stage (fun () -> Samhita.Diff.apply d target))
  in
  let heap_bench =
    Test.make ~name:"event-queue push+pop x64"
      (Staged.stage (fun () ->
           let h = Desim.Heap.create ~initial_capacity:128 () in
           for i = 0 to 63 do
             Desim.Heap.push h ~time:(i * 37 mod 101) i
           done;
           let rec drain () =
             match Desim.Heap.pop h with
             | Some _ -> drain ()
             | None -> ()
           in
           drain ()))
  in
  let cache_read_hit, cache_write_hit =
    let t, a = warmed_hit_ctx () in
    ( Test.make ~name:"thread.read_i64 (cache hit)"
        (Staged.stage (fun () ->
             ignore (Samhita.Thread_ctx.read_i64 t a : int64))),
      Test.make ~name:"thread.write_i64 (cache hit)"
        (Staged.stage (fun () -> Samhita.Thread_ctx.write_i64 t a 2L)) )
  in
  let rng_bench =
    let rng = Desim.Rng.create ~seed:7 in
    Test.make ~name:"rng.int64"
      (Staged.stage (fun () -> ignore (Desim.Rng.int64 rng : int64)))
  in
  let arena_bench =
    let arena = Samhita.Allocator.Arena.create () in
    Samhita.Allocator.Arena.add_chunk arena ~base:0 ~size:(1 lsl 20);
    Test.make ~name:"arena alloc+free"
      (Staged.stage (fun () ->
           match Samhita.Allocator.Arena.alloc arena ~bytes:64 with
           | `Hit addr -> Samhita.Allocator.Arena.free arena ~addr ~bytes:64
           | `Need_chunk ->
             Samhita.Allocator.Arena.add_chunk arena ~base:0
               ~size:(1 lsl 20)))
  in
  let smp_read =
    let mcfg = Smp.Config.default in
    let machine = Smp.Machine.create mcfg in
    let addr = Smp.Machine.alloc machine ~bytes:4096 ~align:64 in
    Test.make ~name:"smp coherence read_cost"
      (Staged.stage (fun () ->
           ignore (Smp.Machine.read_cost machine ~thread:0 ~addr : float)))
  in
  let update_apply =
    let u = Samhita.Update.of_i64 ~addr:128 0x4000000000000000L in
    let buf = Bytes.make line_bytes '\000' in
    Test.make ~name:"update.apply_to_line"
      (Staged.stage (fun () ->
           Samhita.Update.apply_to_line layout u ~line:0 buf))
  in
  [ diff_make; diff_make_ref; diff_make_dense; diff_make_dense_ref;
    diff_apply; heap_bench; cache_read_hit; cache_write_hit; rng_bench;
    arena_bench; smp_read; update_apply ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "== core-primitive micro-benchmarks (Bechamel) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let strip name =
    if String.length name > 0 && name.[0] = '/' then
      String.sub name 1 (String.length name - 1)
    else name
  in
  let out = ref [] in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       let analyzed = Analyze.all ols Instance.monotonic_clock results in
       Hashtbl.iter
         (fun name v ->
            match Analyze.OLS.estimates v with
            | Some [ est ] ->
              Printf.printf "  %-32s %10.1f ns/run\n%!" name est;
              out := (strip name, est) :: !out
            | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
         analyzed)
    (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) (bechamel_tests ()));
  print_newline ();
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Replication cost probe                                              *)

(* What does primary-backup fault tolerance cost a real kernel? One
   quick Jacobi run on a two-server geometry without replication, one
   with — same seed, same shape — reported as a slowdown ratio plus the
   mirror/heartbeat counters that explain it. Both runs happen in this
   process back to back, so the ratio is machine-drift-immune like the
   speedup ratios above (the wall times here are simulated anyway). *)
let replication_probe () =
  let run replication =
    let config =
      { Samhita.Config.default with
        Samhita.Config.memory_servers = 2;
        replication }
    in
    let captured = ref None in
    let b =
      Workload.Samhita_backend.make ~config
        ~on_create:(fun sys -> captured := Some sys)
        ()
    in
    let p = { Workload.Jacobi.default_params with n = 32; iters = 4 } in
    let r = Workload.Jacobi.run b ~threads:4 p in
    (r.Workload.Jacobi.wall_ns, !captured)
  in
  let base_wall, _ = run 0 in
  let repl_wall, sys = run 1 in
  let slowdown = float_of_int repl_wall /. float_of_int base_wall in
  Printf.printf
    "== replication cost probe (jacobi n=32 iters=4 P=4, 2 servers) ==\n\
    \  baseline wall    %d ns\n\
    \  replicated wall  %d ns\n\
    \  slowdown         %.3fx\n\n"
    base_wall repl_wall slowdown;
  let counters =
    match sys with
    | Some s -> Samhita.Metrics.replication_of_system s
    | None -> None
  in
  ( ("jacobi_slowdown", slowdown),
    match counters with
    | None -> []
    | Some r ->
      [ ("mirrored_writes", r.Samhita.Metrics.mirrored_writes);
        ("mirror_bytes", r.Samhita.Metrics.mirror_bytes);
        ("degraded_writes", r.Samhita.Metrics.degraded_writes);
        ("heartbeats", r.Samhita.Metrics.heartbeats);
        ("leases_expired", r.Samhita.Metrics.leases_expired);
        ("promotions", r.Samhita.Metrics.promotions);
        ("replayed_updates", r.Samhita.Metrics.replayed_updates) ] )

(* ------------------------------------------------------------------ *)
(* Gray-failure detection probe                                        *)

(* How does the failure detector behave under a partition that is not a
   crash? One Jacobi run with a control-scope partition: the victim's
   lease expires (false suspicion), its backup is promoted, and the
   still-executing zombie's traffic is fenced by the epoch check until
   the heal lets it rejoin. Reported as the raw detection counters —
   the quantities the partition-torture oracle asserts over. *)
let detection_probe () =
  let config =
    { Samhita.Config.default with
      Samhita.Config.memory_servers = 2;
      replication = 1;
      lease_interval = Desim.Time.ns 20_000;
      partition_server = Some (1, Samhita.Config.Control, 5_000, 400_000) }
  in
  let captured = ref None in
  let b =
    Workload.Samhita_backend.make ~config
      ~on_create:(fun sys -> captured := Some sys)
      ()
  in
  let p = { Workload.Jacobi.default_params with n = 32; iters = 4 } in
  ignore (Workload.Jacobi.run b ~threads:4 p : Workload.Jacobi.result);
  let counters =
    match !captured with
    | Some s -> Samhita.Metrics.detection_of_system s
    | None -> None
  in
  match counters with
  | None -> []
  | Some d ->
    Printf.printf
      "== gray-failure detection probe (jacobi, control-scope partition) ==\n\
      \  suspicions        %d\n\
      \  false suspicions  %d\n\
      \  fenced messages   %d\n\
      \  rejoins           %d\n\n"
      d.Samhita.Metrics.suspicions d.Samhita.Metrics.false_suspicions
      d.Samhita.Metrics.fenced_messages d.Samhita.Metrics.rejoins;
    [ ("suspicions", d.Samhita.Metrics.suspicions);
      ("false_suspicions", d.Samhita.Metrics.false_suspicions);
      ("fenced_messages", d.Samhita.Metrics.fenced_messages);
      ("rejoins", d.Samhita.Metrics.rejoins) ]

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_bench_json ~scale ~micro ~figures ~repl ~detect =
  let oc = open_out "BENCH.json" in
  let field_block name entries fmt_v =
    Printf.fprintf oc "  \"%s\": {" name;
    List.iteri
      (fun i (k, v) ->
         Printf.fprintf oc "%s\n    \"%s\": %s"
           (if i = 0 then "" else ",")
           (json_escape k) (fmt_v v))
      entries;
    Printf.fprintf oc "\n  }"
  in
  Printf.fprintf oc "{\n  \"scale\": \"%s\",\n" scale;
  field_block "micro_ns_per_run" micro (Printf.sprintf "%.1f");
  (* Same-process speedup ratios: both sides of each ratio were measured
     back to back above, so machine-wide frequency drift cancels. *)
  let ratio label now_name ref_name =
    match (List.assoc_opt now_name micro, List.assoc_opt ref_name micro) with
    | Some now, Some ref_ when now > 0. -> [ (label, ref_ /. now) ]
    | _ -> []
  in
  let speedups =
    ratio "diff.make vs scalar reference" "diff.make (strided false sharing)"
      "diff.make (reference scalar)"
    @ ratio "diff.make (dense numeric) vs reference"
        "diff.make (dense numeric)" "diff.make (dense numeric, reference)"
  in
  if speedups <> [] then begin
    Printf.fprintf oc ",\n";
    field_block "speedup" speedups (Printf.sprintf "%.2f")
  end;
  if figures <> [] then begin
    Printf.fprintf oc ",\n";
    field_block "figures_wall_s" figures (Printf.sprintf "%.3f")
  end;
  (let (slow_label, slowdown), counters = repl in
   Printf.fprintf oc ",\n";
   field_block "replication"
     ((slow_label, Printf.sprintf "%.3f" slowdown)
      :: List.map (fun (k, v) -> (k, string_of_int v)) counters)
     (fun s -> s));
  if detect <> [] then begin
    Printf.fprintf oc ",\n";
    field_block "detection" detect string_of_int
  end;
  Printf.fprintf oc "\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH.json\n%!"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let no_micro = List.mem "--no-micro" args in
  let json = List.mem "--json" args in
  let ids =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  let scale =
    if quick then Harness.Experiments.Quick else Harness.Experiments.Paper
  in
  Printf.printf
    "Samhita/RegC reproduction benchmarks (%s scale)\n\
     one table per figure of the paper's evaluation; see EXPERIMENTS.md\n\n"
    (if quick then "quick" else "paper");
  let figures = run_figures ~scale ~ids in
  let micro = if not no_micro then run_bechamel () else [] in
  if json then begin
    let repl = replication_probe () in
    let detect = detection_probe () in
    write_bench_json
      ~scale:(if quick then "quick" else "paper")
      ~micro ~figures ~repl ~detect
  end

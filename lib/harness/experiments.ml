type scale = Quick | Paper

let scale_of_string = function
  | "quick" -> Ok Quick
  | "paper" | "full" -> Ok Paper
  | s -> Error (Printf.sprintf "unknown scale %S (expected quick|paper)" s)

(* ------------------------------------------------------------------ *)
(* Parameter ranges                                                    *)

let pth_cores = function Quick -> [ 1; 2; 4 ] | Paper -> [ 1; 2; 4; 8 ]

let smh_cores = function
  | Quick -> [ 1; 4; 8 ]
  | Paper -> [ 1; 2; 4; 8; 16; 24; 32 ]

let m_values = function Quick -> [ 1; 10 ] | Paper -> [ 1; 10; 100 ]
let s_values = function Quick -> [ 1; 4 ] | Paper -> [ 1; 2; 4; 8 ]
let mid_cores = function Quick -> 4 | Paper -> 16

let jacobi_params = function
  | Quick -> { Workload.Jacobi.default_params with n = 64; iters = 6 }
  | Paper -> { Workload.Jacobi.default_params with n = 1024; iters = 10 }

let md_params = function
  | Quick -> { Workload.Md.default_params with n = 256; steps = 4 }
  | Paper -> { Workload.Md.default_params with n = 2048; steps = 8 }

(* ------------------------------------------------------------------ *)
(* Memoized kernel runs                                                *)

type ctx = {
  scale : scale;
  micro : (string, Workload.Microbench.result) Hashtbl.t;
  jacobi : (string, Workload.Jacobi.result) Hashtbl.t;
  md : (string, Workload.Md.result) Hashtbl.t;
  evict : (string, float * float) Hashtbl.t;
}

let ctx scale =
  { scale;
    micro = Hashtbl.create 64;
    jacobi = Hashtbl.create 16;
    md = Hashtbl.create 16;
    evict = Hashtbl.create 8 }

let scale c = c.scale

type backend_kind = Pth | Smh

let backend_name = function Pth -> "pth" | Smh -> "smh"

let backend ?config = function
  | Pth -> Workload.Smp_backend.default
  | Smh -> (
      match config with
      | None -> Workload.Samhita_backend.default
      | Some c -> Workload.Samhita_backend.make ~config:c ())

let micro_key kind ?tag ~threads (p : Workload.Microbench.params) =
  Printf.sprintf "%s%s-%s-P%d-M%d-S%d-B%d-N%d-w%d" (backend_name kind)
    (match tag with None -> "" | Some t -> "[" ^ t ^ "]")
    (Workload.Microbench.mode_name p.alloc)
    threads p.m_inner p.s_rows p.b_cols p.n_outer p.warmup

let micro c kind ?config ?tag ~threads (p : Workload.Microbench.params) =
  let key = micro_key kind ?tag ~threads p in
  match Hashtbl.find_opt c.micro key with
  | Some r -> r
  | None ->
    let r = Workload.Microbench.run (backend ?config kind) ~threads p in
    if r.gsum <> r.expected_gsum then
      failwith ("harness: gsum mismatch in run " ^ key);
    Hashtbl.replace c.micro key r;
    r

let jacobi c kind ~threads p =
  let key = Printf.sprintf "%s-P%d" (backend_name kind) threads in
  match Hashtbl.find_opt c.jacobi key with
  | Some r -> r
  | None ->
    let r = Workload.Jacobi.run (backend kind) ~threads p in
    Hashtbl.replace c.jacobi key r;
    r

let md c kind ~threads p =
  let key = Printf.sprintf "%s-P%d" (backend_name kind) threads in
  match Hashtbl.find_opt c.md key with
  | Some r -> r
  | None ->
    let r = Workload.Md.run (backend kind) ~threads p in
    Hashtbl.replace c.md key r;
    r

let imean a =
  Array.fold_left (fun acc x -> acc +. float_of_int x) 0. a
  /. float_of_int (Array.length a)

let ns_to_s v = v *. 1e-9

(* ------------------------------------------------------------------ *)
(* Figures 3-5: normalized compute time                                *)

let micro_base (p : Workload.Microbench.params) alloc m =
  { p with Workload.Microbench.alloc; m_inner = m }

let normalized_compute_fig c ~id ~alloc ~title =
  let base = Workload.Microbench.default_params in
  let ms = m_values c.scale in
  let norm_base m =
    (* Everything is normalized by the 1-thread Pthreads compute time for
       the same M (the paper's convention). *)
    let r = micro c Pth ~threads:1 (micro_base base Workload.Microbench.Local m) in
    imean r.compute_ns
  in
  let series kind =
    List.map
      (fun m ->
         let b = norm_base m in
         { Series.label = Printf.sprintf "%s,M=%d" (backend_name kind) m;
           points =
             List.map
               (fun p ->
                  let r = micro c kind ~threads:p (micro_base base alloc m) in
                  (float_of_int p, imean r.compute_ns /. b))
               (match kind with
                | Pth -> pth_cores c.scale
                | Smh -> smh_cores c.scale) })
      ms
  in
  { Series.id;
    title;
    xlabel = "cores";
    ylabel = "compute time (normalized to 1-thread pthreads)";
    series = series Pth @ series Smh;
    notes =
      [ "paper shape: pthreads and samhita flat and close for local \
         allocation;";
        "false-sharing penalty visible at small M, amortized as M grows." ] }

let fig3 c =
  normalized_compute_fig c ~id:"fig3" ~alloc:Workload.Microbench.Local
    ~title:"normalized compute time, local allocation"

let fig4 c =
  normalized_compute_fig c ~id:"fig4" ~alloc:Workload.Microbench.Global
    ~title:"normalized compute time, global allocation"

let fig5 c =
  normalized_compute_fig c ~id:"fig5"
    ~alloc:Workload.Microbench.Global_strided
    ~title:"normalized compute time, global allocation strided access"

(* ------------------------------------------------------------------ *)
(* Figures 6-8: compute time vs cores for S sweep (Samhita)            *)

let compute_vs_cores_fig c ~id ~alloc ~title =
  let base = { Workload.Microbench.default_params with m_inner = 10 } in
  let series =
    List.map
      (fun s ->
         { Series.label = Printf.sprintf "S=%d" s;
           points =
             List.map
               (fun p ->
                  let r =
                    micro c Smh ~threads:p
                      { (micro_base base alloc 10) with s_rows = s }
                  in
                  (float_of_int p, ns_to_s (imean r.compute_ns)))
               (smh_cores c.scale) })
      (s_values c.scale)
  in
  { Series.id;
    title;
    xlabel = "cores";
    ylabel = "compute time (s)";
    series;
    notes =
      [ "paper shape: compute grows with S; flat across cores without \
         false sharing, growing with cores as false sharing increases." ] }

let fig6 c =
  compute_vs_cores_fig c ~id:"fig6" ~alloc:Workload.Microbench.Local
    ~title:"compute time vs cores, local allocation"

let fig7 c =
  compute_vs_cores_fig c ~id:"fig7" ~alloc:Workload.Microbench.Global
    ~title:"compute time vs cores, global allocation"

let fig8 c =
  compute_vs_cores_fig c ~id:"fig8" ~alloc:Workload.Microbench.Global_strided
    ~title:"compute time vs cores, global allocation strided access"

(* ------------------------------------------------------------------ *)
(* Figures 9-10: compute / sync time vs ordinary-region size at P=16   *)

let vs_s_fig c ~id ~metric ~ylabel ~title ~notes =
  let p16 = mid_cores c.scale in
  let base = { Workload.Microbench.default_params with m_inner = 10 } in
  let series =
    List.map
      (fun (label, alloc) ->
         { Series.label;
           points =
             List.map
               (fun s ->
                  let r =
                    micro c Smh ~threads:p16
                      { (micro_base base alloc 10) with s_rows = s }
                  in
                  (float_of_int s, ns_to_s (metric r)))
               (s_values c.scale) })
      [ ("local", Workload.Microbench.Local);
        ("global", Workload.Microbench.Global);
        ("strided", Workload.Microbench.Global_strided) ]
  in
  { Series.id;
    title = Printf.sprintf "%s (P=%d)" title p16;
    xlabel = "rows of data (S)";
    ylabel;
    series;
    notes }

let fig9 c =
  vs_s_fig c ~id:"fig9"
    ~metric:(fun r -> imean r.Workload.Microbench.compute_ns)
    ~ylabel:"compute time (s)" ~title:"compute time vs ordinary region size"
    ~notes:
      [ "paper shape: compute grows with S; local <= global <= strided, \
         gap grows with S." ]

let fig10 c =
  vs_s_fig c ~id:"fig10"
    ~metric:(fun r -> imean r.Workload.Microbench.sync_ns)
    ~ylabel:"synchronization time (s)"
    ~title:"synchronization time vs ordinary region size"
    ~notes:
      [ "paper shape: local flat; sync grows with S under false sharing \
         (more data moved at consistency points), strided worst." ]

(* ------------------------------------------------------------------ *)
(* Figure 11: synchronization time vs cores                            *)

let fig11 c =
  let base = { Workload.Microbench.default_params with m_inner = 10 } in
  let modes =
    [ ("local", Workload.Microbench.Local);
      ("global", Workload.Microbench.Global);
      ("strided", Workload.Microbench.Global_strided) ]
  in
  let series kind =
    List.map
      (fun (label, alloc) ->
         { Series.label = Printf.sprintf "%s_%s" (backend_name kind) label;
           points =
             List.map
               (fun p ->
                  let r = micro c kind ~threads:p (micro_base base alloc 10) in
                  (float_of_int p, ns_to_s (imean r.sync_ns)))
               (match kind with
                | Pth -> pth_cores c.scale
                | Smh -> smh_cores c.scale) })
      modes
  in
  { Series.id = "fig11";
    title = "synchronization time vs cores (plot on a log scale)";
    xlabel = "cores";
    ylabel = "synchronization time (s)";
    series = series Pth @ series Smh;
    notes =
      [ "paper shape: samhita sync 1-2 orders of magnitude above pthreads \
         (consistency operations ride on synchronization);";
        "growth with cores moderate; strided > global > local for samhita." ] }

(* ------------------------------------------------------------------ *)
(* Figures 12-13: application speedups                                 *)

let speedup_fig c ~id ~title ~wall_pth ~wall_smh ~notes =
  let base = wall_pth 1 in
  let series =
    [ { Series.label = "pthreads";
        points =
          List.map
            (fun p -> (float_of_int p, base /. wall_pth p))
            (pth_cores c.scale) };
      { Series.label = "samhita";
        points =
          List.map
            (fun p -> (float_of_int p, base /. wall_smh p))
            (smh_cores c.scale) } ]
  in
  { Series.id = id;
    title;
    xlabel = "cores";
    ylabel = "speed-up vs 1-core pthreads";
    series;
    notes }

let fig12 c =
  let p = jacobi_params c.scale in
  speedup_fig c ~id:"fig12" ~title:"Jacobi speedup vs cores"
    ~wall_pth:(fun t -> float_of_int (jacobi c Pth ~threads:t p).wall_ns)
    ~wall_smh:(fun t -> float_of_int (jacobi c Smh ~threads:t p).wall_ns)
    ~notes:
      [ "paper shape: samhita tracks pthreads within the node and keeps \
         speedup to ~16 cores, flattening by 32." ]

let fig13 c =
  let p = md_params c.scale in
  speedup_fig c ~id:"fig13" ~title:"molecular dynamics speedup vs cores"
    ~wall_pth:(fun t -> float_of_int (md c Pth ~threads:t p).wall_ns)
    ~wall_smh:(fun t -> float_of_int (md c Smh ~threads:t p).wall_ns)
    ~notes:
      [ "paper shape: computation O(n) per particle masks synchronization; \
         samhita scales well to 32 cores." ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 6)                                     *)

let smh_with c ~tag ~config ~threads p =
  micro c Smh ~config ~tag ~threads p

let ablation_prefetch c =
  (* Prefetching matters during cold first touches, and its benefit is a
     latency effect: a single scanning thread overlaps fetches with
     compute. (With many threads saturating one memory server the scan is
     bandwidth-bound and anticipatory requests cannot help.) Measure the
     whole run, not the warm steady-state window. *)
  let threads = 1 in
  (* One full line per row (B = 2048 doubles): a thread's data spans S
     lines, so initialization and post-invalidation refetches walk lines
     sequentially — the access pattern anticipatory paging targets. *)
  let base =
    { Workload.Microbench.default_params with
      m_inner = 1;
      warmup = 0;
      b_cols = 2048 }
  in
  let run label prefetch s =
    let config = { Samhita.Config.default with prefetch } in
    smh_with c ~tag:label ~config ~threads { base with s_rows = s }
  in
  let series =
    List.map
      (fun (label, prefetch) ->
         { Series.label = label ^ ":wall_ms";
           points =
             List.map
               (fun s ->
                  let r = run label prefetch s in
                  (float_of_int s, float_of_int r.wall_ns /. 1e6))
               (s_values c.scale) })
      [ ("prefetch-on", true); ("prefetch-off", false) ]
  in
  { Series.id = "abl-prefetch";
    title = "makespan of a line-walking workload with and without \
             prefetching";
    xlabel = "rows of data (S, one line each)";
    ylabel = "wall (ms)";
    series;
    notes =
      [ "anticipatory paging of the adjacent line converts sequential \
         first-touch misses into asynchronous installs (paper section II)." ] }

let ablation_line_size c =
  let threads = mid_cores c.scale in
  let base =
    { Workload.Microbench.default_params with
      m_inner = 10;
      alloc = Workload.Microbench.Global_strided }
  in
  let series =
    List.map
      (fun (label, metric) ->
         { Series.label;
           points =
             List.map
               (fun ppl ->
                  let config =
                    { Samhita.Config.default with pages_per_line = ppl }
                  in
                  let r =
                    smh_with c ~tag:(Printf.sprintf "ppl%d" ppl) ~config
                      ~threads base
                  in
                  (float_of_int ppl, ns_to_s (metric r)))
               [ 1; 2; 4; 8 ] })
      [ ("compute", fun r -> imean r.Workload.Microbench.compute_ns);
        ("sync", fun r -> imean r.Workload.Microbench.sync_ns) ]
  in
  { Series.id = "abl-line";
    title = "strided access vs pages per cache line";
    xlabel = "pages per line";
    ylabel = "time (s)";
    series;
    notes =
      [ "bigger lines help spatial locality but widen the false-sharing \
         window (paper section II trade-off)." ] }

let ablation_manager_bypass c =
  let base = { Workload.Microbench.default_params with m_inner = 10 } in
  let cores =
    List.filter (fun p -> p <= 8) (smh_cores c.scale)
  in
  let series =
    List.map
      (fun (label, manager_bypass) ->
         let config = { Samhita.Config.default with manager_bypass } in
         { Series.label;
           points =
             List.map
               (fun p ->
                  let r = smh_with c ~tag:label ~config ~threads:p base in
                  (float_of_int p, ns_to_s (imean r.sync_ns)))
               cores })
      [ ("manager-remote", false); ("manager-bypass", true) ]
  in
  { Series.id = "abl-bypass";
    title = "single-node synchronization bypass (paper section V)";
    xlabel = "cores (single compute node)";
    ylabel = "synchronization time (s)";
    series;
    notes =
      [ "co-locating the manager with a single compute node turns \
         synchronization round trips into loopbacks." ] }

let ablation_fabric c =
  let threads = min 8 (mid_cores c.scale) in
  let base = { Workload.Microbench.default_params with m_inner = 10 } in
  let series =
    List.map
      (fun (label, fabric) ->
         let config = { Samhita.Config.default with fabric } in
         { Series.label;
           points =
             List.map
               (fun (x, alloc) ->
                  let r =
                    smh_with c ~tag:label ~config ~threads
                      { base with alloc }
                  in
                  (x, ns_to_s (imean r.sync_ns)))
               [ (0., Workload.Microbench.Local);
                 (1., Workload.Microbench.Global);
                 (2., Workload.Microbench.Global_strided) ] })
      [ ("ib-verbs", Fabric.Profile.ib_qdr_verbs);
        ("pcie-scif", Fabric.Profile.pcie_scif) ]
  in
  { Series.id = "abl-fabric";
    title = "SCIF/PCIe transport vs verbs proxy (paper section V)";
    xlabel = "allocation mode (0=local 1=global 2=strided)";
    ylabel = "synchronization time (s)";
    series;
    notes =
      [ "direct PCIe communication removes the verbs-proxy hop the paper \
         calls out as pessimistic." ] }

let ablation_history c =
  let threads = mid_cores c.scale in
  let base = { Workload.Microbench.default_params with m_inner = 10 } in
  let series =
    List.map
      (fun (label, metric) ->
         { Series.label;
           points =
             List.map
               (fun h ->
                  let config =
                    { Samhita.Config.default with update_log_history = h }
                  in
                  let r =
                    smh_with c ~tag:(Printf.sprintf "hist%d" h) ~config
                      ~threads base
                  in
                  (float_of_int h, ns_to_s (metric r)))
               [ 0; 4; 16; 64 ] })
      [ ("compute", fun r -> imean r.Workload.Microbench.compute_ns);
        ("sync", fun r -> imean r.Workload.Microbench.sync_ns) ]
  in
  { Series.id = "abl-history";
    title = "fine-grained update history depth";
    xlabel = "retained release logs per lock";
    ylabel = "time (s)";
    series;
    notes =
      [ "a deep history lets acquirers patch cached lines (fine-grained \
         updates); a shallow one forces invalidate-and-refetch inside \
         critical sections." ] }

(* A scenario where the eviction policy is visible: each thread keeps a
   small hot written set and streams over a larger read-only region that
   overflows the cache. Write-biased eviction spends its evictions on the
   written lines (flushing them early); pure LRU evicts whichever streamed
   line is oldest. We report makespan and how often a dirty victim was
   chosen. *)
let eviction_run c ~evict_dirty_first ~cache_lines =
  let key = Printf.sprintf "evict-%b-%d" evict_dirty_first cache_lines in
  match Hashtbl.find_opt c.evict key with
  | Some r -> r
  | None ->
    let config =
      { Samhita.Config.default with
        cache_lines;
        evict_dirty_first;
        prefetch = false }
    in
    let threads = 2 in
    let rounds = 8 in
    let stream_lines = cache_lines - 1 in
    let sys = Samhita.System.create ~config ~threads () in
    let bar = Samhita.System.barrier sys ~parties:threads in
    let lb = Samhita.Config.line_bytes config in
    let module T = Samhita.Thread_ctx in
    for tid = 0 to threads - 1 do
      ignore
        (Samhita.System.spawn sys (fun t ->
             let hot = T.malloc t ~bytes:lb in
             let stream = T.malloc t ~bytes:(stream_lines * lb) in
             let cold = T.malloc t ~bytes:(2 * rounds * lb) in
             T.barrier_wait t bar;
             for r = 0 to rounds - 1 do
               for i = 0 to stream_lines - 1 do
                 ignore (T.read_f64 t (stream + (i * lb)) : float)
               done;
               T.write_f64 t hot (float_of_int (r + tid));
               (* Two cold single-use lines overflow the cache, forcing the
                  policy to choose victims while the hot line is dirty. *)
               ignore (T.read_f64 t (cold + (2 * r * lb)) : float);
               ignore (T.read_f64 t (cold + (((2 * r) + 1) * lb)) : float);
               T.barrier_wait t bar
             done)
          : T.t)
    done;
    Samhita.System.run sys;
    let ts = Samhita.System.threads sys in
    let dirty_evictions =
      List.fold_left
        (fun acc t -> acc + Samhita.Cache.dirty_evictions (T.cache t))
        0 ts
    in
    let mean_sync =
      List.fold_left (fun acc t -> acc +. float_of_int (T.sync_ns t)) 0. ts
      /. float_of_int threads
    in
    let r = (mean_sync /. 1e6, float_of_int dirty_evictions) in
    Hashtbl.replace c.evict key r;
    r

let ablation_eviction c =
  let caps = [ 4; 8; 16 ] in
  let series =
    List.concat_map
      (fun (label, evict_dirty_first) ->
         [ { Series.label = label ^ ":sync_ms";
             points =
               List.map
                 (fun cap ->
                    ( float_of_int cap,
                      fst
                        (eviction_run c ~evict_dirty_first ~cache_lines:cap)
                    ))
                 caps };
           { Series.label = label ^ ":dirty_evicts";
             points =
               List.map
                 (fun cap ->
                    ( float_of_int cap,
                      snd
                        (eviction_run c ~evict_dirty_first ~cache_lines:cap)
                    ))
                 caps } ])
      [ ("dirty-first", true); ("lru-only", false) ]
  in
  { Series.id = "abl-evict";
    title = "write-biased eviction under cache pressure";
    xlabel = "cache capacity (lines)";
    ylabel = "sync time (ms) / dirty evictions (count)";
    series;
    notes =
      [ "the write-biased policy spends evictions on written lines, \
         flushing their diffs early and shrinking the flush burst at the \
         next consistency point (paper section II)." ] }

let ablation_consistency c =
  (* RegC vs an IVY-style sequential-consistency DSM (single writer,
     write-invalidate): the comparison motivating the paper's weak model.
     Worst-case SC behaviour (line ping-pong) costs one coherence
     transaction per store, so sweeps stay within one node's core count. *)
  let cores = match c.scale with Quick -> [ 1; 4 ] | Paper -> [ 1; 2; 4; 8 ] in
  let base = { Workload.Microbench.default_params with m_inner = 5 } in
  let sc_config =
    { Samhita.Config.default with model = Samhita.Config.Sc_invalidate }
  in
  let series =
    List.concat_map
      (fun (mlabel, config, tag) ->
         List.map
           (fun (alabel, alloc) ->
              { Series.label = mlabel ^ "-" ^ alabel;
                points =
                  List.map
                    (fun pth ->
                       let r =
                         match tag with
                         | None -> micro c Smh ~threads:pth { base with alloc }
                         | Some tag ->
                           smh_with c ~tag ~config ~threads:pth
                             { base with alloc }
                       in
                       (float_of_int pth, ns_to_s (imean r.compute_ns)))
                    cores })
           [ ("local", Workload.Microbench.Local);
             ("strided", Workload.Microbench.Global_strided) ])
      [ ("regc", Samhita.Config.default, None);
        ("sc", sc_config, Some "sc") ]
  in
  { Series.id = "abl-sc";
    title = "regional consistency vs sequential-consistency DSM";
    xlabel = "cores";
    ylabel = "compute time (s)";
    series;
    notes =
      [ "under false sharing the single-writer protocol pays a coherence \
         transaction per store (line ping-pong); RegC batches the damage \
         into consistency points - the paper's premise (sections I-II)." ] }

(* ------------------------------------------------------------------ *)

let all =
  [ ("fig3", fig3); ("fig4", fig4); ("fig5", fig5); ("fig6", fig6);
    ("fig7", fig7); ("fig8", fig8); ("fig9", fig9); ("fig10", fig10);
    ("fig11", fig11); ("fig12", fig12); ("fig13", fig13);
    ("abl-prefetch", ablation_prefetch); ("abl-line", ablation_line_size);
    ("abl-bypass", ablation_manager_bypass); ("abl-fabric", ablation_fabric);
    ("abl-history", ablation_history); ("abl-evict", ablation_eviction);
    ("abl-sc", ablation_consistency) ]

let by_id id = List.assoc_opt id all

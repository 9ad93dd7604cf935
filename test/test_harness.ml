(* Tests for the figure harness: series rendering and the qualitative
   shapes the paper's figures must exhibit (asserted at quick scale). *)

module S = Harness.Series
module E = Harness.Experiments

let fig_simple =
  { S.id = "t1";
    title = "test";
    xlabel = "x";
    ylabel = "y";
    series =
      [ { S.label = "a"; points = [ (1., 10.); (2., 20.) ] };
        { S.label = "b"; points = [ (2., 5.) ] } ];
    notes = [ "note" ] }

let test_xs_and_lookup () =
  Alcotest.(check (list (float 0.))) "xs merged" [ 1.; 2. ] (S.xs fig_simple);
  Alcotest.(check (option (float 0.))) "value" (Some 20.)
    (S.value_at fig_simple ~label:"a" ~x:2.);
  Alcotest.(check (option (float 0.))) "hole" None
    (S.value_at fig_simple ~label:"b" ~x:1.);
  Alcotest.(check (option (float 0.))) "unknown series" None
    (S.value_at fig_simple ~label:"zz" ~x:1.)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_render_contains_data () =
  let out = Format.asprintf "%a" S.render fig_simple in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("render contains " ^ needle) true
         (contains out needle))
    [ "t1"; "10.0000"; "20.0000"; "5.0000"; "# note"; "-" ]

let test_csv () =
  let csv = S.to_csv fig_simple in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "x,a,b" (List.nth lines 0);
  Alcotest.(check string) "row 1 (missing cell empty)" "1,10," (List.nth lines 1);
  Alcotest.(check string) "row 2" "2,20,5" (List.nth lines 2)

let test_scale_parse () =
  Alcotest.(check bool) "quick" true (E.scale_of_string "quick" = Ok E.Quick);
  Alcotest.(check bool) "paper" true (E.scale_of_string "paper" = Ok E.Paper);
  Alcotest.(check bool) "full alias" true
    (E.scale_of_string "full" = Ok E.Paper);
  Alcotest.(check bool) "garbage" true
    (match E.scale_of_string "nope" with Error _ -> true | Ok _ -> false)

let test_registry () =
  let ids = List.map fst E.all in
  List.iter
    (fun id ->
       Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
      "fig11"; "fig12"; "fig13" ];
  Alcotest.(check bool) "by_id finds" true (E.by_id "fig3" <> None);
  Alcotest.(check bool) "by_id unknown" true (E.by_id "fig99" = None)

(* Shared quick-scale context: experiments memoize across figure builders. *)
let ctx = lazy (E.ctx E.Quick)

let value fig label x =
  match S.value_at fig ~label ~x with
  | Some v -> v
  | None -> Alcotest.failf "missing point %s@%g in %s" label x fig.S.id

(* Figure 3 shape: with local allocation, Samhita's normalized compute time
   stays close to Pthreads at every scale. *)
let test_shape_fig3 () =
  let fig = E.fig3 (Lazy.force ctx) in
  List.iter
    (fun x ->
       let v = value fig "smh,M=1" x in
       Alcotest.(check bool)
         (Printf.sprintf "local smh flat at P=%g (got %g)" x v)
         true
         (v < 1.25))
    [ 1.; 4.; 8. ]

(* Figures 4-5: false sharing penalizes small M and is amortized at larger
   M; strided is at least as bad as plain global. *)
let test_shape_fig45 () =
  let c = Lazy.force ctx in
  let f4 = E.fig4 c and f5 = E.fig5 c in
  let p = 8. in
  Alcotest.(check bool) "global M=1 penalty exists" true
    (value f4 "smh,M=1" p > 1.5);
  Alcotest.(check bool) "amortized by larger M" true
    (value f4 "smh,M=10" p < value f4 "smh,M=1" p);
  Alcotest.(check bool) "strided >= global at M=1" true
    (value f5 "smh,M=1" p >= value f4 "smh,M=1" p);
  Alcotest.(check bool) "pthreads barely affected" true
    (value f4 "pth,M=1" 4. < 1.2)

(* Figures 6: compute grows with S and stays flat across cores for local
   allocation. *)
let test_shape_fig6 () =
  let fig = E.fig6 (Lazy.force ctx) in
  Alcotest.(check bool) "more data, more compute" true
    (value fig "S=4" 4. > value fig "S=1" 4.);
  let v1 = value fig "S=4" 1. and v8 = value fig "S=4" 8. in
  Alcotest.(check bool) "flat across cores (local)" true
    (Float.abs (v8 -. v1) /. v1 < 0.15)

(* Figure 9/10 shapes at the mid core count. *)
let test_shape_fig9_10 () =
  let c = Lazy.force ctx in
  let f9 = E.fig9 c and f10 = E.fig10 c in
  let s = 4. in
  Alcotest.(check bool) "compute: local <= global" true
    (value f9 "local" s <= value f9 "global" s);
  Alcotest.(check bool) "compute: global <= strided" true
    (value f9 "global" s <= value f9 "strided" s);
  (* The full local < global < strided sync ordering only emerges at the
     paper's P=16; the robust quick-scale property is that false-sharing
     sync cost does not shrink as the ordinary region grows. *)
  Alcotest.(check bool) "sync grows with S (strided)" true
    (value f10 "strided" s >= 0.95 *. value f10 "strided" 1.)

(* Figure 11: Samhita synchronization is orders of magnitude above
   Pthreads (consistency operations ride on synchronization). *)
let test_shape_fig11 () =
  let fig = E.fig11 (Lazy.force ctx) in
  let smh = value fig "smh_local" 4. and pth = value fig "pth_local" 4. in
  Alcotest.(check bool)
    (Printf.sprintf "smh sync (%g) >> pth sync (%g)" smh pth)
    true
    (smh > 10. *. pth)

(* Figures 12-13: parallel speedup exists on both runtimes; pthreads scales
   within the node. *)
let test_shape_fig12_13 () =
  let c = Lazy.force ctx in
  let f12 = E.fig12 c and f13 = E.fig13 c in
  Alcotest.(check (float 1e-9)) "speedup normalized at 1" 1.0
    (value f12 "pthreads" 1.);
  Alcotest.(check bool) "jacobi pthreads scales" true
    (value f12 "pthreads" 4. > 2.0);
  Alcotest.(check bool) "md pthreads scales" true
    (value f13 "pthreads" 4. > 2.5);
  Alcotest.(check bool) "md samhita speeds up with cores" true
    (value f13 "samhita" 8. > value f13 "samhita" 1.)

(* Ablations must at least run and produce the expected series. *)
let test_ablations_run () =
  let c = Lazy.force ctx in
  List.iter
    (fun (id, f) ->
       let fig = f c in
       Alcotest.(check bool) (id ^ " has series") true
         (List.length fig.S.series >= 2);
       List.iter
         (fun s ->
            Alcotest.(check bool)
              (id ^ "/" ^ s.S.label ^ " has points")
              true
              (s.S.points <> []))
         fig.S.series)
    [ ("abl-prefetch", E.ablation_prefetch);
      ("abl-line", E.ablation_line_size);
      ("abl-bypass", E.ablation_manager_bypass);
      ("abl-fabric", E.ablation_fabric);
      ("abl-history", E.ablation_history);
      ("abl-evict", E.ablation_eviction) ]

let test_ablation_effects () =
  let c = Lazy.force ctx in
  let bypass = E.ablation_manager_bypass c in
  Alcotest.(check bool) "bypass cheaper at 1 node" true
    (value bypass "manager-bypass" 1. < value bypass "manager-remote" 1.);
  let fabric = E.ablation_fabric c in
  Alcotest.(check bool) "scif cheaper than verbs" true
    (value fabric "pcie-scif" 0. < value fabric "ib-verbs" 0.);
  let hist = E.ablation_history c in
  Alcotest.(check bool) "history reduces sync vs none" true
    (value hist "sync" 64. <= value hist "sync" 0.)

let tests =
  [ Alcotest.test_case "xs and lookup" `Quick test_xs_and_lookup;
    Alcotest.test_case "render" `Quick test_render_contains_data;
    Alcotest.test_case "csv" `Quick test_csv;
    Alcotest.test_case "scale parsing" `Quick test_scale_parse;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "shape: fig3 local parity" `Slow test_shape_fig3;
    Alcotest.test_case "shape: fig4/5 amortization" `Slow test_shape_fig45;
    Alcotest.test_case "shape: fig6 flat local" `Slow test_shape_fig6;
    Alcotest.test_case "shape: fig9/10 ordering" `Slow test_shape_fig9_10;
    Alcotest.test_case "shape: fig11 sync gap" `Slow test_shape_fig11;
    Alcotest.test_case "shape: fig12/13 speedups" `Slow test_shape_fig12_13;
    Alcotest.test_case "ablations run" `Slow test_ablations_run;
    Alcotest.test_case "ablation effects" `Slow test_ablation_effects ]

let () = Alcotest.run "harness" [ ("figures", tests) ]

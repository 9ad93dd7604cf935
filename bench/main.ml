(* The diff gate: the word-wise Diff.make, and Diff.make_paged (the
   per-page-twin entry point the simulator runs), against the scalar
   Diff_reference.make on the same inputs, measured back to back in one
   process so machine drift cancels out of the ratios. Exits 1 when
   either sparse speedup falls below 1.5x. The dense ratios are printed
   but not gated: when every word differs, both scans run the same byte
   loop (about 1.0x).

     dune exec bench/main.exe

   Per-layer host timings (diff.make_sparse_ns and the rest) come from
   perfbench; this program measures only what perfbench does not. *)

open Bechamel

let layout = Samhita.Layout.of_config Samhita.Config.default
let line_bytes = Samhita.Config.line_bytes Samhita.Config.default

(* The inputs of perfbench/primitives.ml. Sparse: one changed 8-byte slot
   per 64 bytes, the strided false-sharing shape. Dense: every word's
   mantissa changes, the shape of a Jacobi sweep. *)
let diff_pair ~stride ~word =
  let twin = Bytes.make line_bytes '\000' in
  let current = Bytes.copy twin in
  for i = 0 to (4096 / stride) - 1 do
    Bytes.set_int64_le current (i * stride) word
  done;
  (twin, current)

(* OLS estimate of ns per call. *)
let ns_per_call name f =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results =
    Benchmark.all cfg [ instance ] (Test.make ~name (Staged.stage f))
  in
  Hashtbl.fold
    (fun _ v acc ->
       match Analyze.OLS.estimates v with Some [ e ] -> e | _ -> acc)
    (Analyze.all ols instance results)
    nan

(* Reference ns over word-wise ns on one input shape, for [Diff.make]
   and for [Diff.make_paged] with the twin cut into pages. *)
let speedups shape (twin, current) =
  let page = layout.Samhita.Layout.page_bytes in
  let twins =
    Array.init layout.Samhita.Layout.pages_per_line (fun p ->
        Bytes.sub twin (p * page) page)
  in
  let fast =
    ns_per_call shape (fun () ->
        ignore
          (Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
            : Samhita.Diff.t))
  in
  let paged =
    ns_per_call (shape ^ " paged") (fun () ->
        ignore
          (Samhita.Diff.make_paged layout ~line:0 ~twins ~current
             ~dirty_pages:1
            : Samhita.Diff.t))
  in
  let reference =
    ns_per_call (shape ^ " reference") (fun () ->
        ignore
          (Samhita.Diff_reference.make layout ~line:0 ~twin ~current
             ~dirty_pages:1
            : Samhita.Diff_reference.t))
  in
  let ratio = reference /. fast and paged_ratio = reference /. paged in
  Printf.printf
    "diff.make %-6s %8.1f ns   make_paged %8.1f ns   reference %8.1f ns   \
     speedup %.2fx / %.2fx\n%!"
    shape fast paged reference ratio paged_ratio;
  (ratio, paged_ratio)

let () =
  let sparse, sparse_paged =
    speedups "sparse" (diff_pair ~stride:64 ~word:0x3FF0000000000000L)
  in
  let (_ : float * float) =
    speedups "dense" (diff_pair ~stride:8 ~word:0x0000BEEFBEEFBEEFL)
  in
  let gates =
    [ ("sparse diff.make", sparse); ("sparse diff.make_paged", sparse_paged) ]
  in
  let failed = List.filter (fun (_, r) -> not (r >= 1.5)) gates in
  List.iter
    (fun (name, r) ->
       Printf.eprintf "bench: %s speedup %.2fx is below 1.5x\n" name r)
    failed;
  if failed <> [] then exit 1

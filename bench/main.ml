(* The diff.make gate: the word-wise Diff.make against the scalar
   Diff_reference.make on the same inputs, measured back to back in one
   process so machine drift cancels out of the ratio. Exits 1 when the
   sparse speedup falls below 1.5x.

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

(* Reference ns over word-wise ns on one input shape. *)
let speedup shape (twin, current) =
  let fast =
    ns_per_call shape (fun () ->
        ignore
          (Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
            : Samhita.Diff.t))
  in
  let reference =
    ns_per_call (shape ^ " reference") (fun () ->
        ignore
          (Samhita.Diff_reference.make layout ~line:0 ~twin ~current
             ~dirty_pages:1
            : Samhita.Diff_reference.t))
  in
  let ratio = reference /. fast in
  Printf.printf
    "diff.make %-6s %8.1f ns   reference %8.1f ns   speedup %.2fx\n%!" shape
    fast reference ratio;
  ratio

let () =
  let sparse =
    speedup "sparse" (diff_pair ~stride:64 ~word:0x3FF0000000000000L)
  in
  let (_ : float) =
    speedup "dense" (diff_pair ~stride:8 ~word:0x0000BEEFBEEFBEEFL)
  in
  if not (sparse >= 1.5) then begin
    Printf.eprintf "bench: sparse diff.make speedup %.2fx is below 1.5x\n"
      sparse;
    exit 1
  end

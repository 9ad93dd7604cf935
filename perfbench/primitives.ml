(* Bechamel micro-benchmarks of the per-layer primitives, reported under
   the per-layer metric names: the engine heap, the cache-hit access path,
   diff make (sparse and dense) and apply, and update apply. *)

(* A one-thread system faults a line in and dirties it during a warmup
   run; afterwards hits on that line perform no effects, so Bechamel can
   call the access path directly. *)
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
  match !got with Some ta -> ta | None -> failwith "warmup did not run"

let tests () =
  let open Bechamel in
  let cfg = Samhita.Config.default in
  let layout = Samhita.Layout.of_config cfg in
  let line_bytes = Samhita.Config.line_bytes cfg in
  (* Sparse: one changed 8-byte slot per 64 bytes, the strided
     false-sharing shape of micro-strided. Dense: every word's mantissa
     changes, the shape of a Jacobi sweep. *)
  let diff_pair ~stride ~word =
    let twin = Bytes.make line_bytes '\000' in
    let current = Bytes.copy twin in
    for i = 0 to (4096 / stride) - 1 do
      Bytes.set_int64_le current (i * stride) word
    done;
    (twin, current)
  in
  let make name (twin, current) =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
              : Samhita.Diff.t)))
  in
  let sparse = diff_pair ~stride:64 ~word:0x3FF0000000000000L in
  let dense = diff_pair ~stride:8 ~word:0x0000BEEFBEEFBEEFL in
  let diff_apply =
    let twin, current = sparse in
    let d = Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1 in
    let target = Bytes.make line_bytes '\000' in
    Test.make ~name:"diff.apply_ns"
      (Staged.stage (fun () -> Samhita.Diff.apply d target))
  in
  let heap =
    Test.make ~name:"heap.push_pop64_ns"
      (Staged.stage (fun () ->
           let h = Desim.Heap.create ~initial_capacity:128 () in
           for i = 0 to 63 do
             Desim.Heap.push h ~time:(i * 37 mod 101) i
           done;
           let rec drain () =
             match Desim.Heap.pop h with Some _ -> drain () | None -> ()
           in
           drain ()))
  in
  let read_hit, write_hit =
    let t, a = warmed_hit_ctx () in
    ( Test.make ~name:"cache.read_hit_ns"
        (Staged.stage (fun () ->
             ignore (Samhita.Thread_ctx.read_i64 t a : int64))),
      Test.make ~name:"cache.write_hit_ns"
        (Staged.stage (fun () -> Samhita.Thread_ctx.write_i64 t a 2L)) )
  in
  let update_apply =
    let u = Samhita.Update.of_i64 ~addr:128 0x4000000000000000L in
    let buf = Bytes.make line_bytes '\000' in
    Test.make ~name:"update.apply_ns"
      (Staged.stage (fun () ->
           Samhita.Update.apply_to_line layout u ~line:0 buf))
  in
  [ heap; read_hit; write_hit; make "diff.make_sparse_ns" sparse;
    make "diff.make_dense_ns" dense; diff_apply; update_apply ]

(* OLS estimate of ns per call for each primitive. *)
let run ~quota_s =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.map
    (fun test ->
       let name = Test.name test in
       let results = Benchmark.all cfg [ instance ] test in
       let est =
         Hashtbl.fold
           (fun _ v acc ->
              match Analyze.OLS.estimates v with Some [ e ] -> e | _ -> acc)
           (Analyze.all ols instance results)
           nan
       in
       (name, est))
    (tests ())

(* Host nanoseconds an inline interval holds when the call inside it does
   nothing: one clock read plus the entry bookkeeping. Calibrated in
   process and subtracted from the traced per-call figures. *)
let empty_call_ns () =
  let att = Attribution.create () in
  let n = 1_000_000 in
  Attribution.start att ~now:(Session.now ());
  for _ = 1 to n do
    Attribution.enter att ~now:(Session.now ()) ~events:0 ~fiber:0 Access;
    Attribution.exit att ~now:(Session.now ()) ~events:0 ~fiber:0 Access
  done;
  float_of_int (Attribution.inline att Access) /. float_of_int n

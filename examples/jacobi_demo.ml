(* Jacobi solver on both runtimes (paper Figure 12).

   Solves the discrete Laplace problem with the same kernel code on the
   Pthreads (SMP) baseline and on the Samhita DSM — the functor-over-
   backend structure mirrors the paper's single m4-macro code base — and
   verifies both against a sequential reference, bit for bit.

     dune exec examples/jacobi_demo.exe *)

let () =
  let p = { Workload.Jacobi.default_params with n = 128; iters = 10 } in
  let ref_sum, ref_res = Workload.Jacobi.reference p in
  Printf.printf "Jacobi %dx%d, %d sweeps (reference residual %.6f)\n\n" p.n
    p.n p.iters ref_res;
  Printf.printf "  %-10s %4s  %10s  %10s  %8s\n" "runtime" "P" "wall(ms)"
    "speedup" "exact";
  let base = ref nan in
  List.iter
    (fun (backend, name, threads) ->
       let r = Workload.Jacobi.run backend ~threads p in
       let wall_ms = float_of_int r.wall_ns /. 1e6 in
       if Float.is_nan !base then base := wall_ms;
       Printf.printf "  %-10s %4d  %10.3f  %10.2f  %8b\n" name threads
         wall_ms (!base /. wall_ms)
         (r.checksum = ref_sum))
    [ (Workload.Smp_backend.default, "pthreads", 1);
      (Workload.Smp_backend.default, "pthreads", 4);
      (Workload.Smp_backend.default, "pthreads", 8);
      (Workload.Samhita_backend.default, "samhita", 4);
      (Workload.Samhita_backend.default, "samhita", 8);
      (Workload.Samhita_backend.default, "samhita", 16) ];
  print_newline ();
  print_endline
    "\"exact\" means the DSM run reproduced the sequential grid bit for\n\
     bit: every page fetch, diff merge and write notice preserved the data.\n\
     At this demo size synchronization dominates the DSM runs; the\n\
     paper-scale grid (dune exec bin/samhita_sim.exe -- fig fig12)\n\
     shows Samhita scaling to 16 cores."

(* RegCSan: the vector-clock happens-before engine and RegC linter.

   Unit tests drive the analyzer with hand-built event streams; the
   integration tests run real kernels with the analyzer attached and check
   the seeded-race workload reports exactly its four defects while the
   clean kernels report none. *)

module R = Analysis.Regcsan

let tm n = Desim.Time.of_ns n

let fresh () = R.create ~threads:4 ~page_bytes:4096

let kinds s = List.map (fun f -> f.R.kind) (R.findings s)

let kind = Alcotest.testable (Fmt.of_to_string R.kind_name) ( = )

(* ---------------- races ---------------- *)

let test_ww_race () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_write s ~thread:0 ~time:(tm 10) ~addr:0 ~lock:(-1);
  R.on_write s ~thread:1 ~time:(tm 20) ~addr:0 ~lock:(-1);
  Alcotest.(check (list kind)) "one W-W race" [ R.Race ] (kinds s)

let test_rw_race () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_write s ~thread:0 ~time:(tm 10) ~addr:8 ~lock:(-1);
  R.on_read s ~thread:1 ~time:(tm 20) ~addr:8;
  (* The unordered read is itself a race; no visibility lint on top. *)
  Alcotest.(check (list kind)) "one R-W race" [ R.Race ] (kinds s)

let test_write_over_concurrent_reads () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:(-1);
  (* Publish t0's write through a barrier all four threads join. *)
  for th = 0 to 3 do
    R.on_barrier_arrive s ~thread:th ~barrier:7 ~epoch:0
  done;
  for th = 0 to 3 do
    R.on_barrier_depart s ~thread:th ~barrier:7 ~epoch:0
  done;
  R.on_read s ~thread:1 ~time:(tm 20) ~addr:0;
  R.on_read s ~thread:2 ~time:(tm 21) ~addr:0;
  Alcotest.(check (list kind)) "reads after barrier clean" [] (kinds s);
  (* t3 writes with no ordering against either reader: two races, one per
     racing pair (same page, distinct thread pairs). *)
  R.on_write s ~thread:3 ~time:(tm 30) ~addr:0 ~lock:(-1);
  Alcotest.(check (list kind)) "both racing readers reported"
    [ R.Race; R.Race ] (kinds s)

let test_lock_orders_accesses () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_lock_attempt s ~thread:0 ~time:(tm 5) ~lock:1;
  R.on_lock_acquired s ~thread:0 ~time:(tm 6) ~lock:1;
  R.on_write s ~thread:0 ~time:(tm 10) ~addr:0 ~lock:1;
  R.on_unlock s ~thread:0 ~time:(tm 15) ~lock:1;
  R.on_lock_attempt s ~thread:1 ~time:(tm 20) ~lock:1;
  R.on_lock_acquired s ~thread:1 ~time:(tm 21) ~lock:1;
  R.on_read s ~thread:1 ~time:(tm 25) ~addr:0;
  R.on_unlock s ~thread:1 ~time:(tm 30) ~lock:1;
  Alcotest.(check (list kind)) "lock-ordered region accesses clean" []
    (kinds s)

(* ---------------- RegC publication lints ---------------- *)

let test_unpublished_ordinary () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  (* Ordinary write, then hand happens-before to t1 through a lock: HB
     says ordered, but RegC only publishes ordinary data at barriers. *)
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:(-1);
  R.on_lock_acquired s ~thread:0 ~time:(tm 6) ~lock:1;
  R.on_unlock s ~thread:0 ~time:(tm 10) ~lock:1;
  R.on_lock_acquired s ~thread:1 ~time:(tm 21) ~lock:1;
  R.on_read s ~thread:1 ~time:(tm 20) ~addr:0;
  Alcotest.(check (list kind)) "unpublished ordinary write" [ R.Unpublished ]
    (kinds s)

let test_barrier_publishes () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:(-1);
  List.iter (fun th -> R.on_barrier_arrive s ~thread:th ~barrier:9 ~epoch:0)
    [ 0; 1 ];
  List.iter (fun th -> R.on_barrier_depart s ~thread:th ~barrier:9 ~epoch:0)
    [ 0; 1 ];
  R.on_read s ~thread:1 ~time:(tm 20) ~addr:0;
  Alcotest.(check (list kind)) "barrier publishes ordinary write" [] (kinds s)

let test_region_read_needs_lock_chain () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_lock_acquired s ~thread:0 ~time:(tm 6) ~lock:1;
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:1;
  (* HB through a condvar, not through lock 1: the grant chain that would
     patch the region write into t1's cache never ran. *)
  R.on_cond_signal s ~thread:0 ~cond:3;
  R.on_unlock s ~thread:0 ~time:(tm 10) ~lock:1;
  R.on_cond_wake s ~thread:1 ~cond:3;
  R.on_read s ~thread:1 ~time:(tm 20) ~addr:0;
  Alcotest.(check (list kind)) "region data needs the lock's grant chain"
    [ R.Unpublished ] (kinds s)

let test_mixed_writes () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:(-1);
  (* Order t1 after t0 through the same lock it writes under, so the only
     complaint is the mixed region/ordinary discipline. *)
  R.on_lock_acquired s ~thread:0 ~time:(tm 6) ~lock:1;
  R.on_unlock s ~thread:0 ~time:(tm 8) ~lock:1;
  R.on_lock_acquired s ~thread:1 ~time:(tm 21) ~lock:1;
  R.on_write s ~thread:1 ~time:(tm 10) ~addr:0 ~lock:1;
  Alcotest.(check (list kind)) "mixed region/ordinary writes" [ R.Mixed ]
    (kinds s)

let test_mixed_ok_after_barrier () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:(-1);
  List.iter (fun th -> R.on_barrier_arrive s ~thread:th ~barrier:9 ~epoch:0)
    [ 0; 1 ];
  List.iter (fun th -> R.on_barrier_depart s ~thread:th ~barrier:9 ~epoch:0)
    [ 0; 1 ];
  R.on_lock_acquired s ~thread:1 ~time:(tm 21) ~lock:1;
  R.on_write s ~thread:1 ~time:(tm 20) ~addr:0 ~lock:1;
  Alcotest.(check (list kind))
    "region write over a barrier-published ordinary write is clean" []
    (kinds s)

(* ---------------- allocation lints ---------------- *)

let test_read_unallocated () =
  let s = fresh () in
  R.on_read s ~thread:2 ~time:(tm 5) ~addr:4096;
  Alcotest.(check (list kind)) "unallocated read" [ R.Invalid_read ] (kinds s)

let test_use_after_free () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:32;
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:(-1);
  R.on_free s ~thread:0 ~time:(tm 10) ~addr:0 ~bytes:32;
  R.on_read s ~thread:0 ~time:(tm 15) ~addr:0;
  Alcotest.(check (list kind)) "use after free" [ R.Invalid_read ] (kinds s)

let test_realloc_resets_history () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:32;
  R.on_write s ~thread:0 ~time:(tm 5) ~addr:0 ~lock:(-1);
  R.on_free s ~thread:0 ~time:(tm 10) ~addr:0 ~bytes:32;
  (* Recycled to t1: neither t0's write history nor the free may leak. *)
  R.on_malloc s ~thread:1 ~time:(tm 20) ~addr:0 ~bytes:32;
  R.on_write s ~thread:1 ~time:(tm 25) ~addr:0 ~lock:(-1);
  R.on_read s ~thread:1 ~time:(tm 30) ~addr:0;
  Alcotest.(check (list kind)) "recycled block starts clean" [] (kinds s)

(* ---------------- lock misuse ---------------- *)

let test_double_lock () =
  let s = fresh () in
  R.on_lock_attempt s ~thread:0 ~time:(tm 5) ~lock:1;
  R.on_lock_acquired s ~thread:0 ~time:(tm 6) ~lock:1;
  R.on_lock_attempt s ~thread:0 ~time:(tm 10) ~lock:1;
  Alcotest.(check (list kind)) "double lock" [ R.Lock_misuse ] (kinds s)

let test_unlock_unheld () =
  let s = fresh () in
  R.on_unlock s ~thread:0 ~time:(tm 5) ~lock:1;
  Alcotest.(check (list kind)) "unlock of unheld lock" [ R.Lock_misuse ]
    (kinds s)

let nest s ~thread ~t0 ~outer ~inner =
  R.on_lock_attempt s ~thread ~time:(tm t0) ~lock:outer;
  R.on_lock_acquired s ~thread ~time:(tm t0) ~lock:outer;
  R.on_lock_attempt s ~thread ~time:(tm (t0 + 1)) ~lock:inner;
  R.on_lock_acquired s ~thread ~time:(tm (t0 + 1)) ~lock:inner;
  R.on_unlock s ~thread ~time:(tm (t0 + 2)) ~lock:inner;
  R.on_unlock s ~thread ~time:(tm (t0 + 3)) ~lock:outer

let test_abba_lock_order () =
  let s = fresh () in
  (* t0 nests 1 then 2; t1 nests 2 then 1. No deadlock in this trace, but
     the pair is ABBA-inconsistent: warn exactly once. *)
  nest s ~thread:0 ~t0:10 ~outer:1 ~inner:2;
  nest s ~thread:1 ~t0:20 ~outer:2 ~inner:1;
  nest s ~thread:0 ~t0:30 ~outer:1 ~inner:2;
  Alcotest.(check (list kind)) "ABBA pair warned once" [ R.Lock_order ]
    (kinds s);
  Alcotest.(check int) "counter matches" 1 (R.lock_order_warnings s)

let test_consistent_lock_order () =
  let s = fresh () in
  nest s ~thread:0 ~t0:10 ~outer:1 ~inner:2;
  nest s ~thread:1 ~t0:20 ~outer:1 ~inner:2;
  Alcotest.(check (list kind)) "consistent nesting is clean" [] (kinds s);
  Alcotest.(check int) "no warnings" 0 (R.lock_order_warnings s)

(* ---------------- deduplication ---------------- *)

let test_dedup () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  (* Two racing words on one page between the same thread pair: one
     finding. A third on another page: a second finding. *)
  R.on_write s ~thread:0 ~time:(tm 10) ~addr:0 ~lock:(-1);
  R.on_write s ~thread:1 ~time:(tm 20) ~addr:0 ~lock:(-1);
  R.on_write s ~thread:0 ~time:(tm 30) ~addr:8 ~lock:(-1);
  R.on_write s ~thread:1 ~time:(tm 40) ~addr:8 ~lock:(-1);
  R.on_malloc s ~thread:0 ~time:(tm 50) ~addr:8192 ~bytes:64;
  R.on_write s ~thread:0 ~time:(tm 60) ~addr:8192 ~lock:(-1);
  R.on_write s ~thread:1 ~time:(tm 70) ~addr:8192 ~lock:(-1);
  Alcotest.(check int) "deduped per (page, pair, kind)" 2
    (R.findings_count s);
  Alcotest.(check int) "findings list matches count" 2
    (List.length (R.findings s))

let test_word_granularity () =
  let s = fresh () in
  R.on_malloc s ~thread:0 ~time:(tm 0) ~addr:0 ~bytes:64;
  (* Unordered writes to distinct words of one page: RegC's
     multiple-writer protocol makes this legal, so no finding. *)
  R.on_write s ~thread:0 ~time:(tm 10) ~addr:0 ~lock:(-1);
  R.on_write s ~thread:1 ~time:(tm 20) ~addr:8 ~lock:(-1);
  R.on_write s ~thread:2 ~time:(tm 30) ~addr:16 ~lock:(-1);
  R.on_write s ~thread:2 ~time:(tm 30) ~addr:24 ~lock:(-1);
  Alcotest.(check (list kind)) "false sharing is not a race" [] (kinds s)

(* ---------------- integration: real kernels ---------------- *)

let racy_sanitizer () = snd (Workload.Racy.run ())

let test_racy_kernel () =
  let s = racy_sanitizer () in
  Alcotest.(check (list kind)) "exactly the four seeded defects"
    [ R.Race; R.Unpublished; R.Mixed; R.Invalid_read ] (kinds s)

let test_racy_deterministic () =
  let render s = Format.asprintf "%a" R.pp_report s in
  let a = render (racy_sanitizer ()) in
  let b = render (racy_sanitizer ()) in
  Alcotest.(check string) "identical report across runs" a b

(* Attach a fresh analyzer to the system the kernel builds, as
   [samhita_sim --sanitize] does; the clean kernels below run 4 threads. *)
let sanitized_backend captured =
  Workload.Samhita_backend.make
    ~on_create:(fun sys ->
        let s =
          R.create ~threads:4
            ~page_bytes:Samhita.Config.default.Samhita.Config.page_bytes
        in
        Samhita.System.add_probe sys (R.probe s);
        captured := Some s)
    ()

let check_clean name run =
  let captured = ref None in
  run (sanitized_backend captured);
  match !captured with
  | None -> Alcotest.fail (name ^ ": kernel never built a system")
  | Some s ->
    Alcotest.(check int) (name ^ " has no findings") 0 (R.findings_count s)

let test_clean_kernels () =
  check_clean "jacobi" (fun b ->
      ignore
        (Workload.Jacobi.run b ~threads:4
           { Workload.Jacobi.default_params with n = 32; iters = 3 }
         : Workload.Jacobi.result));
  check_clean "md" (fun b ->
      ignore
        (Workload.Md.run b ~threads:4
           { Workload.Md.default_params with n = 24; steps = 2 }
         : Workload.Md.result));
  check_clean "micro" (fun b ->
      ignore
        (Workload.Microbench.run b ~threads:4
           { Workload.Microbench.default_params with n_outer = 2; m_inner = 2 }
         : Workload.Microbench.result))

let () =
  Alcotest.run "regcsan"
    [ ( "races",
        [ Alcotest.test_case "w-w race" `Quick test_ww_race;
          Alcotest.test_case "r-w race" `Quick test_rw_race;
          Alcotest.test_case "write over concurrent reads" `Quick
            test_write_over_concurrent_reads;
          Alcotest.test_case "lock orders accesses" `Quick
            test_lock_orders_accesses ] );
      ( "publication",
        [ Alcotest.test_case "unpublished ordinary" `Quick
            test_unpublished_ordinary;
          Alcotest.test_case "barrier publishes" `Quick test_barrier_publishes;
          Alcotest.test_case "region read needs lock chain" `Quick
            test_region_read_needs_lock_chain;
          Alcotest.test_case "mixed writes" `Quick test_mixed_writes;
          Alcotest.test_case "mixed ok after barrier" `Quick
            test_mixed_ok_after_barrier ] );
      ( "allocation",
        [ Alcotest.test_case "read unallocated" `Quick test_read_unallocated;
          Alcotest.test_case "use after free" `Quick test_use_after_free;
          Alcotest.test_case "realloc resets history" `Quick
            test_realloc_resets_history ] );
      ( "locks",
        [ Alcotest.test_case "double lock" `Quick test_double_lock;
          Alcotest.test_case "unlock unheld" `Quick test_unlock_unheld;
          Alcotest.test_case "ABBA lock order" `Quick test_abba_lock_order;
          Alcotest.test_case "consistent lock order" `Quick
            test_consistent_lock_order ] );
      ( "reporting",
        [ Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "word granularity" `Quick test_word_granularity ]
      );
      ( "kernels",
        [ Alcotest.test_case "racy kernel: 4 findings" `Quick
            test_racy_kernel;
          Alcotest.test_case "racy kernel: deterministic" `Quick
            test_racy_deterministic;
          Alcotest.test_case "clean kernels: 0 findings" `Quick
            test_clean_kernels ] ) ]

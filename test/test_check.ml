(* Tests for RegCCheck: exhaustive exploration finds the seeded race and
   the schedule-dependent ABBA deadlock, DPOR explores strictly fewer
   schedules than naive enumeration, counterexamples replay
   deterministically, and clean kernels exhaust clean. *)

module C = Check.Checker

let opts kernel = { C.default_opts with C.kernel }

let defect_classes r = List.map (fun d -> d.C.d_class) r.C.r_defects

let find_defect r cls =
  List.find_opt (fun d -> d.C.d_class = cls) r.C.r_defects

(* ---------------- exploration finds the seeded defects ------------- *)

let test_racy_race_found () =
  let r = C.explore (opts Check.Kernels.Racy) in
  Alcotest.(check bool) "not truncated" false r.C.r_truncated;
  Alcotest.(check bool) "race class reported" true
    (List.mem "race" (defect_classes r));
  Alcotest.(check bool) "at least one defective run" true
    (r.C.r_defect_runs >= 1)

let test_abba_deadlock_found () =
  let r = C.explore (opts Check.Kernels.Abba) in
  Alcotest.(check bool) "not truncated" false r.C.r_truncated;
  match find_defect r "deadlock" with
  | None -> Alcotest.fail "exploration missed the ABBA deadlock"
  | Some d ->
    (* The counterexample message carries the wait-for cycle. *)
    let has_cycle =
      let sub = "wait-for cycle" in
      let n = String.length d.C.d_message and m = String.length sub in
      let rec go i = i + m <= n && (String.sub d.C.d_message i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the wait-for cycle" true has_cycle;
    Alcotest.(check bool) "counterexample schedule non-trivial" true
      (d.C.d_schedule <> [])

let test_micro_exhausts_clean () =
  let r = C.explore (opts Check.Kernels.Micro) in
  Alcotest.(check bool) "not truncated" false r.C.r_truncated;
  Alcotest.(check (list string)) "no defects" [] (defect_classes r);
  Alcotest.(check bool) "multiple schedules covered" true (r.C.r_schedules > 1)

(* ---------------- DPOR reduction ----------------------------------- *)

(* One naive and one DPOR exploration per kernel, shared by the two
   tests below: each exploration runs at most once per test binary. *)
let reductions =
  List.map
    (fun kernel ->
       ( kernel,
         lazy
           (let naive = C.explore { (opts kernel) with C.dpor = false } in
            (naive, C.explore (opts kernel))) ))
    [ Check.Kernels.Racy; Check.Kernels.Abba; Check.Kernels.Micro ]

let reduction kernel = Lazy.force (List.assoc kernel reductions)

let test_dpor_beats_naive () =
  (* On micro the naive tree is so much larger that enumeration hits the
     budget — truncation there only understates the reduction factor; on
     the other kernels naive must exhaust so the ratio is exact. *)
  List.iter
    (fun (kernel, naive_exhausts) ->
       let naive, dpor = reduction kernel in
       if naive_exhausts then
         Alcotest.(check bool)
           (Check.Kernels.name kernel ^ ": naive exhausts too")
           false naive.C.r_truncated;
       Alcotest.(check bool)
         (Check.Kernels.name kernel ^ ": dpor exhausts")
         false dpor.C.r_truncated;
       Alcotest.(check bool)
         (Check.Kernels.name kernel ^ ": dpor strictly fewer schedules")
         true
         (dpor.C.r_schedules < naive.C.r_schedules);
       let factor =
         float_of_int naive.C.r_schedules /. float_of_int dpor.C.r_schedules
       in
       Alcotest.(check bool)
         (Check.Kernels.name kernel ^ ": reduction factor > 1")
         true (factor > 1.0))
    [ (Check.Kernels.Racy, true);
      (Check.Kernels.Abba, true);
      (Check.Kernels.Micro, false) ]

let test_dpor_preserves_verdicts () =
  (* Soundness smoke: reduction must not lose a defect class present in
     the full enumeration. *)
  List.iter
    (fun kernel ->
       let naive, dpor = reduction kernel in
       List.iter
         (fun cls ->
            Alcotest.(check bool)
              (Check.Kernels.name kernel ^ ": dpor kept class " ^ cls)
              true
              (List.mem cls (defect_classes dpor)))
         (defect_classes naive))
    [ Check.Kernels.Racy; Check.Kernels.Abba; Check.Kernels.Micro ]

(* ---------------- replay ------------------------------------------- *)

let test_replay_reproduces_deadlock () =
  let r = C.explore (opts Check.Kernels.Abba) in
  match find_defect r "deadlock" with
  | None -> Alcotest.fail "no deadlock counterexample to replay"
  | Some d ->
    let rp = C.replay (opts Check.Kernels.Abba) d.C.d_schedule in
    Alcotest.(check bool) "replay hits the deadlock again" true
      (List.mem_assoc "deadlock" rp.C.rp_defects)

let test_replay_deterministic () =
  let sched = [ 0; 1; 0 ] in
  let a = C.replay (opts Check.Kernels.Racy) sched in
  let b = C.replay (opts Check.Kernels.Racy) sched in
  Alcotest.(check int) "same choice points" a.C.rp_points b.C.rp_points;
  Alcotest.(check bool) "same oracle digest" true
    (a.C.rp_digest = b.C.rp_digest);
  Alcotest.(check bool) "same defect classes" true
    (List.map fst a.C.rp_defects = List.map fst b.C.rp_defects)

let test_replay_stale_schedule_rejected () =
  Alcotest.check_raises "out-of-range choice"
    (C.Bad_schedule "choice 7 out of range at point 0 (2 candidates)")
    (fun () -> ignore (C.replay (opts Check.Kernels.Racy) [ 7 ]))

(* ---------------- schedule codec ----------------------------------- *)

let test_schedule_roundtrip () =
  List.iter
    (fun s ->
       match Check.Schedule.of_string (Check.Schedule.to_string s) with
       | Ok s' -> Alcotest.(check (list int)) "roundtrip" s s'
       | Error e -> Alcotest.fail e)
    [ []; [ 0 ]; [ 1; 0; 2; 1 ] ];
  match Check.Schedule.of_string "1.x.2" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* ---------------- crash-mode exploration --------------------------- *)

let test_crash_micro_clean () =
  let r = C.explore { (opts Check.Kernels.Micro) with C.crash = true } in
  Alcotest.(check bool) "not truncated" false r.C.r_truncated;
  Alcotest.(check (list string)) "crash-mode micro clean" []
    (defect_classes r)

let test_crash_racy_race_survives () =
  let r = C.explore { (opts Check.Kernels.Racy) with C.crash = true } in
  Alcotest.(check bool) "race found across the crash" true
    (List.mem "race" (defect_classes r))

let () =
  Alcotest.run "samhita.check"
    [ ( "explore",
        [ Alcotest.test_case "racy race found" `Quick test_racy_race_found;
          Alcotest.test_case "abba deadlock found" `Quick
            test_abba_deadlock_found;
          Alcotest.test_case "micro exhausts clean" `Quick
            test_micro_exhausts_clean ] );
      ( "dpor",
        [ Alcotest.test_case "beats naive" `Quick test_dpor_beats_naive;
          Alcotest.test_case "preserves verdicts" `Quick
            test_dpor_preserves_verdicts ] );
      ( "replay",
        [ Alcotest.test_case "reproduces deadlock" `Quick
            test_replay_reproduces_deadlock;
          Alcotest.test_case "deterministic" `Quick test_replay_deterministic;
          Alcotest.test_case "stale schedule rejected" `Quick
            test_replay_stale_schedule_rejected;
          Alcotest.test_case "schedule codec" `Quick test_schedule_roundtrip ] );
      ( "crash",
        [ Alcotest.test_case "micro clean" `Quick test_crash_micro_clean;
          Alcotest.test_case "racy race survives" `Quick
            test_crash_racy_race_survives ] ) ]

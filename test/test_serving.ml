(* The offered-load sweep harness: exact percentiles, their ordering,
   open-loop overload divergence, determinism, and the replication /
   crash tail-cost comparisons. All runs are simulated and seeded, so every
   assertion is on deterministic numbers. *)

let kv =
  { Workload.Kv.default_params with
    Workload.Kv.traffic =
      { Workload.Kv.default_params.Workload.Kv.traffic with
        Workload.Traffic.clients = 8;
        requests = 384;
        keys = 64 } }

let sweep ?(fractions = [ 0.5; 1.5 ]) ?(replication = 0) ?(crash = false)
    backend =
  Harness.Serving.run ~fractions ~backend ~threads:2 ~replication ~crash kv

let check_points name (s : Harness.Serving.t) =
  Alcotest.(check bool) (name ^ ": capacity positive") true
    (s.Harness.Serving.capacity_rps > 0.);
  List.iter
    (fun (p : Harness.Serving.point) ->
       Alcotest.(check bool) (name ^ ": p50 <= p99") true
         (p.Harness.Serving.p50_ns <= p.Harness.Serving.p99_ns);
       Alcotest.(check bool) (name ^ ": p99 <= p999") true
         (p.Harness.Serving.p99_ns <= p.Harness.Serving.p999_ns);
       Alcotest.(check bool) (name ^ ": p999 <= max") true
         (p.Harness.Serving.p999_ns <= p.Harness.Serving.max_ns);
       Alcotest.(check int) (name ^ ": no lost writes") 0
         p.Harness.Serving.lost_writes)
    s.Harness.Serving.points

let overload_diverges name (s : Harness.Serving.t) =
  match s.Harness.Serving.points with
  | first :: rest ->
    let last = List.nth rest (List.length rest - 1) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: overloaded p999 (%d) > 2x stable p999 (%d)" name
         last.Harness.Serving.p999_ns first.Harness.Serving.p999_ns)
      true
      (last.Harness.Serving.p999_ns > 2 * first.Harness.Serving.p999_ns)
  | [] -> Alcotest.fail "empty sweep"

let test_smh () =
  let s = sweep Harness.Serving.Smh in
  check_points "smh" s;
  overload_diverges "smh" s

let test_pth () =
  let s = sweep Harness.Serving.Pth in
  check_points "pth" s;
  overload_diverges "pth" s

let test_determinism () =
  let a = sweep Harness.Serving.Smh and b = sweep Harness.Serving.Smh in
  Alcotest.(check bool) "identical sweeps" true (a = b)

let test_replication_cost () =
  let plain = sweep Harness.Serving.Smh in
  let repl = sweep ~replication:1 Harness.Serving.Smh in
  check_points "repl" repl;
  (* Mirroring every write costs capacity; it must never gain any. *)
  Alcotest.(check bool) "replication does not raise capacity" true
    (repl.Harness.Serving.capacity_rps
     <= plain.Harness.Serving.capacity_rps)

let test_crash_tail_cost () =
  let quiet = sweep ~fractions:[ 0.5 ] ~replication:1 Harness.Serving.Smh in
  let crash =
    sweep ~fractions:[ 0.5 ] ~replication:1 ~crash:true Harness.Serving.Smh
  in
  check_points "crash" crash;
  match (quiet.Harness.Serving.points, crash.Harness.Serving.points) with
  | [ q ], [ c ] ->
    (* The promotion pause must show up in the tail — and never lose an
       acked write (check_points above). *)
    Alcotest.(check bool)
      (Printf.sprintf "crash p999 (%d) > quiet p999 (%d)"
         c.Harness.Serving.p999_ns q.Harness.Serving.p999_ns)
      true
      (c.Harness.Serving.p999_ns > q.Harness.Serving.p999_ns)
  | _ -> Alcotest.fail "expected single-point sweeps"

(* Each point's percentiles are the nearest-rank quantiles of the exact
   latency sample: rerun the same Kv.run (same backend geometry, the
   point's offered rate) and index its sorted latencies directly. *)
let test_exact_percentiles () =
  let threads = 2 in
  let s = sweep ~fractions:[ 0.5; 0.9; 1.5 ] Harness.Serving.Smh in
  let backend =
    Workload.Samhita_backend.make
      ~config:{ Samhita.Config.default with Samhita.Config.memory_servers = 2 }
      ()
  in
  List.iter
    (fun (p : Harness.Serving.point) ->
       let rate = p.Harness.Serving.rate_rps in
       let r =
         Workload.Kv.run backend ~threads
           { kv with
             Workload.Kv.traffic =
               { kv.Workload.Kv.traffic with Workload.Traffic.rate_rps = rate }
           }
       in
       let sorted = Array.copy r.Workload.Kv.latencies_ns in
       Array.sort Int.compare sorted;
       let n = Array.length sorted in
       let rank q =
         sorted.(int_of_float (Float.ceil (q *. float_of_int n)) - 1)
       in
       let ctx = Printf.sprintf "load %.1f: " p.Harness.Serving.fraction in
       Alcotest.(check int) (ctx ^ "p50") (rank 0.5) p.Harness.Serving.p50_ns;
       Alcotest.(check int) (ctx ^ "p99") (rank 0.99) p.Harness.Serving.p99_ns;
       Alcotest.(check int) (ctx ^ "p999") (rank 0.999)
         p.Harness.Serving.p999_ns;
       Alcotest.(check int) (ctx ^ "max") sorted.(n - 1)
         p.Harness.Serving.max_ns)
    s.Harness.Serving.points

let test_json_shape () =
  let s = sweep Harness.Serving.Smh in
  let j = Harness.Serving.to_json s in
  List.iter
    (fun key ->
       let needle = Printf.sprintf "\"%s\"" key in
       let found =
         let nh = String.length j and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub j i nn = needle || go (i + 1))
         in
         go 0
       in
       Alcotest.(check bool) (Printf.sprintf "json has %s" key) true found)
    [ "backend"; "threads"; "replication"; "crash"; "capacity_rps";
      "points"; "fraction"; "p50_ns"; "p99_ns"; "p999_ns"; "lost_writes" ]

let test_validation () =
  let fails msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  fails
    "Serving.run: replication, crash and manager shards need the smh \
     backend" (fun () ->
      Harness.Serving.run ~backend:Harness.Serving.Pth ~threads:2
        ~replication:1 ~crash:false kv);
  fails
    "Serving.run: replication, crash and manager shards need the smh \
     backend" (fun () ->
      Harness.Serving.run ~backend:Harness.Serving.Pth ~manager_shards:2
        ~threads:2 ~replication:0 ~crash:false kv);
  fails "Serving.run: manager_shards must be >= 1" (fun () ->
      Harness.Serving.run ~backend:Harness.Serving.Smh ~manager_shards:0
        ~threads:2 ~replication:0 ~crash:false kv);
  fails "Serving.run: a crash is survivable only with replication"
    (fun () ->
       Harness.Serving.run ~backend:Harness.Serving.Smh ~threads:2
         ~replication:0 ~crash:true kv);
  fails "Serving.run: empty load sweep" (fun () ->
      Harness.Serving.run ~fractions:[] ~backend:Harness.Serving.Smh
        ~threads:2 ~replication:0 ~crash:false kv)

let tests =
  [ Alcotest.test_case "smh sweep" `Quick test_smh;
    Alcotest.test_case "pth sweep" `Quick test_pth;
    Alcotest.test_case "deterministic" `Quick test_determinism;
    Alcotest.test_case "replication cost" `Quick test_replication_cost;
    Alcotest.test_case "crash tail cost" `Quick test_crash_tail_cost;
    Alcotest.test_case "exact percentiles" `Quick test_exact_percentiles;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "validation" `Quick test_validation ]

let () = Alcotest.run "serving" [ ("serving", tests) ]

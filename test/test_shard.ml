(* The sharded control plane: consistent-hash placement (balance and
   minimal-disruption stability), the control-metrics gate, shard-crash
   takeover under the torture oracle, and the config bounds guarding the
   new geometry fields. *)

(* ---------------- hash ring ---------------- *)

let keys = 8192

let owners ~shards =
  let r = Samhita.Hash_ring.create ~shards () in
  Array.init keys (Samhita.Hash_ring.lookup r)

let test_ring_single_shard () =
  (* One shard degenerates to constant 0 — the unsharded fast path. *)
  Array.iteri
    (fun k s ->
       Alcotest.(check int) (Printf.sprintf "key %d on shard 0" k) 0 s)
    (owners ~shards:1)

let test_ring_balance () =
  List.iter
    (fun shards ->
       let counts = Array.make shards 0 in
       Array.iter
         (fun s -> counts.(s) <- counts.(s) + 1)
         (owners ~shards);
       let mean = keys / shards in
       Array.iteri
         (fun s n ->
            Alcotest.(check bool)
              (Printf.sprintf "%d shards: shard %d holds %d of %d keys"
                 shards s n keys)
              true
              (n > mean / 3 && n < mean * 3))
         counts)
    [ 2; 4; 8 ]

let test_ring_stability () =
  (* Growing the ring by one shard may move a key only TO the new shard
     (existing vnodes are unchanged), and only ~1/(N+1) of keys move. *)
  let before = owners ~shards:4 and after = owners ~shards:5 in
  let moved = ref 0 in
  Array.iteri
    (fun k b ->
       let a = after.(k) in
       if a <> b then begin
         incr moved;
         Alcotest.(check int)
           (Printf.sprintf "key %d moved to the new shard" k)
           4 a
       end)
    before;
  let frac = float_of_int !moved /. float_of_int keys in
  Alcotest.(check bool)
    (Printf.sprintf "adding a 5th shard moved %.3f of keys" frac)
    true
    (frac > 0.02 && frac < 0.45)

let test_ring_pure () =
  (* Placement is a pure function of (salt, shards, vnodes): rebuilding
     the ring gives identical ownership — no hidden RNG stream. *)
  Alcotest.(check bool) "rebuilt ring identical" true
    (owners ~shards:4 = owners ~shards:4)

(* ---------------- control metrics gate ---------------- *)

(* The control-plane report line appears only when the control plane is
   sharded, so unsharded reports stay byte-identical with the classic
   build; the counters themselves are always present. *)
let control_after_run ~shards =
  let config =
    { Samhita.Config.default with Samhita.Config.manager_shards = shards }
  in
  let sys = Samhita.System.create ~config ~threads:2 () in
  let l = Samhita.System.mutex sys in
  for _ = 1 to 2 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           Samhita.Thread_ctx.mutex_lock t l;
           Samhita.Thread_ctx.mutex_unlock t l)
        : Samhita.Thread_ctx.t)
  done;
  Samhita.System.run sys;
  ( Samhita.Metrics.control_of_system sys,
    Format.asprintf "%a" Samhita.Metrics.pp_report sys )

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_control_gate () =
  let c, report = control_after_run ~shards:1 in
  Alcotest.(check int) "unsharded run counts one shard" 1
    c.Samhita.Metrics.shards;
  Alcotest.(check bool) "unsharded run reports no control block" false
    (contains report "control plane");
  List.iter
    (fun shards ->
       let c, report = control_after_run ~shards in
       Alcotest.(check int)
         (Printf.sprintf "%d-shard control block counts its shards" shards)
         shards c.Samhita.Metrics.shards;
       Alcotest.(check bool)
         (Printf.sprintf "%d-shard run reports its control block" shards)
         true
         (contains report (Printf.sprintf "control: shards=%d " shards)))
    [ 2; 4 ]

(* ---------------- shard-crash takeover ---------------- *)

let test_shard_crash_takeover () =
  (* The torture harness under shard-crash mode: every seed derives a
     sharded geometry, kills one non-zero shard mid-run, and the oracle
     must stay silent across the takeover. *)
  (* A seed whose run ends before the derived crash instant legitimately
     sees no takeover; across a few seeds at least one must fire, and
     every run must stay violation-free either way. *)
  let fired = ref 0 in
  List.iter
    (fun seed ->
       let o =
         Torture.Runner.run_one ~crash_shard:true ~kernel:Torture.Runner.Micro
           ~level:Fabric.Faults.High ~seed ()
       in
       Alcotest.(check int)
         (Printf.sprintf "seed %d: no violations" seed)
         0
         (List.length o.Torture.Runner.o_violations);
       let takeovers = o.Torture.Runner.o_takeovers in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: at most one takeover (%d)" seed takeovers)
         true (takeovers <= 1);
       fired := !fired + takeovers)
    [ 0; 1; 2 ];
  Alcotest.(check bool)
    (Printf.sprintf "at least one seed crashed a shard (%d)" !fired)
    true (!fired > 0)

let test_shard_crash_deterministic () =
  let run seed =
    Torture.Runner.run_one ~crash_shard:true ~kernel:Torture.Runner.Micro
      ~level:Fabric.Faults.Off ~seed ()
  in
  let a = run 7 and b = run 7 in
  Alcotest.(check int) "same digest" a.Torture.Runner.o_digest
    b.Torture.Runner.o_digest;
  Alcotest.(check int) "same event count" a.Torture.Runner.o_events
    b.Torture.Runner.o_events

(* ---------------- config bounds ---------------- *)

let test_config_bounds () =
  let rejects msg config =
    match Samhita.Config.validate config with
    | Ok () -> Alcotest.failf "accepted invalid config (wanted %S)" msg
    | Error e ->
      Alcotest.(check string) (Printf.sprintf "error names the bound") msg e
  in
  let d = Samhita.Config.default in
  rejects "max_threads must be >= 1"
    { d with Samhita.Config.max_threads = 0 };
  rejects "manager_shards must be >= 1"
    { d with Samhita.Config.manager_shards = 0 };
  rejects
    "manager_bypass requires manager_shards = 1 (bypass is a \
     single-compute-node optimization)"
    { d with Samhita.Config.manager_bypass = true; manager_shards = 2 };
  rejects
    "crash_shard requires manager_shards >= 2 (a surviving shard must \
     take over)"
    { d with
      Samhita.Config.fault = Some (Crash_shard { shard = 1; at_ns = 100 }) };
  rejects
    "crash_shard index out of range (shard 0 hosts allocation and is \
     not killable)"
    { d with
      Samhita.Config.manager_shards = 3;
      fault = Some (Crash_shard { shard = 0; at_ns = 100 }) };
  rejects
    "crash_shard index out of range (shard 0 hosts allocation and is \
     not killable)"
    { d with
      Samhita.Config.manager_shards = 3;
      fault = Some (Crash_shard { shard = 3; at_ns = 100 }) };
  Alcotest.(check bool) "valid sharded config accepted" true
    (Samhita.Config.validate
       { d with Samhita.Config.manager_shards = 4 }
     = Ok ())

let test_config_accepts_max_threads () =
  (* The cap is a field, not a constant: raising it admits bigger
     systems. *)
  let d = Samhita.Config.default in
  Alcotest.(check int) "default cap is 512" 512
    d.Samhita.Config.max_threads;
  Alcotest.(check bool) "raised cap validates" true
    (Samhita.Config.validate { d with Samhita.Config.max_threads = 4096 }
     = Ok ())

let tests =
  [ Alcotest.test_case "ring: single shard" `Quick test_ring_single_shard;
    Alcotest.test_case "ring: balance" `Quick test_ring_balance;
    Alcotest.test_case "ring: stability under growth" `Quick
      test_ring_stability;
    Alcotest.test_case "ring: pure placement" `Quick test_ring_pure;
    Alcotest.test_case "metrics: control block gated on sharding" `Quick
      test_control_gate;
    Alcotest.test_case "shard crash: takeover clean" `Quick
      test_shard_crash_takeover;
    Alcotest.test_case "shard crash: deterministic" `Quick
      test_shard_crash_deterministic;
    Alcotest.test_case "config: bounds named in errors" `Quick
      test_config_bounds;
    Alcotest.test_case "config: max_threads is a field" `Quick
      test_config_accepts_max_threads ]

let () = Alcotest.run "shard" [ ("shard", tests) ]

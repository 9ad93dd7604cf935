(* Tests for the manager: allocation, locks (with RegC grant actions),
   barriers and condition variables. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let t0 = Desim.Time.zero

let mk () =
  let e = Desim.Engine.create () in
  let net =
    Fabric.Network.create e ~profile:cfg.Samhita.Config.fabric ~node_count:4
  in
  let m =
    Samhita.Manager_shard.create cfg layout ~engine:e
      ~endpoint:(Fabric.Scl.endpoint net 0)
  in
  (e, net, m)

let mk_with cfg' =
  let e = Desim.Engine.create () in
  let net =
    Fabric.Network.create e ~profile:cfg'.Samhita.Config.fabric ~node_count:4
  in
  let m =
    Samhita.Manager_shard.create cfg' layout ~engine:e
      ~endpoint:(Fabric.Scl.endpoint net 0)
  in
  (e, net, m)

let ep net n = Fabric.Scl.endpoint net n

(* ---------------- allocation ---------------- *)

let test_alloc_alignment () =
  let _, _, m = mk () in
  let lb = Samhita.Config.line_bytes cfg in
  let a1 = Samhita.Manager_shard.alloc m ~kind:`Shared ~bytes:24 in
  Alcotest.(check int) "shared 8-aligned" 0 (a1 mod 8);
  let a2 = Samhita.Manager_shard.alloc m ~kind:`Arena_chunk ~bytes:100 in
  Alcotest.(check int) "chunk line-aligned" 0 (a2 mod lb);
  let a3 = Samhita.Manager_shard.alloc m ~kind:`Large ~bytes:1000 in
  Alcotest.(check int) "large stripe-aligned" 0
    (a3 mod Samhita.Home.stripe_bytes cfg);
  Alcotest.(check bool) "disjoint and ordered" true (a1 < a2 && a2 < a3);
  Alcotest.(check bool) "gas grows" true
    (Samhita.Manager_shard.gas_used m >= a3 + 1000)

let test_alloc_invalid () =
  let _, _, m = mk () in
  Alcotest.check_raises "zero"
    (Invalid_argument "Manager_shard.alloc: bytes must be positive") (fun () ->
      ignore (Samhita.Manager_shard.alloc m ~kind:`Shared ~bytes:0))

(* ---------------- locks ---------------- *)

let test_lock_grant_free () =
  let _, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  Alcotest.(check (option int)) "free" None (Samhita.Manager_shard.lock_holder m l);
  match
    Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
      ~endpoint:(ep net 2) ~wake:(fun _ -> Alcotest.fail "no wake expected")
  with
  | `Granted g ->
    Alcotest.(check bool) "fresh" true (g.Samhita.Manager_shard.action = Fresh);
    Alcotest.(check int) "version 0" 0 g.Samhita.Manager_shard.lock_version;
    Alcotest.(check (option int)) "held" (Some 1)
      (Samhita.Manager_shard.lock_holder m l)
  | `Queued -> Alcotest.fail "expected immediate grant"

let test_lock_queue_and_handoff () =
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  ignore
    (Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ()));
  let woken = ref None in
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
       ~endpoint:(ep net 3)
       ~wake:(fun g -> woken := Some g)
   with
   | `Queued -> ()
   | `Granted _ -> Alcotest.fail "expected queue");
  (* Holder releases with a log; waiter gets the lock and a Patch. *)
  let u = Samhita.Update.of_i64 ~addr:0 5L in
  Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:1 ~log:[ u ]
    ~line_versions:[ (0, 1) ];
  Alcotest.(check (option int)) "handed off" (Some 2)
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check bool) "wake is a scheduled fabric event" true
    (!woken = None);
  Desim.Engine.run e;
  (match !woken with
   | Some g -> (
       Alcotest.(check int) "sees version 1" 1 g.Samhita.Manager_shard.lock_version;
       match g.Samhita.Manager_shard.action with
       | Samhita.Manager_shard.Patch ([ u' ], [ (0, 1) ]) ->
         Alcotest.(check int) "patch addr" 0 u'.Samhita.Update.addr
       | _ -> Alcotest.fail "expected Patch")
   | None -> Alcotest.fail "waiter never woken")

let test_lock_release_not_holder () =
  let _, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  ignore
    (Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ()));
  Alcotest.check_raises "wrong thread"
    (Invalid_argument "Manager_shard.lock_release: thread does not hold the lock")
    (fun () ->
       Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:9 ~log:[]
         ~line_versions:[])

let test_lock_release_error_mutates_nothing () =
  (* An erroneous release (wrong thread) must leave the lock state
     untouched: same holder, same version, and the waiter queue intact —
     the queued waiter is still handed the lock by the legitimate
     release afterwards. *)
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Granted _ -> ()
   | `Queued -> Alcotest.fail "free lock");
  Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:1
    ~log:[ Samhita.Update.of_i64 ~addr:0 1L ]
    ~line_versions:[ (0, 1) ];
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:1
       ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Granted _ -> ()
   | `Queued -> Alcotest.fail "free lock");
  let woken = ref None in
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
       ~endpoint:(ep net 3) ~wake:(fun g -> woken := Some g)
   with
   | `Queued -> ()
   | `Granted _ -> Alcotest.fail "expected queue");
  let version_before = Samhita.Manager_shard.lock_version m l in
  Alcotest.check_raises "wrong thread rejected"
    (Invalid_argument "Manager_shard.lock_release: thread does not hold the lock")
    (fun () ->
       Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:2
         ~log:[ Samhita.Update.of_i64 ~addr:8 9L ]
         ~line_versions:[ (0, 9) ]);
  Alcotest.(check (option int)) "holder unchanged" (Some 1)
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check int) "version unchanged" version_before
    (Samhita.Manager_shard.lock_version m l);
  Alcotest.(check bool) "waiter not woken by the error" true (!woken = None);
  (* The legitimate release still finds the waiter queued. *)
  Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:1
    ~log:[ Samhita.Update.of_i64 ~addr:8 2L ]
    ~line_versions:[ (0, 2) ];
  Alcotest.(check (option int)) "handed off to the intact waiter" (Some 2)
    (Samhita.Manager_shard.lock_holder m l);
  Desim.Engine.run e;
  (match !woken with
   | Some g ->
     Alcotest.(check int) "waiter sees the post-release version" 2
       g.Samhita.Manager_shard.lock_version
   | None -> Alcotest.fail "waiter never woken")

let test_lock_release_free_lock () =
  (* Releasing a never-acquired lock is the same misuse: raises, and the
     lock stays free at version 0. *)
  let _, _, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  Alcotest.check_raises "free lock rejected"
    (Invalid_argument "Manager_shard.lock_release: thread does not hold the lock")
    (fun () ->
       Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:1
         ~log:[ Samhita.Update.of_i64 ~addr:0 1L ]
         ~line_versions:[ (0, 1) ]);
  Alcotest.(check (option int)) "still free" None
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check int) "version still 0" 0 (Samhita.Manager_shard.lock_version m l)

let test_lock_patch_aggregates_history () =
  let _, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  (* Three acquire/release rounds by thread 1. *)
  for i = 1 to 3 do
    (match
       Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1
         ~last_seen:(i - 1) ~endpoint:(ep net 2) ~wake:(fun _ -> ())
     with
     | `Granted _ -> ()
     | `Queued -> Alcotest.fail "free lock");
    Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:1
      ~log:[ Samhita.Update.of_i64 ~addr:(i * 8) (Int64.of_int i) ]
      ~line_versions:[ (0, i) ]
  done;
  (* A thread that last saw version 1 gets updates 2 and 3, aggregated. *)
  match
    Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:1
      ~endpoint:(ep net 3) ~wake:(fun _ -> ())
  with
  | `Granted { action = Samhita.Manager_shard.Patch (log, lvs); lock_version; _ } ->
    Alcotest.(check int) "current version" 3 lock_version;
    Alcotest.(check (list int)) "updates 2 then 3 (oldest first)"
      [ 16; 24 ]
      (List.map (fun u -> u.Samhita.Update.addr) log);
    Alcotest.(check (list (pair int int))) "final line version" [ (0, 3) ]
      lvs
  | `Granted _ -> Alcotest.fail "expected Patch"
  | `Queued -> Alcotest.fail "lock should be free"

let test_lock_notices_fallback () =
  (* History depth 1: a two-version gap cannot be patched. *)
  let cfg' = { cfg with update_log_history = 1 } in
  let _, net, m = mk_with cfg' in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  for i = 1 to 3 do
    (match
       Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1
         ~last_seen:(i - 1) ~endpoint:(ep net 2) ~wake:(fun _ -> ())
     with
     | `Granted _ -> ()
     | `Queued -> Alcotest.fail "free lock");
    Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:1
      ~log:[ Samhita.Update.of_i64 ~addr:(i * 8) 1L ]
      ~line_versions:[ (i, i) ]
  done;
  match
    Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
      ~endpoint:(ep net 3) ~wake:(fun _ -> ())
  with
  | `Granted { action = Samhita.Manager_shard.Notices ns; _ } ->
    Alcotest.(check (list (pair int int))) "touched map"
      [ (1, 1); (2, 2); (3, 3) ]
      (List.sort compare ns)
  | `Granted _ -> Alcotest.fail "expected Notices"
  | `Queued -> Alcotest.fail "lock should be free"

let test_lock_grant_wire_grows_with_payload () =
  let _, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Granted g0 ->
     Samhita.Manager_shard.lock_release m ~now:t0 ~lock:l ~thread:1
       ~log:(List.init 10 (fun i -> Samhita.Update.of_i64 ~addr:(i * 8) 0L))
       ~line_versions:[ (0, 1) ];
     (match
        Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
          ~endpoint:(ep net 3) ~wake:(fun _ -> ())
      with
      | `Granted g1 ->
        Alcotest.(check bool) "patch reply bigger than fresh reply" true
          (g1.Samhita.Manager_shard.wire_bytes > g0.Samhita.Manager_shard.wire_bytes)
      | `Queued -> Alcotest.fail "free")
   | `Queued -> Alcotest.fail "free")

(* ---------------- barriers ---------------- *)

let test_barrier_release_and_masks () =
  let e, net, m = mk () in
  let b = 1 in
  Samhita.Manager_shard.barrier_register m ~id:b ~parties:3;
  let woken = ref [] in
  let arrive thread lines =
    Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread ~lines
      ~endpoint:(ep net 2)
      ~wake:(fun (ns, _) -> woken := (thread, ns) :: !woken)
  in
  (match arrive 0 [ 10 ] with
   | `Wait -> ()
   | `Released _ -> Alcotest.fail "not last");
  (match arrive 1 [ 10; 11 ] with
   | `Wait -> ()
   | `Released _ -> Alcotest.fail "not last");
  (match arrive 2 [] with
   | `Released (all, _) ->
     Alcotest.(check (list (pair int (list int))))
       "writer sets aggregated"
       [ (10, [ 0; 1 ]); (11, [ 1 ]) ]
       (List.sort compare
          (List.map (fun (l, s) -> (l, Samhita.Tset.to_list s)) all))
   | `Wait -> Alcotest.fail "last arriver must release");
  Desim.Engine.run e;
  Alcotest.(check int) "both waiters woken" 2 (List.length !woken);
  Alcotest.(check int) "epoch advanced" 1 (Samhita.Manager_shard.barrier_epoch m b)

let test_barrier_reusable () =
  let e, net, m = mk () in
  let b = 1 in
  Samhita.Manager_shard.barrier_register m ~id:b ~parties:2;
  for epoch = 0 to 2 do
    ignore
      (Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:0
         ~lines:[ epoch ] ~endpoint:(ep net 2) ~wake:(fun _ -> ()));
    match
      Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:1
        ~lines:[] ~endpoint:(ep net 3) ~wake:(fun _ -> ())
    with
    | `Released (all, _) ->
      Alcotest.(check (list (pair int (list int))))
        "epoch notices are fresh each time"
        [ (epoch, [ 0 ]) ]
        (List.map (fun (l, s) -> (l, Samhita.Tset.to_list s)) all)
    | `Wait -> Alcotest.fail "should release"
  done;
  Desim.Engine.run e;
  Alcotest.(check int) "three epochs" 3 (Samhita.Manager_shard.barrier_epoch m b)

let test_barrier_thread_id_range () =
  let e, net, m = mk () in
  let b = 1 in
  Samhita.Manager_shard.barrier_register m ~id:b ~parties:1;
  (* Thread ids beyond the old 62-entry mask limit are legal now that
     writer sets are bitsets; only negative ids are rejected. *)
  (match
     Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:62
       ~lines:[ 7 ] ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Released (all, _) ->
     Alcotest.(check (list (pair int (list int))))
       "wide thread id recorded in the writer set"
       [ (7, [ 62 ]) ]
       (List.map (fun (l, s) -> (l, Samhita.Tset.to_list s)) all)
   | `Wait -> Alcotest.fail "single party must release");
  Desim.Engine.run e;
  Alcotest.check_raises "negative id"
    (Invalid_argument "Manager_shard.barrier_arrive: negative thread id")
    (fun () ->
       ignore
         (Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:(-1)
            ~lines:[] ~endpoint:(ep net 2) ~wake:(fun _ -> ())))

let test_barrier_invalid_parties () =
  let _, _, m = mk () in
  Alcotest.check_raises "parties"
    (Invalid_argument "Manager_shard.barrier_create: parties") (fun () ->
      Samhita.Manager_shard.barrier_register m ~id:1 ~parties:0)

(* ---------------- condition variables ---------------- *)

let test_cond_signal_fifo () =
  let e, net, m = mk () in
  let c = 1 in
  Samhita.Manager_shard.cond_register m ~id:c;
  let woken = ref [] in
  for i = 1 to 3 do
    Samhita.Manager_shard.cond_wait m ~cond:c ~thread:i ~endpoint:(ep net 2)
      ~wake:(fun () -> woken := i :: !woken)
  done;
  Alcotest.(check int) "signal wakes one" 1
    (Samhita.Manager_shard.cond_signal m ~now:t0 ~cond:c);
  Desim.Engine.run e;
  Alcotest.(check (list int)) "first waiter" [ 1 ] (List.rev !woken);
  Alcotest.(check int) "broadcast wakes rest" 2
    (Samhita.Manager_shard.cond_broadcast m ~now:t0 ~cond:c);
  Desim.Engine.run e;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !woken);
  Alcotest.(check int) "signal on empty" 0
    (Samhita.Manager_shard.cond_signal m ~now:t0 ~cond:c)

let test_unknown_ids () =
  let _, net, m = mk () in
  Alcotest.check_raises "unknown lock" (Invalid_argument "Manager_shard: unknown lock")
    (fun () -> ignore (Samhita.Manager_shard.lock_holder m 999));
  Alcotest.check_raises "unknown barrier"
    (Invalid_argument "Manager_shard: unknown barrier") (fun () ->
      ignore (Samhita.Manager_shard.barrier_epoch m 999));
  Alcotest.check_raises "unknown cond"
    (Invalid_argument "Manager_shard: unknown condition variable") (fun () ->
      Samhita.Manager_shard.cond_wait m ~cond:999 ~thread:0 ~endpoint:(ep net 2)
        ~wake:(fun () -> ()))

let tests =
  [ Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
    Alcotest.test_case "alloc invalid" `Quick test_alloc_invalid;
    Alcotest.test_case "lock grant when free" `Quick test_lock_grant_free;
    Alcotest.test_case "lock queue + handoff" `Quick
      test_lock_queue_and_handoff;
    Alcotest.test_case "release error mutates nothing" `Quick
      test_lock_release_error_mutates_nothing;
    Alcotest.test_case "release of a free lock" `Quick
      test_lock_release_free_lock;
    Alcotest.test_case "release by non-holder" `Quick
      test_lock_release_not_holder;
    Alcotest.test_case "patch aggregates history" `Quick
      test_lock_patch_aggregates_history;
    Alcotest.test_case "notices fallback" `Quick test_lock_notices_fallback;
    Alcotest.test_case "grant wire size" `Quick
      test_lock_grant_wire_grows_with_payload;
    Alcotest.test_case "barrier masks" `Quick test_barrier_release_and_masks;
    Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
    Alcotest.test_case "barrier thread id range" `Quick
      test_barrier_thread_id_range;
    Alcotest.test_case "barrier invalid parties" `Quick
      test_barrier_invalid_parties;
    Alcotest.test_case "cond signal/broadcast" `Quick test_cond_signal_fifo;
    Alcotest.test_case "unknown ids" `Quick test_unknown_ids ]

let () = Alcotest.run "samhita.manager" [ ("manager", tests) ]

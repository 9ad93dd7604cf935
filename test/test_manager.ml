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

let now e = Desim.Engine.now e

(* Every grant is a push: the acquire only registers [wake], and the grant
   lands once the engine runs the transfer. Returns the grant, or [None]
   while the thread is queued. *)
let acquire e m ~lock ~thread ~last_seen ~endpoint =
  let got = ref None in
  Samhita.Manager_shard.lock_acquire m ~now:(now e) ~lock ~thread ~last_seen
    ~endpoint ~wake:(fun g ->
        if !got <> None then Alcotest.fail "grant delivered twice";
        got := Some g);
  Desim.Engine.run e;
  !got

let acquired e m ~lock ~thread ~last_seen ~endpoint =
  match acquire e m ~lock ~thread ~last_seen ~endpoint with
  | Some g -> g
  | None -> Alcotest.fail "lock should be free"

let release e m ~seq ~lock ~thread ~log ~line_versions =
  Samhita.Manager_shard.lock_release m ~seq ~now:(now e) ~lock ~thread ~log
    ~line_versions

let not_holder =
  Invalid_argument "Manager_shard.lock_release: thread does not hold the lock"

let test_lock_grant_free () =
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  Alcotest.(check (option int)) "free" None (Samhita.Manager_shard.lock_holder m l);
  let got = ref None in
  Samhita.Manager_shard.lock_acquire m ~now:(now e) ~lock:l ~thread:1
    ~last_seen:0 ~endpoint:(ep net 2) ~wake:(fun g -> got := Some g);
  Alcotest.(check (option int)) "held at once" (Some 1)
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check bool) "the grant is a scheduled fabric event" true
    (!got = None);
  Desim.Engine.run e;
  match !got with
  | Some g ->
    Alcotest.(check bool) "fresh" true (g.Samhita.Manager_shard.action = Fresh);
    Alcotest.(check int) "version 0" 0 g.Samhita.Manager_shard.lock_version;
    Alcotest.(check bool) "arrives after the wire time" true
      (Desim.Time.to_ns (now e) > 0)
  | None -> Alcotest.fail "grant never arrived"

let test_lock_reacquire_by_holder () =
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  ignore
    (acquired e m ~lock:l ~thread:1 ~last_seen:0 ~endpoint:(ep net 2)
     : Samhita.Manager_shard.grant);
  Alcotest.check_raises "holder re-acquire rejected"
    (Invalid_argument
       "Manager_shard.lock_acquire: thread already holds the lock")
    (fun () ->
       Samhita.Manager_shard.lock_acquire m ~now:(now e) ~lock:l ~thread:1
         ~last_seen:0 ~endpoint:(ep net 2)
         ~wake:(fun _ -> Alcotest.fail "no second grant"));
  Desim.Engine.run e;
  Alcotest.(check (option int)) "still held" (Some 1)
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check (list int)) "nobody queued" []
    (Samhita.Manager_shard.lock_waiters m l)

let test_lock_queue_and_handoff () =
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  ignore
    (acquired e m ~lock:l ~thread:1 ~last_seen:0 ~endpoint:(ep net 2)
     : Samhita.Manager_shard.grant);
  let woken = ref None in
  Samhita.Manager_shard.lock_acquire m ~now:(now e) ~lock:l ~thread:2
    ~last_seen:0 ~endpoint:(ep net 3) ~wake:(fun g -> woken := Some g);
  Desim.Engine.run e;
  Alcotest.(check bool) "queued behind the holder" true (!woken = None);
  (* Holder releases with a log; waiter gets the lock and a Patch. *)
  let u = Samhita.Update.of_i64 ~addr:0 5L in
  Alcotest.(check int) "release produced version 1" 1
    (release e m ~seq:1 ~lock:l ~thread:1 ~log:[ u ] ~line_versions:[ (0, 1) ]);
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
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  ignore
    (acquired e m ~lock:l ~thread:1 ~last_seen:0 ~endpoint:(ep net 2)
     : Samhita.Manager_shard.grant);
  Alcotest.check_raises "wrong thread" not_holder (fun () ->
      ignore
        (release e m ~seq:1 ~lock:l ~thread:9 ~log:[] ~line_versions:[] : int))

(* A free lock has no holder, recorded as -1: a negative thread id can
   neither acquire nor release it. *)
let test_lock_negative_thread () =
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  Alcotest.check_raises "acquire"
    (Invalid_argument "Manager_shard.lock_acquire: negative thread id")
    (fun () ->
       Samhita.Manager_shard.lock_acquire m ~now:(now e) ~lock:l ~thread:(-1)
         ~last_seen:0 ~endpoint:(ep net 2) ~wake:(fun _ -> ()));
  Alcotest.check_raises "release of a free lock" not_holder (fun () ->
      ignore
        (release e m ~seq:1 ~lock:l ~thread:(-1) ~log:[] ~line_versions:[]
         : int));
  Alcotest.(check (option int)) "still free" None
    (Samhita.Manager_shard.lock_holder m l)

let test_lock_release_error_mutates_nothing () =
  (* An erroneous release (wrong thread) must leave the lock state
     untouched: same holder, same version, and the waiter queue intact —
     the queued waiter is still handed the lock by the legitimate
     release afterwards. *)
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  ignore
    (acquired e m ~lock:l ~thread:1 ~last_seen:0 ~endpoint:(ep net 2)
     : Samhita.Manager_shard.grant);
  ignore
    (release e m ~seq:1 ~lock:l ~thread:1
       ~log:[ Samhita.Update.of_i64 ~addr:0 1L ]
       ~line_versions:[ (0, 1) ]
     : int);
  ignore
    (acquired e m ~lock:l ~thread:1 ~last_seen:1 ~endpoint:(ep net 2)
     : Samhita.Manager_shard.grant);
  let woken = ref None in
  Samhita.Manager_shard.lock_acquire m ~now:(now e) ~lock:l ~thread:2
    ~last_seen:0 ~endpoint:(ep net 3) ~wake:(fun g -> woken := Some g);
  Desim.Engine.run e;
  Alcotest.(check bool) "queued behind the holder" true (!woken = None);
  let version_before = Samhita.Manager_shard.lock_version m l in
  Alcotest.check_raises "wrong thread rejected" not_holder (fun () ->
      ignore
        (release e m ~seq:1 ~lock:l ~thread:2
           ~log:[ Samhita.Update.of_i64 ~addr:8 9L ]
           ~line_versions:[ (0, 9) ]
         : int));
  Alcotest.(check (option int)) "holder unchanged" (Some 1)
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check int) "version unchanged" version_before
    (Samhita.Manager_shard.lock_version m l);
  Desim.Engine.run e;
  Alcotest.(check bool) "waiter not woken by the error" true (!woken = None);
  (* The legitimate release still finds the waiter queued. *)
  Alcotest.(check int) "legitimate release produced version 2" 2
    (release e m ~seq:2 ~lock:l ~thread:1
       ~log:[ Samhita.Update.of_i64 ~addr:8 2L ]
       ~line_versions:[ (0, 2) ]);
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
  let e, _, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  Alcotest.check_raises "free lock rejected" not_holder (fun () ->
      ignore
        (release e m ~seq:1 ~lock:l ~thread:1
           ~log:[ Samhita.Update.of_i64 ~addr:0 1L ]
           ~line_versions:[ (0, 1) ]
         : int));
  Alcotest.(check (option int)) "still free" None
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check int) "version still 0" 0 (Samhita.Manager_shard.lock_version m l)

let test_lock_patch_aggregates_history () =
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  (* Three acquire/release rounds by thread 1. *)
  for i = 1 to 3 do
    ignore
      (acquired e m ~lock:l ~thread:1 ~last_seen:(i - 1) ~endpoint:(ep net 2)
       : Samhita.Manager_shard.grant);
    Alcotest.(check int) "release returns its version" i
      (release e m ~seq:i ~lock:l ~thread:1
         ~log:[ Samhita.Update.of_i64 ~addr:(i * 8) (Int64.of_int i) ]
         ~line_versions:[ (0, i) ])
  done;
  (* A thread that last saw version 1 gets updates 2 and 3, aggregated. *)
  match acquired e m ~lock:l ~thread:2 ~last_seen:1 ~endpoint:(ep net 3) with
  | { action = Samhita.Manager_shard.Patch (log, lvs); lock_version; _ } ->
    Alcotest.(check int) "current version" 3 lock_version;
    Alcotest.(check (list int)) "updates 2 then 3 (oldest first)"
      [ 16; 24 ]
      (List.map (fun u -> u.Samhita.Update.addr) log);
    Alcotest.(check (list (pair int int))) "final line version" [ (0, 3) ]
      lvs
  | _ -> Alcotest.fail "expected Patch"

let test_lock_duplicate_release_keeps_its_version () =
  (* A shard-crash retry of a release that already executed is a no-op
     and answers with the version that release produced, even when
     another thread has released since. Recording the lock's current
     version instead would make the retrying thread's next acquire Fresh
     and skip the other thread's update. *)
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  let acquire ~thread ~last_seen =
    acquired e m ~lock:l ~thread ~last_seen ~endpoint:(ep net (thread + 1))
  in
  let release ~thread ~addr ~line_versions =
    release e m ~seq:1 ~lock:l ~thread
      ~log:[ Samhita.Update.of_i64 ~addr 7L ] ~line_versions
  in
  ignore (acquire ~thread:1 ~last_seen:0 : Samhita.Manager_shard.grant);
  Alcotest.(check int) "thread 1 releases version 1" 1
    (release ~thread:1 ~addr:0 ~line_versions:[ (0, 1) ]);
  ignore (acquire ~thread:2 ~last_seen:0 : Samhita.Manager_shard.grant);
  Alcotest.(check int) "thread 2 releases version 2" 2
    (release ~thread:2 ~addr:8 ~line_versions:[ (0, 2) ]);
  Alcotest.(check int) "the retry returns the original version" 1
    (release ~thread:1 ~addr:0 ~line_versions:[ (0, 1) ]);
  Alcotest.(check int) "the retry mutates nothing" 2
    (Samhita.Manager_shard.lock_version m l);
  match (acquire ~thread:1 ~last_seen:1).Samhita.Manager_shard.action with
  | Samhita.Manager_shard.Patch (log, lvs) ->
    Alcotest.(check (list int)) "patch carries thread 2's update" [ 8 ]
      (List.map (fun u -> u.Samhita.Update.addr) log);
    Alcotest.(check (list (pair int int))) "and its line version"
      [ (0, 2) ] lvs
  | _ -> Alcotest.fail "expected Patch"

let test_lock_notices_fallback () =
  (* History depth 1: a two-version gap cannot be patched. *)
  let cfg' = { cfg with update_log_history = 1 } in
  let e, net, m = mk_with cfg' in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  for i = 1 to 3 do
    ignore
      (acquired e m ~lock:l ~thread:1 ~last_seen:(i - 1) ~endpoint:(ep net 2)
       : Samhita.Manager_shard.grant);
    ignore
      (release e m ~seq:i ~lock:l ~thread:1
         ~log:[ Samhita.Update.of_i64 ~addr:(i * 8) 1L ]
         ~line_versions:[ (i, i) ]
       : int)
  done;
  match acquired e m ~lock:l ~thread:2 ~last_seen:0 ~endpoint:(ep net 3) with
  | { action = Samhita.Manager_shard.Notices ns; _ } ->
    Alcotest.(check (list (pair int int))) "touched map"
      [ (1, 1); (2, 2); (3, 3) ]
      (List.sort compare ns)
  | _ -> Alcotest.fail "expected Notices"

let test_lock_grant_wire_grows_with_payload () =
  let e, net, m = mk () in
  let l = 1 in
  Samhita.Manager_shard.lock_register m ~id:l;
  let g0 = acquired e m ~lock:l ~thread:1 ~last_seen:0 ~endpoint:(ep net 2) in
  ignore
    (release e m ~seq:1 ~lock:l ~thread:1
       ~log:(List.init 10 (fun i -> Samhita.Update.of_i64 ~addr:(i * 8) 0L))
       ~line_versions:[ (0, 1) ]
     : int);
  let g1 = acquired e m ~lock:l ~thread:2 ~last_seen:0 ~endpoint:(ep net 3) in
  Alcotest.(check bool) "patch reply bigger than fresh reply" true
    (g1.Samhita.Manager_shard.wire_bytes > g0.Samhita.Manager_shard.wire_bytes)

(* ---------------- barriers ---------------- *)

let writer_sets all =
  List.sort compare (List.map (fun (l, s) -> (l, Samhita.Tset.to_list s)) all)

let test_barrier_release_and_masks () =
  let e, net, m = mk () in
  let b = 1 in
  Samhita.Manager_shard.barrier_register m ~id:b ~parties:3;
  let woken = ref [] in
  let arrive thread lines =
    Samhita.Manager_shard.barrier_arrive m ~now:(now e) ~barrier:b ~thread
      ~lines ~endpoint:(ep net 2)
      ~wake:(fun ns -> woken := (thread, ns) :: !woken);
    Desim.Engine.run e
  in
  arrive 0 [ 10 ];
  arrive 1 [ 10; 11 ];
  Alcotest.(check int) "nobody released before the last arrival" 0
    (List.length !woken);
  arrive 2 [];
  Alcotest.(check (list int)) "waiters first, the last arriver last"
    [ 1; 0; 2 ] (List.rev_map fst !woken);
  List.iter
    (fun (thread, all) ->
       Alcotest.(check (list (pair int (list int))))
         (Printf.sprintf "thread %d gets the aggregated writer sets" thread)
         [ (10, [ 0; 1 ]); (11, [ 1 ]) ]
         (writer_sets all))
    !woken;
  Alcotest.(check int) "epoch advanced" 1 (Samhita.Manager_shard.barrier_epoch m b)

let test_barrier_reusable () =
  let e, net, m = mk () in
  let b = 1 in
  Samhita.Manager_shard.barrier_register m ~id:b ~parties:2;
  for epoch = 0 to 2 do
    let got = ref None in
    Samhita.Manager_shard.barrier_arrive m ~now:(now e) ~barrier:b ~thread:0
      ~lines:[ epoch ] ~endpoint:(ep net 2) ~wake:(fun _ -> ());
    Samhita.Manager_shard.barrier_arrive m ~now:(now e) ~barrier:b ~thread:1
      ~lines:[] ~endpoint:(ep net 3) ~wake:(fun all -> got := Some all);
    Desim.Engine.run e;
    match !got with
    | Some all ->
      Alcotest.(check (list (pair int (list int))))
        "epoch notices are fresh each time"
        [ (epoch, [ 0 ]) ]
        (writer_sets all)
    | None -> Alcotest.fail "should release"
  done;
  Alcotest.(check int) "three epochs" 3 (Samhita.Manager_shard.barrier_epoch m b)

let test_barrier_thread_id_range () =
  let e, net, m = mk () in
  let b = 1 in
  Samhita.Manager_shard.barrier_register m ~id:b ~parties:1;
  (* Thread ids beyond the old 62-entry mask limit are legal now that
     writer sets are bitsets; only negative ids are rejected. *)
  let got = ref None in
  Samhita.Manager_shard.barrier_arrive m ~now:(now e) ~barrier:b ~thread:62
    ~lines:[ 7 ] ~endpoint:(ep net 2) ~wake:(fun all -> got := Some all);
  Desim.Engine.run e;
  (match !got with
   | Some all ->
     Alcotest.(check (list (pair int (list int))))
       "wide thread id recorded in the writer set"
       [ (7, [ 62 ]) ]
       (writer_sets all)
   | None -> Alcotest.fail "single party must release");
  Alcotest.check_raises "negative id"
    (Invalid_argument "Manager_shard.barrier_arrive: negative thread id")
    (fun () ->
       Samhita.Manager_shard.barrier_arrive m ~now:(now e) ~barrier:b
         ~thread:(-1) ~lines:[] ~endpoint:(ep net 2) ~wake:(fun _ -> ()))

let test_barrier_invalid_parties () =
  let _, _, m = mk () in
  Alcotest.check_raises "parties"
    (Invalid_argument "Manager_shard.barrier_create: parties") (fun () ->
      Samhita.Manager_shard.barrier_register m ~id:1 ~parties:0)

(* ---------------- shard takeover ---------------- *)

(* A shard whose node is dead from the start cannot send any reply: the
   immediate grant and both pushes of the barrier release are kept, not
   delivered, and the takeover shard re-drives each exactly once. *)
let test_orphaned_replies_redriven () =
  let e = Desim.Engine.create () in
  let faults =
    Fabric.Faults.create
      ~injection:(Fabric.Faults.Crash { node = 0; at = Desim.Time.zero })
      ~seed:1 ~level:Fabric.Faults.Off ()
  in
  let net =
    Fabric.Network.create ~faults e ~profile:cfg.Samhita.Config.fabric
      ~node_count:4
  in
  let shard node =
    Samhita.Manager_shard.create cfg layout ~engine:e
      ~endpoint:(Fabric.Scl.endpoint net node)
  in
  let dead = shard 0 and live = shard 1 in
  let l = 1 and b = 2 in
  Samhita.Manager_shard.lock_register dead ~id:l;
  Samhita.Manager_shard.barrier_register dead ~id:b ~parties:2;
  let grants = ref [] and releases = ref [] in
  Samhita.Manager_shard.lock_acquire dead ~now:(now e) ~lock:l ~thread:2
    ~last_seen:0 ~endpoint:(ep net 2)
    ~wake:(fun g -> grants := g :: !grants);
  List.iter
    (fun thread ->
       Samhita.Manager_shard.barrier_arrive dead ~now:(now e) ~barrier:b
         ~thread ~lines:[ 5 ] ~endpoint:(ep net thread)
         ~wake:(fun all -> releases := (thread, all) :: !releases))
    [ 2; 3 ];
  Desim.Engine.run e;
  Alcotest.(check int) "no grant leaves a dead shard" 0 (List.length !grants);
  Alcotest.(check int) "no release leaves a dead shard" 0
    (List.length !releases);
  Alcotest.(check (option int)) "the grant was executed" (Some 2)
    (Samhita.Manager_shard.lock_holder dead l);
  let moved, redriven =
    Samhita.Manager_shard.absorb live ~from:dead ~now:(now e)
  in
  Alcotest.(check (pair int int)) "two objects, three orphaned pushes"
    (2, 3) (moved, redriven);
  Desim.Engine.run e;
  (match !grants with
   | [ g ] ->
     Alcotest.(check int) "re-driven grant, version 0" 0
       g.Samhita.Manager_shard.lock_version
   | gs -> Alcotest.failf "expected one grant, got %d" (List.length gs));
  Alcotest.(check (list int)) "each arriver released once, last arriver last"
    [ 2; 3 ] (List.rev_map fst !releases);
  List.iter
    (fun (_, all) ->
       Alcotest.(check (list (pair int (list int)))) "released notices"
         [ (5, [ 2; 3 ]) ] (writer_sets all))
    !releases;
  Alcotest.(check (option int)) "the takeover shard holds the lock state"
    (Some 2) (Samhita.Manager_shard.lock_holder live l);
  Alcotest.(check (pair int int)) "a second takeover re-drives nothing"
    (0, 0)
    (Samhita.Manager_shard.absorb live ~from:dead ~now:(now e));
  Desim.Engine.run e;
  Alcotest.(check int) "still one grant" 1 (List.length !grants);
  Alcotest.(check int) "still two releases" 2 (List.length !releases)

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
    Alcotest.test_case "re-acquire by the holder" `Quick
      test_lock_reacquire_by_holder;
    Alcotest.test_case "lock queue + handoff" `Quick
      test_lock_queue_and_handoff;
    Alcotest.test_case "release error mutates nothing" `Quick
      test_lock_release_error_mutates_nothing;
    Alcotest.test_case "release of a free lock" `Quick
      test_lock_release_free_lock;
    Alcotest.test_case "release by non-holder" `Quick
      test_lock_release_not_holder;
    Alcotest.test_case "negative thread ids rejected" `Quick
      test_lock_negative_thread;
    Alcotest.test_case "patch aggregates history" `Quick
      test_lock_patch_aggregates_history;
    Alcotest.test_case "duplicate release keeps its version" `Quick
      test_lock_duplicate_release_keeps_its_version;
    Alcotest.test_case "notices fallback" `Quick test_lock_notices_fallback;
    Alcotest.test_case "grant wire size" `Quick
      test_lock_grant_wire_grows_with_payload;
    Alcotest.test_case "barrier masks" `Quick test_barrier_release_and_masks;
    Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
    Alcotest.test_case "barrier thread id range" `Quick
      test_barrier_thread_id_range;
    Alcotest.test_case "barrier invalid parties" `Quick
      test_barrier_invalid_parties;
    Alcotest.test_case "orphaned replies re-driven" `Quick
      test_orphaned_replies_redriven;
    Alcotest.test_case "cond signal/broadcast" `Quick test_cond_signal_fifo;
    Alcotest.test_case "unknown ids" `Quick test_unknown_ids ]

let () = Alcotest.run "samhita.manager" [ ("manager", tests) ]

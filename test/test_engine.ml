(* Tests for the discrete-event engine, its effects-based processes and
   the Resource facility. *)

let ns = Desim.Time.ns

let test_schedule_order () =
  let e = Desim.Engine.create () in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  Desim.Engine.schedule_after e (ns 30) (mark "c");
  Desim.Engine.schedule_after e (ns 10) (mark "a");
  Desim.Engine.schedule_after e (ns 20) (mark "b");
  Desim.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check int) "clock at last event" 30
    (Desim.Time.to_ns (Desim.Engine.now e))

let test_same_instant_fifo () =
  let e = Desim.Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Desim.Engine.schedule_after e 0 (fun () -> log := i :: !log)
  done;
  Desim.Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_schedule_past_rejected () =
  let e = Desim.Engine.create () in
  Desim.Engine.schedule_after e (ns 10) (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument
           "Engine.schedule_at: instant is in the simulated past")
        (fun () -> Desim.Engine.schedule_at e (Desim.Time.of_ns 5) ignore));
  Desim.Engine.run e

let test_process_delay () =
  let e = Desim.Engine.create () in
  let stamps = ref [] in
  Desim.Engine.spawn e (fun () ->
      stamps := Desim.Time.to_ns (Desim.Engine.now e) :: !stamps;
      Desim.Engine.delay (ns 100);
      stamps := Desim.Time.to_ns (Desim.Engine.now e) :: !stamps;
      Desim.Engine.delay (ns 50);
      stamps := Desim.Time.to_ns (Desim.Engine.now e) :: !stamps);
  Desim.Engine.run e;
  Alcotest.(check (list int)) "delays advance the clock" [ 0; 100; 150 ]
    (List.rev !stamps)

let test_two_processes_interleave () =
  let e = Desim.Engine.create () in
  let log = ref [] in
  let proc name d () =
    for i = 1 to 3 do
      Desim.Engine.delay d;
      log := Printf.sprintf "%s%d@%d" name i (Desim.Time.to_ns (Desim.Engine.now e)) :: !log
    done
  in
  Desim.Engine.spawn e ~name:"a" (proc "a" (ns 10));
  Desim.Engine.spawn e ~name:"b" (proc "b" (ns 15));
  Desim.Engine.run e;
  Alcotest.(check (list string))
    "interleaving by virtual time"
    (* at t=30 both are due; b's wakeup was enqueued first (at t=15,
       vs a's at t=20), so FIFO tie-breaking runs b first *)
    [ "a1@10"; "b1@15"; "a2@20"; "b2@30"; "a3@30"; "b3@45" ]
    (List.rev !log)

let test_suspend_wake () =
  let e = Desim.Engine.create () in
  let wake_ref = ref (fun () -> ()) in
  let resumed_at = ref (-1) in
  Desim.Engine.spawn e (fun () ->
      Desim.Engine.suspend ~register:(fun ~wake -> wake_ref := wake);
      resumed_at := Desim.Time.to_ns (Desim.Engine.now e));
  Desim.Engine.schedule_after e (ns 70) (fun () -> !wake_ref ());
  Desim.Engine.run e;
  Alcotest.(check int) "resumed at waker's instant" 70 !resumed_at

let test_suspend_value () =
  let e = Desim.Engine.create () in
  let wake_ref = ref (fun (_ : int) -> ()) in
  let got = ref 0 in
  Desim.Engine.spawn e (fun () ->
      got := Desim.Engine.suspend ~register:(fun ~wake -> wake_ref := wake));
  Desim.Engine.schedule_after e (ns 5) (fun () -> !wake_ref 42);
  Desim.Engine.run e;
  Alcotest.(check int) "value passed through" 42 !got

let test_double_wake_ignored () =
  let e = Desim.Engine.create () in
  let wake_ref = ref (fun () -> ()) in
  let resumes = ref 0 in
  Desim.Engine.spawn e (fun () ->
      Desim.Engine.suspend ~register:(fun ~wake -> wake_ref := wake);
      incr resumes);
  Desim.Engine.schedule_after e (ns 1) (fun () ->
      !wake_ref ();
      !wake_ref ());
  Desim.Engine.run e;
  Alcotest.(check int) "one resume" 1 !resumes

let test_deadlock_detection () =
  let e = Desim.Engine.create () in
  Desim.Engine.spawn e (fun () ->
      Desim.Engine.suspend ~register:(fun ~wake:_ -> ()));
  Alcotest.(check bool) "raises Stalled" true
    (match Desim.Engine.run e with
     | () -> false
     | exception Desim.Engine.Stalled _ -> true)

let test_exception_propagates () =
  let e = Desim.Engine.create () in
  Desim.Engine.spawn e (fun () -> failwith "boom");
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      Desim.Engine.run e)

let test_run_until () =
  let e = Desim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d ->
       Desim.Engine.schedule_after e (ns d) (fun () -> fired := d :: !fired))
    [ 10; 20; 30; 40 ];
  Desim.Engine.run_until e (Desim.Time.of_ns 25);
  Alcotest.(check (list int)) "only events <= limit" [ 10; 20 ]
    (List.rev !fired);
  Alcotest.(check int) "clock at limit" 25
    (Desim.Time.to_ns (Desim.Engine.now e));
  Desim.Engine.run_until e (Desim.Time.of_ns 100);
  Alcotest.(check int) "rest fired" 4 (List.length !fired);
  Alcotest.(check int) "clock forced to limit" 100
    (Desim.Time.to_ns (Desim.Engine.now e))

let test_yield_lets_peers_run () =
  let e = Desim.Engine.create () in
  let log = ref [] in
  Desim.Engine.spawn e (fun () ->
      log := "a1" :: !log;
      Desim.Engine.yield ();
      log := "a2" :: !log);
  Desim.Engine.spawn e (fun () -> log := "b" :: !log);
  Desim.Engine.run e;
  Alcotest.(check (list string)) "yield ordering" [ "a1"; "b"; "a2" ]
    (List.rev !log)

(* Schedule fuzzing: a shuffled engine permutes same-instant events as a
   pure function of the seed — replayable, time order untouched. *)
let shuffled_order ~seed =
  let e =
    Desim.Engine.create
      ~tie_break:(Desim.Engine.shuffle_tie_break ~seed)
      ()
  in
  let log = ref [] in
  for i = 0 to 7 do
    Desim.Engine.schedule_after e (ns (i mod 2)) (fun () -> log := i :: !log)
  done;
  Desim.Engine.run e;
  List.rev !log

let test_shuffle_engine_deterministic () =
  Alcotest.(check (list int))
    "same seed, same order" (shuffled_order ~seed:42) (shuffled_order ~seed:42);
  let fifo = [ 0; 2; 4; 6; 1; 3; 5; 7 ] in
  List.iter
    (fun seed ->
       let out = shuffled_order ~seed in
       Alcotest.(check (list int))
         "time groups preserved"
         (List.sort compare (List.filteri (fun i _ -> i < 4) fifo))
         (List.sort compare (List.filteri (fun i _ -> i < 4) out)))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "some seed deviates from FIFO" true
    (List.exists (fun seed -> shuffled_order ~seed <> fifo) [ 1; 2; 3; 4; 5 ])

let test_stalled_names () =
  let e = Desim.Engine.create () in
  let park () = Desim.Engine.suspend ~register:(fun ~wake:_ -> ()) in
  Desim.Engine.spawn e ~name:"node0/thr1" park;
  Desim.Engine.spawn e ~name:"node1/thr0" park;
  Desim.Engine.spawn e (fun () -> ());
  (match Desim.Engine.run e with
   | () -> Alcotest.fail "expected Stalled"
   | exception Desim.Engine.Stalled msg ->
     let mem s =
       let n = String.length msg and k = String.length s in
       let rec go i = i + k <= n && (String.sub msg i k = s || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "message names first blocked process" true
       (mem "node0/thr1");
     Alcotest.(check bool) "message names second blocked process" true
       (mem "node1/thr0"));
  Alcotest.(check (list string))
    "blocked_names lists them in spawn order"
    [ "node0/thr1"; "node1/thr0" ]
    (Desim.Engine.blocked_names e)

let test_run_until_quantum () =
  let e = Desim.Engine.create () in
  Desim.Engine.set_quantum e 100;
  let log = ref [] in
  let mark tag () =
    log := (tag, Desim.Time.to_ns (Desim.Engine.now e)) :: !log
  in
  Desim.Engine.schedule_after e (ns 10) (mark "a");
  Desim.Engine.schedule_after e (ns 110) (mark "b");
  Desim.Engine.schedule_after e (ns 250) (mark "c");
  Desim.Engine.run_until e (Desim.Time.of_ns 200);
  Alcotest.(check (list (pair string int)))
    "instants round up to the quantum; horizon is inclusive"
    [ ("a", 100); ("b", 200) ]
    (List.rev !log);
  Alcotest.(check int) "clock parked exactly at the horizon" 200
    (Desim.Time.to_ns (Desim.Engine.now e));
  Desim.Engine.run_until e (Desim.Time.of_ns 1000);
  Alcotest.(check (pair string int))
    "the rounded tail event runs on the next call" ("c", 300)
    (List.hd !log);
  Alcotest.(check int) "empty queue still advances to the horizon" 1000
    (Desim.Time.to_ns (Desim.Engine.now e))

(* ---------------- Resource ---------------- *)

let test_resource_serializes () =
  let r = Desim.Resource.create (Desim.Engine.create ()) in
  let t1 = Desim.Resource.reserve r ~now:(Desim.Time.of_ns 0) ~duration:100 in
  Alcotest.(check int) "first completes at 100" 100 (Desim.Time.to_ns t1);
  (* Arrives at 50 while busy: queues until 100, finishes at 160. *)
  let t2 = Desim.Resource.reserve r ~now:(Desim.Time.of_ns 50) ~duration:60 in
  Alcotest.(check int) "queued job" 160 (Desim.Time.to_ns t2);
  (* Arrives after idle period: starts immediately. *)
  let t3 = Desim.Resource.reserve r ~now:(Desim.Time.of_ns 500) ~duration:10 in
  Alcotest.(check int) "idle restart" 510 (Desim.Time.to_ns t3);
  Alcotest.(check int) "jobs" 3 (Desim.Resource.jobs r);
  Alcotest.(check int) "busy time" 170 (Desim.Resource.busy_time r)

let test_resource_utilization () =
  let r = Desim.Resource.create (Desim.Engine.create ()) in
  ignore (Desim.Resource.reserve r ~now:Desim.Time.zero ~duration:250);
  Alcotest.(check (float 1e-9)) "25%" 0.25
    (Desim.Resource.utilization r ~horizon:(Desim.Time.of_ns 1000))

let test_resource_negative_duration () =
  let r = Desim.Resource.create (Desim.Engine.create ()) in
  let t = Desim.Resource.reserve r ~now:(Desim.Time.of_ns 5) ~duration:(-10) in
  Alcotest.(check int) "clamped to zero" 5 (Desim.Time.to_ns t)

(* ---------------- Run isolation ---------------- *)

(* Two engines in one process share nothing: each numbers its own
   resources from 0 in creation order, and each engine's reservation
   hook sees only that engine's reservations. *)
let test_resource_ids_per_engine () =
  let a = Desim.Engine.create () and b = Desim.Engine.create () in
  let ra = List.init 3 (fun _ -> Desim.Resource.create a) in
  let rb = List.init 2 (fun _ -> Desim.Resource.create b) in
  let ra = ra @ [ Desim.Resource.create a ] in
  Alcotest.(check (list int)) "engine A: dense, in creation order"
    [ 0; 1; 2; 3 ] (List.map Desim.Resource.id ra);
  Alcotest.(check (list int)) "engine B: dense, in creation order" [ 0; 1 ]
    (List.map Desim.Resource.id rb)

let test_reserve_hook_per_engine () =
  let a = Desim.Engine.create () and b = Desim.Engine.create () in
  let ra = Desim.Resource.create a and rb = Desim.Resource.create b in
  let rb' = Desim.Resource.create b in
  let seen_a = ref [] and seen_b = ref [] in
  Desim.Engine.set_on_reserve a (Some (fun id -> seen_a := id :: !seen_a));
  let book r =
    ignore (Desim.Resource.reserve r ~now:Desim.Time.zero ~duration:1)
  in
  book rb;
  book rb';
  Alcotest.(check (list int)) "A's hook ignores B's reservations" []
    !seen_a;
  book ra;
  Alcotest.(check (list int)) "A's hook sees A's reservation" [ 0 ] !seen_a;
  Desim.Engine.set_on_reserve b (Some (fun id -> seen_b := id :: !seen_b));
  book rb';
  book ra;
  Alcotest.(check (list int)) "B's hook sees only B's" [ 1 ] !seen_b;
  Alcotest.(check (list int)) "A's hook saw A's two" [ 0; 0 ] !seen_a;
  Desim.Engine.set_on_reserve a None;
  book ra;
  Alcotest.(check (list int)) "a cleared hook stops firing" [ 0; 0 ] !seen_a

(* Today's checker runs one shard, but a sharded control plane must not
   fold its shards into one facility: each shard's service queue is a
   resource of its own. *)
let test_shard_services_distinct () =
  let config =
    { Samhita.Config.default with
      Samhita.Config.manager_shards = 2;
      memory_servers = 2 }
  in
  let sys = Samhita.System.create ~config ~threads:2 () in
  let ids =
    Array.map
      (fun sh -> Desim.Resource.id (Samhita.Manager_shard.service sh))
      (Samhita.Control_plane.shards (Samhita.System.control_plane sys))
  in
  Alcotest.(check int) "two shards" 2 (Array.length ids);
  Alcotest.(check bool) "shard service ids differ" true (ids.(0) <> ids.(1))

let test_schedule_after () =
  let e = Desim.Engine.create () in
  let log = ref [] in
  let mark tag () =
    log := (tag, Desim.Time.to_ns (Desim.Engine.now e)) :: !log
  in
  Desim.Engine.schedule_after e (ns 20) (mark "b");
  Desim.Engine.schedule_after e (ns 20) (mark "c");
  Desim.Engine.schedule_after e (-5) (mark "a");
  Desim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "a negative span counts as 0; equal instants keep insertion order"
    [ ("a", 0); ("b", 20); ("c", 20) ]
    (List.rev !log)

(* Minor words per operation inside one process, after a warm-up, so
   the count includes the engine's own work: the effect, its handler,
   the continuation and the resume event. *)
let words_per_op op =
  let e = Desim.Engine.create () in
  let words = ref Float.nan in
  Desim.Engine.spawn e (fun () ->
      op e;
      let n = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        op e
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Desim.Engine.run e;
  !words

(* A delay allocates its effect, its continuation and the resume thunk:
   9.00 words (OCaml 5.1, no flambda). It measured 21.00 while each
   perform built a handler closure, a [Some] box and an optional-delay
   box and each popped event a [Some (time, thunk)]. The 2-word slack
   absorbs runtime differences; any closure added to the path (4 words
   or more) fails this. *)
let test_delay_allocation () =
  let words = words_per_op (fun _ -> Desim.Engine.delay 5) in
  Alcotest.(check bool)
    (Printf.sprintf "delay allocates <= 11.0 words (%.2f)" words)
    true (words <= 11.0)

(* One suspend woken by a same-instant event. The register function and
   the waking event are built once, so the count is the engine's alone:
   the effect, the handler, the once-only wake and the resume event.
   Measured 25.00 words (OCaml 5.1, no flambda); 39.00 while [suspend]
   wrapped [register] in a closure and each popped event was boxed.
   Same 2-word slack. *)
let test_suspend_wake_allocation () =
  let waker = ref ignore in
  let register ~wake = waker := wake in
  let fire () = !waker () in
  let words =
    words_per_op (fun e ->
        Desim.Engine.schedule_after e 0 fire;
        Desim.Engine.suspend ~register)
  in
  Alcotest.(check bool)
    (Printf.sprintf "suspend + wake allocates <= 27.0 words (%.2f)" words)
    true (words <= 27.0)

let tests =
  [ Alcotest.test_case "schedule order" `Quick test_schedule_order;
    Alcotest.test_case "same-instant FIFO" `Quick test_same_instant_fifo;
    Alcotest.test_case "past scheduling rejected" `Quick
      test_schedule_past_rejected;
    Alcotest.test_case "process delay" `Quick test_process_delay;
    Alcotest.test_case "two processes interleave" `Quick
      test_two_processes_interleave;
    Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
    Alcotest.test_case "suspend value" `Quick test_suspend_value;
    Alcotest.test_case "double wake ignored" `Quick test_double_wake_ignored;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "yield" `Quick test_yield_lets_peers_run;
    Alcotest.test_case "shuffled engine deterministic" `Quick
      test_shuffle_engine_deterministic;
    Alcotest.test_case "stalled names blocked processes" `Quick
      test_stalled_names;
    Alcotest.test_case "run_until under quantum" `Quick test_run_until_quantum;
    Alcotest.test_case "resource serializes" `Quick test_resource_serializes;
    Alcotest.test_case "resource utilization" `Quick
      test_resource_utilization;
    Alcotest.test_case "resource negative duration" `Quick
      test_resource_negative_duration;
    Alcotest.test_case "resource ids per engine" `Quick
      test_resource_ids_per_engine;
    Alcotest.test_case "reserve hook per engine" `Quick
      test_reserve_hook_per_engine;
    Alcotest.test_case "shard services distinct" `Quick
      test_shard_services_distinct;
    Alcotest.test_case "schedule_after" `Quick test_schedule_after;
    Alcotest.test_case "delay allocation" `Quick test_delay_allocation;
    Alcotest.test_case "suspend + wake allocation" `Quick
      test_suspend_wake_allocation ]

let () = Alcotest.run "desim.engine" [ ("engine", tests) ]

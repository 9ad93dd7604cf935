(* Tests for the protocol-event stream: a recording probe sees the
   expected event kinds at plausible times with the right sync-object ids,
   probes compose in attach order, and a run with nothing attached emits
   nothing and times out the same. *)

module T = Samhita.Thread_ctx
module P = Samhita.Probe

type event = { time : Desim.Time.t; kind : string; id : int }

(* A probe that appends every event, tagged with its kind and the
   sync object it names (-1 for none), to [log], newest first. *)
let recorder log =
  let add time kind id = log := { time; kind; id } :: !log in
  { P.on_read = (fun ~thread:_ ~time ~addr:_ ~value:_ ->
        add time "read" (-1));
    on_write = (fun ~thread:_ ~time ~addr:_ ~region:_ ~value:_ ->
        add time "write" (-1));
    on_publish =
      (fun ~thread:_ ~time ~server:_ ~line:_ ~version:_ ~data:_ ->
         add time "publish" (-1));
    on_malloc = (fun ~thread:_ ~time ~addr:_ ~bytes:_ ->
        add time "malloc" (-1));
    on_free = (fun ~thread:_ ~time ~addr:_ ~bytes:_ -> add time "free" (-1));
    on_barrier = (fun ~thread:_ ~time ~barrier ~epoch:_ ~phase ->
        add time
          (match phase with `Arrive -> "arrive" | `Depart -> "depart")
          barrier);
    on_sync = (fun ~thread:_ ~time ~op ~id ->
        add time
          (match op with
           | P.Lock_attempt -> "attempt"
           | P.Lock_acquired -> "acquire"
           | P.Release -> "release"
           | P.Unlock -> "unlock"
           | P.Cond_signal -> "signal"
           | P.Cond_wake -> "wake")
          id);
    on_crash = (fun ~time ~node:_ ~server:_ -> add time "crash" (-1));
    on_recovery = (fun ~time ~failed:_ ~promoted:_ ~replayed:_ ->
        add time "recovery" (-1));
    on_takeover = (fun ~time ~dead:_ ~takeover:_ ~moved:_ ~redriven:_ ->
        add time "takeover" (-1)) }

(* Two threads: a barrier, ordinary writes, one lock hand-off, a second
   barrier, a read. Returns (lock, barrier, system). *)
let run ?probe () =
  let sys = Samhita.System.create ~threads:2 () in
  Option.iter (Samhita.System.add_probe sys) probe;
  let m = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:2 in
  let base = ref 0 in
  for tid = 0 to 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:64;
           T.barrier_wait t bar;
           T.write_f64 t (!base + (tid * 8)) 1.0;
           T.mutex_lock t m;
           T.write_f64 t (!base + 32) (float_of_int tid);
           T.mutex_unlock t m;
           T.barrier_wait t bar;
           ignore (T.read_f64 t (!base + 32) : float))
        : T.t)
  done;
  Samhita.System.run sys;
  (m, bar, sys)

let run_recorded () =
  let log = ref [] in
  let m, bar, sys = run ~probe:(recorder log) () in
  (List.rev !log, m, bar, sys)

let with_kind kind events = List.filter (fun e -> e.kind = kind) events

let rec monotone = function
  | a :: (b :: _ as rest) -> Desim.Time.(a.time <= b.time) && monotone rest
  | _ -> true

let sync_kinds =
  [ "attempt"; "acquire"; "release"; "unlock"; "arrive"; "depart" ]

let test_event_kinds () =
  let events, _, _, _ = run_recorded () in
  List.iter
    (fun kind ->
       Alcotest.(check bool) ("has " ^ kind) true
         (with_kind kind events <> []))
    ("read" :: "write" :: "publish" :: "malloc" :: sync_kinds)

let test_events_timestamped_monotone () =
  let events, _, _, sys = run_recorded () in
  Alcotest.(check bool) "events recorded" true (List.length events > 6);
  let wall = Samhita.System.elapsed sys in
  List.iter
    (fun e ->
       Alcotest.(check bool) "within run" true Desim.Time.(e.time <= wall))
    events;
  Alcotest.(check bool) "emission order respects time" true
    (monotone events)

let test_sync_events_carry_ids () =
  let events, lock, bar, _ = run_recorded () in
  (* The kernel touches exactly one lock and one barrier, so every sync
     event must name what System handed out. *)
  let check_all kind id n =
    let evs = with_kind kind events in
    Alcotest.(check int) (kind ^ " count") n (List.length evs);
    List.iter
      (fun e -> Alcotest.(check int) (kind ^ " names its object") id e.id)
      evs
  in
  (* One hand-off per thread; two barrier episodes of two threads. *)
  List.iter (fun k -> check_all k lock 2)
    [ "attempt"; "acquire"; "release"; "unlock" ];
  check_all "arrive" bar 4;
  check_all "depart" bar 4

let test_sync_events_monotone_per_tag () =
  let events, _, _, _ = run_recorded () in
  List.iter
    (fun kind ->
       Alcotest.(check bool) (kind ^ " timestamps monotone") true
         (monotone (with_kind kind events)))
    sync_kinds

let test_nothing_attached_silent () =
  let _, _, sys = run () in
  List.iter
    (fun ctx ->
       Alcotest.(check bool) "no observer in the thread env" true
         ((T.env ctx).T.probe = None))
    (Samhita.System.threads sys);
  (* Observing must not perturb: the recorded twin run times out the
     same. *)
  let _, _, _, recorded = run_recorded () in
  Alcotest.(check int) "same makespan with a recorder attached"
    (Desim.Time.to_ns (Samhita.System.elapsed sys))
    (Desim.Time.to_ns (Samhita.System.elapsed recorded))

let test_both_in_attach_order () =
  let order = ref [] in
  let tagged name =
    { P.nothing with
      on_sync = (fun ~thread:_ ~time:_ ~op:_ ~id:_ -> order := name :: !order);
      on_crash = (fun ~time:_ ~node:_ ~server:_ -> order := name :: !order) }
  in
  let p = P.both (tagged "a") (tagged "b") in
  p.P.on_sync ~thread:0 ~time:Desim.Time.zero ~op:P.Unlock ~id:1;
  p.P.on_crash ~time:Desim.Time.zero ~node:1 ~server:0;
  Alcotest.(check (list string)) "a then b, per event"
    [ "a"; "b"; "a"; "b" ] (List.rev !order);
  (* System.add_probe folds through [both]: the earlier subscriber hears
     each event first. *)
  order := [];
  let sys = Samhita.System.create ~threads:1 () in
  Samhita.System.add_probe sys (tagged "first");
  Samhita.System.add_probe sys (tagged "second");
  let m = Samhita.System.mutex sys in
  ignore
    (Samhita.System.spawn sys (fun t -> T.mutex_lock t m; T.mutex_unlock t m)
      : T.t);
  Samhita.System.run sys;
  (* attempt, acquired, release, unlock *)
  Alcotest.(check (list string)) "attach order per sync event"
    (List.concat (List.init 4 (fun _ -> [ "first"; "second" ])))
    (List.rev !order)

let tests =
  [ Alcotest.test_case "event kinds" `Quick test_event_kinds;
    Alcotest.test_case "timestamps monotone" `Quick
      test_events_timestamped_monotone;
    Alcotest.test_case "sync events carry ids" `Quick
      test_sync_events_carry_ids;
    Alcotest.test_case "sync timestamps monotone per tag" `Quick
      test_sync_events_monotone_per_tag;
    Alcotest.test_case "nothing attached silent" `Quick
      test_nothing_attached_silent;
    Alcotest.test_case "probes compose in attach order" `Quick
      test_both_in_attach_order ]

let () = Alcotest.run "samhita.tracing" [ ("tracing", tests) ]

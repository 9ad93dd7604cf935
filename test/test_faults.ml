(* Tests for the fabric fault-injection policy and the reliable-delivery
   retry loop it torments. *)

let t0 = Desim.Time.zero

let profile =
  { Fabric.Profile.name = "test";
    hop_latency = 100;
    bandwidth_bytes_per_s = 1e9;
    post_overhead = 50;
    switched = true;
    header_bytes = 0 }

let mk_net ?faults () =
  let e = Desim.Engine.create () in
  (e, Fabric.Network.create ?faults e ~profile ~node_count:4)

let test_level_of_string () =
  let lvl = Alcotest.testable
      (fun ppf l -> Format.pp_print_string ppf (Fabric.Faults.level_name l))
      ( = )
  in
  List.iter
    (fun (s, expect) ->
       Alcotest.(check (result lvl string)) s (Ok expect)
         (Fabric.Faults.level_of_string s))
    [ ("off", Fabric.Faults.Off); ("none", Fabric.Faults.Off);
      ("low", Fabric.Faults.Low); ("medium", Fabric.Faults.Medium);
      ("med", Fabric.Faults.Medium); ("high", Fabric.Faults.High) ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Fabric.Faults.level_of_string "chaotic"))

let test_off_is_inert () =
  let f = Fabric.Faults.create ~seed:1 ~level:Fabric.Faults.Off () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "never drops" false
      (Fabric.Faults.should_drop f ~src:0 ~dst:1)
  done;
  let a = Desim.Time.of_ns 500 in
  Alcotest.(check int) "perturb is identity" 500
    (Desim.Time.to_ns (Fabric.Faults.perturb f ~src:0 ~dst:1 ~arrival:a));
  Alcotest.(check int) "no counters" 0
    (Fabric.Faults.messages_delayed f + Fabric.Faults.messages_reordered f
     + Fabric.Faults.messages_dropped f)

let test_bounded_consecutive_drops () =
  (* High allows at most 3 consecutive drops per pair: with no delivery in
     between, a pair's drop budget never replenishes. *)
  let f = Fabric.Faults.create ~seed:7 ~level:Fabric.Faults.High () in
  let drops = ref 0 in
  for _ = 1 to 10_000 do
    if Fabric.Faults.should_drop f ~src:0 ~dst:1 then incr drops
  done;
  Alcotest.(check int) "budget exhausted at 3" 3 !drops;
  (* A delivery (perturb) resets the pair's budget. *)
  ignore (Fabric.Faults.perturb f ~src:0 ~dst:1 ~arrival:t0);
  let more = ref 0 in
  for _ = 1 to 10_000 do
    if Fabric.Faults.should_drop f ~src:0 ~dst:1 then incr more
  done;
  Alcotest.(check int) "budget replenished, re-capped" 3 !more;
  (* Other pairs have independent budgets. *)
  let other = ref 0 in
  for _ = 1 to 10_000 do
    if Fabric.Faults.should_drop f ~src:2 ~dst:3 then incr other
  done;
  Alcotest.(check int) "per-pair budget" 3 !other

let test_per_pair_monotonic () =
  (* Within one (src,dst) pair delivery order is preserved: perturbed
     arrivals are strictly increasing even when the nominal arrivals are
     identical (reorder-scale delays would otherwise leapfrog). *)
  let f = Fabric.Faults.create ~seed:42 ~level:Fabric.Faults.High () in
  let last = ref (-1) in
  for _ = 1 to 500 do
    let a =
      Desim.Time.to_ns
        (Fabric.Faults.perturb f ~src:1 ~dst:2 ~arrival:(Desim.Time.of_ns 1000))
    in
    Alcotest.(check bool) "monotonic within pair" true (a > !last);
    Alcotest.(check bool) "never early" true (a >= 1000);
    last := a
  done;
  Alcotest.(check bool) "jitter injected" true
    (Fabric.Faults.messages_delayed f > 0);
  Alcotest.(check bool) "reorder-scale delays injected" true
    (Fabric.Faults.messages_reordered f > 0)

let test_seed_determinism () =
  let run seed =
    let f = Fabric.Faults.create ~seed ~level:Fabric.Faults.High () in
    let out = ref [] in
    for i = 0 to 199 do
      let src = i mod 3 and dst = (i + 1) mod 3 in
      let d = Fabric.Faults.should_drop f ~src ~dst in
      let a =
        if d then -1
        else
          Desim.Time.to_ns
            (Fabric.Faults.perturb f ~src ~dst
               ~arrival:(Desim.Time.of_ns (100 * i)))
      in
      out := a :: !out
    done;
    ( !out,
      Fabric.Faults.messages_delayed f,
      Fabric.Faults.messages_reordered f,
      Fabric.Faults.messages_dropped f )
  in
  Alcotest.(check bool) "same seed, same stream" true (run 9 = run 9);
  Alcotest.(check bool) "different seed, different stream" true
    (run 9 <> run 10)

let test_reliable_transfer_no_faults () =
  (* Transfers mutate port-queue state, so compare on two fresh fabrics. *)
  let _, net1 = mk_net () in
  let _, net2 = mk_net () in
  Alcotest.(check int) "reduces to Network.transfer"
    (Desim.Time.to_ns (Fabric.Network.transfer net1 ~now:t0 ~src:0 ~dst:1
                         ~bytes:1000))
    (Desim.Time.to_ns (Fabric.Scl.reliable_transfer net2 ~now:t0 ~src:0 ~dst:1
                         ~bytes:1000))

let test_reliable_transfer_retries_through_drops () =
  let faults = Fabric.Faults.create ~seed:3 ~level:Fabric.Faults.High () in
  let _, net = mk_net ~faults () in
  let base = Fabric.Network.one_way_estimate net ~bytes:256 in
  for i = 0 to 199 do
    let now = Desim.Time.of_ns (i * 10_000) in
    let a = Fabric.Scl.reliable_transfer net ~now ~src:0 ~dst:1 ~bytes:256 in
    Alcotest.(check bool) "arrives, never before the uncontended time" true
      (Desim.Time.to_ns a >= Desim.Time.to_ns now + base)
  done;
  (* Every drop costs exactly one retransmission here (only this loop is
     sending), and at High some of 200 sends are dropped. *)
  Alcotest.(check bool) "drops happened" true
    (Fabric.Faults.messages_dropped faults > 0);
  Alcotest.(check int) "one retry per drop"
    (Fabric.Faults.messages_dropped faults)
    (Fabric.Faults.messages_retried faults)

let test_retry_timeout_backoff () =
  let _, net = mk_net () in
  let t k = Fabric.Scl.retry_timeout net ~bytes:256 ~attempt:k in
  Alcotest.(check int) "doubles per attempt" (2 * t 0) (t 1);
  Alcotest.(check int) "keeps doubling" (4 * t 0) (t 2);
  Alcotest.(check int) "backoff capped" (t 4) (t 5);
  Alcotest.(check int) "cap is 16x" (16 * t 0) (t 9)

let test_backoff_cap_boundary () =
  (* Pin the cap itself: the last growing attempt is max_backoff_shift = 4;
     every attempt past it pays exactly the same (capped) timeout, however
     large the attempt counter grows. *)
  Alcotest.(check int) "max_backoff_shift is pinned" 4
    Fabric.Scl.max_backoff_shift;
  let _, net = mk_net () in
  let t k = Fabric.Scl.retry_timeout net ~bytes:512 ~attempt:k in
  Alcotest.(check int) "attempt 3 still below cap" (8 * t 0) (t 3);
  Alcotest.(check int) "attempt 4 reaches the cap" (16 * t 0) (t 4);
  Alcotest.(check int) "attempt 5 stays at the cap" (t 4) (t 5);
  Alcotest.(check int) "attempt 100 stays at the cap" (t 4) (t 100);
  Alcotest.(check int) "attempt max_int stays at the cap" (t 4) (t max_int)

(* ---------------- fail-stop crash escalation ---------------- *)

let test_crash_deadness_is_time_based () =
  let since = Desim.Time.of_ns 10_000 in
  let f =
    Fabric.Faults.create
      ~injection:(Crash { node = 2; at = since })
      ~seed:1 ~level:Fabric.Faults.Off ()
  in
  Alcotest.(check bool) "alive before the crash instant" false
    (Fabric.Faults.node_dead f ~node:2 ~at:(Desim.Time.of_ns 9_999));
  Alcotest.(check bool) "dead at the crash instant" true
    (Fabric.Faults.node_dead f ~node:2 ~at:since);
  Alcotest.(check bool) "dead forever after" true
    (Fabric.Faults.node_dead f ~node:2 ~at:(Desim.Time.of_ns 1_000_000));
  Alcotest.(check bool) "other nodes unaffected" false
    (Fabric.Faults.node_dead f ~node:1 ~at:(Desim.Time.of_ns 1_000_000))

let test_dead_dst_escalates_after_budget () =
  (* A send to a crashed destination is swallowed (it occupies the wire:
     the sender cannot know) and retried; after exactly
     [dead_retry_budget] retransmissions — each counted once by
     [note_retry] — the sender gives up with [Node_dead]. *)
  let faults =
    Fabric.Faults.create
      ~injection:(Crash { node = 1; at = t0 })
      ~seed:5 ~level:Fabric.Faults.Off ()
  in
  let _, net = mk_net ~faults () in
  let raised =
    try
      ignore
        (Fabric.Scl.reliable_transfer net ~now:t0 ~src:0 ~dst:1 ~bytes:256
         : Desim.Time.t);
      None
    with Fabric.Scl.Node_dead (n, at) -> Some (n, at)
  in
  (match raised with
   | None -> Alcotest.fail "expected Node_dead"
   | Some (n, at) ->
     Alcotest.(check int) "names the dead node" 1 n;
     (* The give-up instant is the send instant of the final attempt: the
        sum of the timeouts of attempts 0 .. budget-1, each offset by the
        per-(src,dst,attempt) backoff jitter. *)
     let expect =
       let acc = ref 0 in
       for k = 0 to Fabric.Scl.dead_retry_budget - 1 do
         acc :=
           !acc
           + Fabric.Scl.retry_timeout net ~bytes:256 ~attempt:k
           + Fabric.Faults.retry_jitter faults ~src:0 ~dst:1 ~attempt:k
       done;
       !acc
     in
     Alcotest.(check int) "give-up instant = sum of paid timeouts" expect
       (Desim.Time.to_ns at));
  Alcotest.(check int) "one note_retry per retransmission, exactly"
    Fabric.Scl.dead_retry_budget
    (Fabric.Faults.messages_retried faults);
  (* budget + 1 transmissions entered the fabric and were swallowed. *)
  Alcotest.(check int) "every transmission swallowed and counted"
    (Fabric.Scl.dead_retry_budget + 1)
    (Fabric.Faults.messages_dead faults)

let test_dead_src_sends_nothing () =
  (* A dead source cannot transmit: nothing enters the fabric (no
     dead-send counted), but the caller still pays the retry schedule
     before concluding the peer — itself — is gone. *)
  let faults =
    Fabric.Faults.create
      ~injection:(Crash { node = 0; at = t0 })
      ~seed:5 ~level:Fabric.Faults.Off ()
  in
  let _, net = mk_net ~faults () in
  Alcotest.check_raises "escalates" (Failure "Node_dead") (fun () ->
      try
        ignore
          (Fabric.Scl.reliable_transfer net ~now:t0 ~src:0 ~dst:1 ~bytes:64
           : Desim.Time.t)
      with Fabric.Scl.Node_dead (0, _) -> failwith "Node_dead");
  Alcotest.(check int) "nothing entered the fabric" 0
    (Fabric.Faults.messages_dead faults)

let test_delivery_before_crash_instant () =
  (* Sends completing before the crash instant behave normally. *)
  let faults =
    Fabric.Faults.create
      ~injection:(Crash { node = 1; at = Desim.Time.of_ns 1_000_000 })
      ~seed:5 ~level:Fabric.Faults.Off ()
  in
  let _, net1 = mk_net ~faults () in
  let _, net2 = mk_net () in
  Alcotest.(check int) "pre-crash send is undisturbed"
    (Desim.Time.to_ns (Fabric.Network.transfer net2 ~now:t0 ~src:0 ~dst:1
                         ~bytes:1000))
    (Desim.Time.to_ns (Fabric.Scl.reliable_transfer net1 ~now:t0 ~src:0
                         ~dst:1 ~bytes:1000))

(* Every way a message can be lost charges its sender exactly once: the
   network counts one message and its bytes, the injection port gains one
   transfer and the receive port none. A dead source transmits nothing,
   so nothing moves. *)
let test_loss_charges_sender_once () =
  let bytes = 256 in
  let counters net =
    ( Fabric.Network.messages net,
      Fabric.Network.bytes_carried net,
      Fabric.Link.transfers (Fabric.Network.tx_link net 0),
      Fabric.Link.transfers (Fabric.Network.rx_link net 1) )
  in
  let send net = Fabric.Network.try_transfer net ~now:t0 ~src:0 ~dst:1 ~bytes in
  let moved (m0, b0, tx0, rx0) (m1, b1, tx1, rx1) =
    [ m1 - m0; b1 - b0; tx1 - tx0; rx1 - rx0 ]
  in
  let charged_once name before after =
    Alcotest.(check (list int)) (name ^ ": messages, bytes, tx, rx")
      [ 1; bytes; 1; 0 ] (moved before after)
  in
  let injected injection =
    snd (mk_net ~faults:(Fabric.Faults.create ~injection ~seed:3
                           ~level:Fabric.Faults.Off ()) ())
  in
  let net = injected (Crash { node = 1; at = t0 }) in
  let before = counters net in
  (match send net with
   | `Node_dead 1 -> charged_once "dead destination" before (counters net)
   | _ -> Alcotest.fail "dead destination: expected Node_dead 1");
  let net =
    injected
      (Partition
         { victim = 1; peers = []; start = t0; heal = Desim.Time.of_ns 1_000_000 })
  in
  let before = counters net in
  (match send net with
   | `Unreachable 1 -> charged_once "partition" before (counters net)
   | _ -> Alcotest.fail "partition: expected Unreachable 1");
  let _, net =
    mk_net ~faults:(Fabric.Faults.create ~seed:3 ~level:Fabric.Faults.High ())
      ()
  in
  let rec until_dropped attempts =
    if attempts = 0 then Alcotest.fail "drop: no send was dropped";
    let before = counters net in
    match send net with
    | `Dropped -> charged_once "drop" before (counters net)
    | `Delivered _ -> until_dropped (attempts - 1)
    | _ -> Alcotest.fail "drop: unexpected loss"
  in
  until_dropped 10_000;
  let net = injected (Crash { node = 0; at = t0 }) in
  let before = counters net in
  (match send net with
   | `Node_dead 0 ->
     Alcotest.(check (list int)) "dead source: nothing moves" [ 0; 0; 0; 0 ]
       (moved before (counters net))
   | _ -> Alcotest.fail "dead source: expected Node_dead 0")

let tests =
  [ Alcotest.test_case "level_of_string" `Quick test_level_of_string;
    Alcotest.test_case "off is inert" `Quick test_off_is_inert;
    Alcotest.test_case "bounded consecutive drops" `Quick
      test_bounded_consecutive_drops;
    Alcotest.test_case "per-pair monotonic delivery" `Quick
      test_per_pair_monotonic;
    Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
    Alcotest.test_case "reliable_transfer without faults" `Quick
      test_reliable_transfer_no_faults;
    Alcotest.test_case "reliable_transfer retries through drops" `Quick
      test_reliable_transfer_retries_through_drops;
    Alcotest.test_case "retry timeout backoff" `Quick
      test_retry_timeout_backoff;
    Alcotest.test_case "backoff cap boundary" `Quick
      test_backoff_cap_boundary;
    Alcotest.test_case "crash deadness is time-based" `Quick
      test_crash_deadness_is_time_based;
    Alcotest.test_case "dead dst escalates after budget" `Quick
      test_dead_dst_escalates_after_budget;
    Alcotest.test_case "dead src sends nothing" `Quick
      test_dead_src_sends_nothing;
    Alcotest.test_case "delivery before crash instant" `Quick
      test_delivery_before_crash_instant;
    Alcotest.test_case "every loss charges the sender once" `Quick
      test_loss_charges_sender_once ]

let () = Alcotest.run "fabric.faults" [ ("faults", tests) ]

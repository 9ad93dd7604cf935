(* Tests for links, the network model and the SCL layer. *)

let ns = Desim.Time.ns
let t0 = Desim.Time.zero

let mk_link ?(latency = ns 100) ?(bw = 1e9) () =
  (* 1 GB/s = 1 byte/ns: convenient arithmetic. *)
  Fabric.Link.create ~latency ~bandwidth_bytes_per_s:bw ()

(* ---------------- Link ---------------- *)

let test_link_basic_timing () =
  let l = mk_link () in
  (* 1000 bytes at 1 B/ns = 1000 ns serialization + 100 ns latency. *)
  let arrival = Fabric.Link.occupy l ~now:t0 ~bytes:1000 in
  Alcotest.(check int) "ser + latency" 1100 (Desim.Time.to_ns arrival)

let test_link_queueing () =
  let l = mk_link () in
  ignore (Fabric.Link.occupy l ~now:t0 ~bytes:1000);
  (* Second transfer at t=0 must wait for the wire: 2000 + 100. *)
  let a2 = Fabric.Link.occupy l ~now:t0 ~bytes:1000 in
  Alcotest.(check int) "second queues" 2100 (Desim.Time.to_ns a2);
  (* Much later transfer starts immediately. *)
  let a3 = Fabric.Link.occupy l ~now:(Desim.Time.of_ns 10_000) ~bytes:10 in
  Alcotest.(check int) "idle start" 10_110 (Desim.Time.to_ns a3)

let test_link_stats () =
  let l = mk_link () in
  ignore (Fabric.Link.occupy l ~now:t0 ~bytes:500);
  ignore (Fabric.Link.occupy l ~now:t0 ~bytes:300);
  Alcotest.(check int) "bytes" 800 (Fabric.Link.bytes_carried l);
  Alcotest.(check int) "transfers" 2 (Fabric.Link.transfers l);
  Alcotest.(check int) "busy" 800 (Fabric.Link.busy_time l)

let test_link_invalid_bw () =
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Link.create: bandwidth must be positive") (fun () ->
      ignore (Fabric.Link.create ~latency:0 ~bandwidth_bytes_per_s:0. ()))

(* ---------------- Network ---------------- *)

let profile_1b_per_ns =
  { Fabric.Profile.name = "test";
    hop_latency = ns 100;
    bandwidth_bytes_per_s = 1e9;
    post_overhead = ns 50;
    switched = true;
    header_bytes = 0 }

let mk_net ?(profile = profile_1b_per_ns) ?(nodes = 4) () =
  let e = Desim.Engine.create () in
  (e, Fabric.Network.create e ~profile ~node_count:nodes)

let test_network_transfer_switched () =
  let _, net = mk_net () in
  (* post 50 + tx ser 1000 + tx lat 100 + rx ser 1000 + rx lat 100. *)
  let a = Fabric.Network.transfer net ~now:t0 ~src:0 ~dst:1 ~bytes:1000 in
  Alcotest.(check int) "switched path" 2250 (Desim.Time.to_ns a)

let test_network_estimate_matches_uncontended () =
  let _, net = mk_net () in
  let est = Fabric.Network.one_way_estimate net ~bytes:1000 in
  let a = Fabric.Network.transfer net ~now:t0 ~src:0 ~dst:1 ~bytes:1000 in
  Alcotest.(check int) "estimate = uncontended transfer" est
    (Desim.Time.to_ns a)

let test_network_direct_profile () =
  let profile = { profile_1b_per_ns with switched = false } in
  let _, net = mk_net ~profile () in
  let est = Fabric.Network.one_way_estimate net ~bytes:1000 in
  let a = Fabric.Network.transfer net ~now:t0 ~src:0 ~dst:1 ~bytes:1000 in
  Alcotest.(check int) "direct estimate consistent" est (Desim.Time.to_ns a);
  (* One hop of latency instead of two. *)
  Alcotest.(check int) "one hop" 2150 (Desim.Time.to_ns a)

let test_network_loopback () =
  let _, net = mk_net () in
  let a = Fabric.Network.transfer net ~now:t0 ~src:2 ~dst:2 ~bytes:20_000 in
  (* post 50 + memcpy 20 KB at 20 GB/s = 1000 ns. *)
  Alcotest.(check int) "loopback memcpy" 1050 (Desim.Time.to_ns a);
  Alcotest.(check int) "no fabric bytes on links" 0
    (Fabric.Link.bytes_carried (Fabric.Network.tx_link net 2))

let test_network_contention_at_receiver () =
  let _, net = mk_net () in
  (* Two senders to the same destination at t=0: the second serializes on
     the receiver's delivery port. *)
  let a1 = Fabric.Network.transfer net ~now:t0 ~src:0 ~dst:2 ~bytes:1000 in
  let a2 = Fabric.Network.transfer net ~now:t0 ~src:1 ~dst:2 ~bytes:1000 in
  Alcotest.(check int) "first" 2250 (Desim.Time.to_ns a1);
  Alcotest.(check bool) "second delayed by rx port" true
    (Desim.Time.to_ns a2 >= 3150)

let test_network_bad_node () =
  let _, net = mk_net () in
  Alcotest.check_raises "bad node" (Invalid_argument "Network: bad node id")
    (fun () ->
       ignore (Fabric.Network.transfer net ~now:t0 ~src:0 ~dst:9 ~bytes:1))

let test_network_counters () =
  let _, net = mk_net () in
  ignore (Fabric.Network.transfer net ~now:t0 ~src:0 ~dst:1 ~bytes:10);
  ignore (Fabric.Network.transfer net ~now:t0 ~src:1 ~dst:0 ~bytes:20);
  Alcotest.(check int) "messages" 2 (Fabric.Network.messages net);
  Alcotest.(check int) "bytes" 30 (Fabric.Network.bytes_carried net)

(* ---------------- SCL ---------------- *)

let test_scl_node_accessors () =
  let _, net = mk_net () in
  let ep = Fabric.Scl.endpoint net 3 in
  Alcotest.(check int) "node" 3 (Fabric.Scl.node ep);
  Alcotest.(check bool) "network" true (Fabric.Scl.network ep == net)

(* ---------------- Profiles ---------------- *)

let test_profiles_sane () =
  let open Fabric.Profile in
  Alcotest.(check bool) "ib switched" true ib_qdr_verbs.switched;
  Alcotest.(check bool) "scif direct" false pcie_scif.switched;
  Alcotest.(check bool) "scif faster bw" true
    (pcie_scif.bandwidth_bytes_per_s > ib_qdr_verbs.bandwidth_bytes_per_s);
  Alcotest.(check bool) "scif lower post" true
    (pcie_scif.post_overhead < ib_qdr_verbs.post_overhead);
  (* A page-sized message is cheaper over SCIF. *)
  let e = Desim.Engine.create () in
  let ib = Fabric.Network.create e ~profile:ib_qdr_verbs ~node_count:2 in
  let scif = Fabric.Network.create e ~profile:pcie_scif ~node_count:2 in
  Alcotest.(check bool) "scif cheaper" true
    (Fabric.Network.one_way_estimate scif ~bytes:4096
     < Fabric.Network.one_way_estimate ib ~bytes:4096)

let prop_transfer_monotone_in_size =
  QCheck.Test.make ~name:"transfer time is monotone in message size"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (b1, b2) ->
       let _, net = mk_net () in
       let small = min b1 b2 and big = max b1 b2 in
       Fabric.Network.one_way_estimate net ~bytes:small
       <= Fabric.Network.one_way_estimate net ~bytes:big)

(* Message sizes for the rounding sweep: zero, every size up to two
   KiB, then powers of two and line-sized messages with framing. *)
let byte_sweep =
  List.init 2049 Fun.id
  @ List.init 20 (fun i -> 1 lsl (i + 11))
  @ List.map (fun b -> b + 64) [ 4096; 16384; 65536 ]

(* Link serialization and the loopback copy both convert through
   [Desim.Time.span_of_rate]; it must round exactly as the float
   formula it replaced, for every profile's bandwidth and for the
   loopback copy's 20 GB/s. *)
let test_span_of_rate_matches_formula () =
  let rates =
    [ ("ib_qdr_verbs", Fabric.Profile.ib_qdr_verbs.bandwidth_bytes_per_s);
      ("pcie_scif", Fabric.Profile.pcie_scif.bandwidth_bytes_per_s);
      ("loopback", 20.0e9) ]
  in
  List.iter
    (fun (name, bytes_per_s) ->
       List.iter
         (fun bytes ->
            Alcotest.(check int)
              (Printf.sprintf "%s, %d bytes" name bytes)
              (Desim.Time.span_of_float_ns
                 (float_of_int bytes /. bytes_per_s *. 1e9))
              (Desim.Time.span_of_rate ~bytes ~bytes_per_s))
         byte_sweep)
    rates

(* A fault-free transfer books two links and allocates nothing: no
   float crosses a module boundary boxed. Each conversion boxed 2 words
   (4 per transfer) while the links computed the float themselves. *)
let test_transfer_allocation () =
  let _, net = mk_net () in
  let now = ref Desim.Time.zero in
  let send () =
    now := Fabric.Network.transfer net ~now:!now ~src:0 ~dst:1 ~bytes:4096
  in
  send ();
  let n = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    send ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "transfer allocates nothing (%.2f words)" words)
    true (words < 0.01)

let tests =
  [ Alcotest.test_case "link timing" `Quick test_link_basic_timing;
    Alcotest.test_case "link queueing" `Quick test_link_queueing;
    Alcotest.test_case "link stats" `Quick test_link_stats;
    Alcotest.test_case "link invalid bandwidth" `Quick test_link_invalid_bw;
    Alcotest.test_case "switched transfer" `Quick
      test_network_transfer_switched;
    Alcotest.test_case "estimate matches transfer" `Quick
      test_network_estimate_matches_uncontended;
    Alcotest.test_case "direct profile" `Quick test_network_direct_profile;
    Alcotest.test_case "loopback" `Quick test_network_loopback;
    Alcotest.test_case "receiver contention" `Quick
      test_network_contention_at_receiver;
    Alcotest.test_case "bad node" `Quick test_network_bad_node;
    Alcotest.test_case "counters" `Quick test_network_counters;
    Alcotest.test_case "scl endpoints" `Quick test_scl_node_accessors;
    Alcotest.test_case "profiles sane" `Quick test_profiles_sane;
    Alcotest.test_case "span_of_rate matches the float formula" `Quick
      test_span_of_rate_matches_formula;
    Alcotest.test_case "transfer allocation" `Quick test_transfer_allocation;
    QCheck_alcotest.to_alcotest prop_transfer_monotone_in_size ]

let () = Alcotest.run "fabric" [ ("fabric", tests) ]

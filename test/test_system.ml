(* Tests for system assembly (node layout, configuration plumbing) and the
   pretty-printers of public records. *)

module T = Samhita.Thread_ctx

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- node layout ---------------- *)

let node_count ~config ~threads =
  let sys = Samhita.System.create ~config ~threads () in
  Fabric.Network.node_count (Samhita.System.network sys)

let test_node_layout () =
  let cfg = Samhita.Config.default in
  (* 1 manager + 1 server + ceil(threads/8) compute nodes. *)
  Alcotest.(check int) "8 threads -> 3 nodes" 3
    (node_count ~config:cfg ~threads:8);
  Alcotest.(check int) "9 threads -> 4 nodes" 4
    (node_count ~config:cfg ~threads:9);
  Alcotest.(check int) "32 threads -> 6 nodes" 6
    (node_count ~config:cfg ~threads:32);
  Alcotest.(check int) "3 servers add nodes" 5
    (node_count ~config:{ cfg with memory_servers = 3 } ~threads:8);
  Alcotest.(check int) "2 threads/node packs differently" 6
    (node_count ~config:{ cfg with threads_per_node = 2 } ~threads:8);
  (* Sharded: 0 = shard 0, 1..3 = servers, 4..5 = compute nodes, then
     shards 1..3 on trailing nodes. Every peer reports the node of that
     layout, and failover's lookup maps each node back to its peer. *)
  let servers = 3 and shards = 4 and threads = 9 in
  let sys =
    Samhita.System.create
      ~config:{ cfg with memory_servers = servers; manager_shards = shards }
      ~threads ()
  in
  let compute_nodes = 2 in
  Alcotest.(check int) "sharded node count"
    (1 + servers + compute_nodes + (shards - 1))
    (Fabric.Network.node_count (Samhita.System.network sys));
  let cp = Samhita.System.control_plane sys in
  let peer =
    Samhita.Control_plane.peer_of_node cp ~servers:(Samhita.System.servers sys)
  in
  Array.iteri
    (fun i srv ->
       let node = Samhita.Memory_server.node srv in
       Alcotest.(check int) (Printf.sprintf "server %d node" i) (1 + i) node;
       Alcotest.(check bool) (Printf.sprintf "node %d is server %d" node i)
         true (peer node = Some (Samhita.Control_plane.Server i)))
    (Samhita.System.servers sys);
  for s = 0 to shards - 1 do
    let node =
      Samhita.Manager_shard.node (Samhita.Control_plane.shard cp s)
    in
    let expected = if s = 0 then 0 else 1 + servers + compute_nodes + (s - 1) in
    Alcotest.(check int) (Printf.sprintf "shard %d node" s) expected node;
    Alcotest.(check bool) (Printf.sprintf "node %d is shard %d" node s) true
      (peer node = Some (Samhita.Control_plane.Shard s))
  done;
  for node = 1 + servers to servers + compute_nodes do
    Alcotest.(check bool) (Printf.sprintf "compute node %d hosts no peer" node)
      true (peer node = None)
  done

let test_invalid_system () =
  Alcotest.(check bool) "zero threads rejected" true
    (match Samhita.System.create ~threads:0 () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "invalid config rejected" true
    (match
       Samhita.System.create
         ~config:{ Samhita.Config.default with page_bytes = 3000 }
         ~threads:1 ()
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_thread_limit () =
  (* Sharer/writer sets are bitsets, not 63-bit masks. The cap itself is
     fine; one more is rejected up front with a message that names both
     the request and the limit. *)
  let cap = Samhita.Config.max_threads in
  ignore (Samhita.System.create ~threads:cap () : Samhita.System.t);
  match Samhita.System.create ~threads:(cap + 1) () with
  | exception Invalid_argument msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "message names the limit" true
      (contains msg (string_of_int cap));
    Alcotest.(check bool) "message names the request" true
      (contains msg (string_of_int (cap + 1)))
  | _ -> Alcotest.fail "threads above max_threads must be rejected"

let test_threads_listed_in_order () =
  let sys = Samhita.System.create ~threads:4 () in
  for _ = 1 to 4 do
    ignore (Samhita.System.spawn sys (fun _ -> ()) : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check (list int)) "id order" [ 0; 1; 2; 3 ]
    (List.map T.id (Samhita.System.threads sys))

let test_manager_bypass_layout () =
  (* With bypass, the manager shard sits on the first compute node, so
     synchronization messages are loopbacks. *)
  let sys =
    Samhita.System.create
      ~config:{ Samhita.Config.default with manager_bypass = true }
      ~threads:4 ()
  in
  let mgr_node = Samhita.Manager_shard.node (Samhita.System.manager sys) in
  (* node 0 = (unused) manager slot, 1 = server, 2 = first compute node *)
  Alcotest.(check int) "manager co-located with compute" 2 mgr_node

(* ---------------- pretty-printers ---------------- *)

let test_config_pp () =
  let s = Format.asprintf "%a" Samhita.Config.pp Samhita.Config.default in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("config pp has " ^ needle) true
         (contains s needle))
    [ "model=regc"; "page=4096B"; "ib-qdr-verbs"; "history=64" ];
  let sc =
    Format.asprintf "%a" Samhita.Config.pp
      { Samhita.Config.default with model = Samhita.Config.Sc_invalidate }
  in
  Alcotest.(check bool) "sc model named" true (contains sc "sc-invalidate")

let test_layout_pp () =
  let layout = Samhita.Layout.of_config Samhita.Config.default in
  let s = Format.asprintf "%a" Samhita.Layout.pp layout in
  Alcotest.(check bool) "layout pp" true (contains s "16384")

let test_profile_pp () =
  let s =
    Format.asprintf "%a" Fabric.Profile.pp Fabric.Profile.ib_qdr_verbs
  in
  Alcotest.(check bool) "profile pp" true
    (contains s "ib-qdr-verbs" && contains s "switched")

let test_metrics_pp () =
  let sys = Samhita.System.create ~threads:1 () in
  ignore
    (Samhita.System.spawn sys (fun t ->
         let a = T.malloc t ~bytes:8 in
         T.write_f64 t a 1.0)
      : T.t);
  Samhita.System.run sys;
  let ctx = List.hd (Samhita.System.threads sys) in
  let s =
    Format.asprintf "%a" Samhita.Metrics.pp_thread
      (Samhita.Metrics.of_ctx ctx)
  in
  Alcotest.(check bool) "thread metrics pp" true
    (contains s "t0:" && contains s "misses");
  let agg =
    Format.asprintf "%a" Samhita.Metrics.pp_aggregate
      (Samhita.Metrics.of_system sys)
  in
  Alcotest.(check bool) "aggregate pp" true (contains agg "1 threads")

let test_aggregate_empty_rejected () =
  Alcotest.check_raises "no threads"
    (Invalid_argument "Metrics.aggregate: no threads") (fun () ->
      ignore (Samhita.Metrics.aggregate ~wall_ns:0 []))

(* ---------------- backend odds and ends ---------------- *)

let test_backend_names () =
  let module S = (val Workload.Samhita_backend.default) in
  let module P = (val Workload.Smp_backend.default) in
  Alcotest.(check string) "samhita name" "samhita" S.name;
  Alcotest.(check string) "pthreads name" "pthreads" P.name

let test_mode_names () =
  Alcotest.(check string) "local" "local"
    (Workload.Microbench.mode_name Workload.Microbench.Local);
  Alcotest.(check string) "strided" "strided"
    (Workload.Microbench.mode_name Workload.Microbench.Global_strided)

let tests =
  [ Alcotest.test_case "node layout" `Quick test_node_layout;
    Alcotest.test_case "invalid system" `Quick test_invalid_system;
    Alcotest.test_case "thread limit" `Quick test_thread_limit;
    Alcotest.test_case "threads in id order" `Quick
      test_threads_listed_in_order;
    Alcotest.test_case "manager bypass layout" `Quick
      test_manager_bypass_layout;
    Alcotest.test_case "config pp" `Quick test_config_pp;
    Alcotest.test_case "layout pp" `Quick test_layout_pp;
    Alcotest.test_case "profile pp" `Quick test_profile_pp;
    Alcotest.test_case "metrics pp" `Quick test_metrics_pp;
    Alcotest.test_case "empty aggregate" `Quick
      test_aggregate_empty_rejected;
    Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "mode names" `Quick test_mode_names ]

let () = Alcotest.run "samhita.system" [ ("system+pp", tests) ]

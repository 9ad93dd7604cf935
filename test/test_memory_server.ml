(* Tests for the memory-server backing store. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes

let mk_server () =
  let e = Desim.Engine.create () in
  let net =
    Fabric.Network.create e ~profile:cfg.Samhita.Config.fabric ~node_count:2
  in
  Samhita.Memory_server.create cfg layout ~id:0
    ~endpoint:(Fabric.Scl.endpoint net 1)

let test_demand_zero () =
  let s = mk_server () in
  Alcotest.(check int) "empty store" 0 (Samhita.Memory_server.lines_resident s);
  let data, version = Samhita.Memory_server.fetch s 42 in
  Alcotest.(check int) "version 0" 0 version;
  Alcotest.(check bytes) "zero filled" (Bytes.make lb '\000') data;
  Alcotest.(check int) "materialized" 1
    (Samhita.Memory_server.lines_resident s);
  Alcotest.(check int) "fetch counted" 1 (Samhita.Memory_server.fetches s)

let test_fetch_returns_copy () =
  let s = mk_server () in
  let data, _ = Samhita.Memory_server.fetch s 0 in
  Bytes.set data 0 'x';
  let data2, _ = Samhita.Memory_server.fetch s 0 in
  Alcotest.(check char) "store unaffected by caller mutation" '\000'
    (Bytes.get data2 0)

let test_apply_diff_bumps_version () =
  let s = mk_server () in
  let twin = Bytes.make lb '\000' in
  let current = Bytes.copy twin in
  Bytes.set current 5 'q';
  let d = Samhita.Diff.make layout ~line:3 ~twin ~current ~dirty_pages:1 in
  let v1 = Samhita.Memory_server.apply_diff s d in
  Alcotest.(check int) "version 1" 1 v1;
  let v2 = Samhita.Memory_server.apply_diff s d in
  Alcotest.(check int) "version 2" 2 v2;
  Alcotest.(check int) "tracked" 2 (Samhita.Memory_server.version s 3);
  let data, v = Samhita.Memory_server.fetch s 3 in
  Alcotest.(check char) "content merged" 'q' (Bytes.get data 5);
  Alcotest.(check int) "fetch sees version" 2 v

let test_apply_update () =
  let s = mk_server () in
  let u = Samhita.Update.of_i64 ~addr:((2 * lb) + 8) 77L in
  Alcotest.(check (pair int int)) "line 2 bumped" (2, 1)
    (Samhita.Memory_server.apply_update s u);
  let data, _ = Samhita.Memory_server.fetch s 2 in
  Alcotest.(check int64) "written" 77L (Bytes.get_int64_le data 8)

let test_service_time_scales () =
  let s = mk_server () in
  let base = Samhita.Memory_server.service_time_for_bytes s 0 in
  let big = Samhita.Memory_server.service_time_for_bytes s 100_000 in
  Alcotest.(check int) "base is server_service"
    (cfg.Samhita.Config.server_service) base;
  Alcotest.(check bool) "grows with payload" true (big > base)

let test_counters () =
  let s = mk_server () in
  ignore (Samhita.Memory_server.fetch s 0);
  let twin = Bytes.make lb '\000' in
  let current = Bytes.copy twin in
  Bytes.set current 0 'x';
  ignore
    (Samhita.Memory_server.apply_diff s
       (Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1));
  ignore (Samhita.Memory_server.apply_update s (Samhita.Update.of_i64 ~addr:0 1L));
  Alcotest.(check int) "fetches" 1 (Samhita.Memory_server.fetches s);
  Alcotest.(check int) "diffs" 1 (Samhita.Memory_server.diffs_applied s);
  Alcotest.(check int) "updates" 1 (Samhita.Memory_server.updates_applied s)

let tests =
  [ Alcotest.test_case "demand zero" `Quick test_demand_zero;
    Alcotest.test_case "fetch returns copy" `Quick test_fetch_returns_copy;
    Alcotest.test_case "diff bumps version" `Quick
      test_apply_diff_bumps_version;
    Alcotest.test_case "apply update" `Quick test_apply_update;
    Alcotest.test_case "service time" `Quick test_service_time_scales;
    Alcotest.test_case "counters" `Quick test_counters ]

let () = Alcotest.run "samhita.memory_server" [ ("memory-server", tests) ]

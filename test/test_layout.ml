(* Tests for Config validation and Layout address arithmetic. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg

let test_default_valid () =
  Alcotest.(check bool) "default validates" true
    (Samhita.Config.validate cfg = Ok ())

let expect_invalid name cfg =
  match Samhita.Config.validate cfg with
  | Ok () -> Alcotest.failf "%s: expected a validation error" name
  | Error _ -> ()

let test_validation_errors () =
  expect_invalid "page not pow2" { cfg with page_bytes = 3000 };
  expect_invalid "pages_per_line not pow2" { cfg with pages_per_line = 3 };
  expect_invalid "pages_per_line too big" { cfg with pages_per_line = 64 };
  expect_invalid "cache too small" { cfg with cache_lines = 1 };
  expect_invalid "thresholds inverted"
    { cfg with large_threshold = cfg.small_threshold - 8 };
  expect_invalid "arena not line multiple"
    { cfg with arena_chunk_bytes = cfg.small_threshold + 1 };
  expect_invalid "no servers" { cfg with memory_servers = 0 };
  expect_invalid "no threads per node" { cfg with threads_per_node = 0 };
  expect_invalid "negative cost" { cfg with t_mem = -1.0 };
  expect_invalid "stripe" { cfg with stripe_lines = 0 };
  expect_invalid "history negative" { cfg with update_log_history = -1 }

let test_line_geometry () =
  Alcotest.(check int) "line bytes" (4096 * 4) (Samhita.Config.line_bytes cfg);
  Alcotest.(check int) "line shift" 14 (Samhita.Config.line_shift cfg);
  Alcotest.(check int) "layout agrees" (Samhita.Config.line_bytes cfg)
    layout.Samhita.Layout.line_bytes

let test_addr_math () =
  let lb = layout.Samhita.Layout.line_bytes in
  Alcotest.(check int) "line of 0" 0 (Samhita.Layout.line_of_addr layout 0);
  Alcotest.(check int) "line of lb" 1 (Samhita.Layout.line_of_addr layout lb);
  Alcotest.(check int) "line of lb-1" 0
    (Samhita.Layout.line_of_addr layout (lb - 1));
  Alcotest.(check int) "base of line 3" (3 * lb)
    (Samhita.Layout.line_base layout 3);
  Alcotest.(check int) "offset" 17
    (Samhita.Layout.offset_in_line layout ((5 * lb) + 17))

let test_page_in_line () =
  Alcotest.(check int) "first page" 0
    (Samhita.Layout.page_in_line layout ~offset:0);
  Alcotest.(check int) "page 1" 1
    (Samhita.Layout.page_in_line layout ~offset:4096);
  Alcotest.(check int) "last byte of page 0" 0
    (Samhita.Layout.page_in_line layout ~offset:4095);
  Alcotest.(check int) "last page" 3
    (Samhita.Layout.page_in_line layout ~offset:(4096 * 4 - 1))

let prop_line_roundtrip =
  QCheck.Test.make ~name:"line_base/line_of_addr roundtrip" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun addr ->
       let line = Samhita.Layout.line_of_addr layout addr in
       let base = Samhita.Layout.line_base layout line in
       base <= addr
       && addr < base + layout.Samhita.Layout.line_bytes
       && Samhita.Layout.offset_in_line layout addr = addr - base)

let prop_geometry_all_pows =
  QCheck.Test.make ~name:"layout consistent for all geometries" ~count:50
    QCheck.(pair (int_range 0 4) (int_range 0 3))
    (fun (page_pow, line_pow) ->
       let cfg =
         { cfg with
           page_bytes = 1024 lsl page_pow;
           pages_per_line = 1 lsl line_pow }
       in
       let l = Samhita.Layout.of_config cfg in
       l.Samhita.Layout.line_bytes
       = cfg.Samhita.Config.page_bytes * cfg.Samhita.Config.pages_per_line
       && 1 lsl l.Samhita.Layout.line_shift = l.Samhita.Layout.line_bytes)

let tests =
  [ Alcotest.test_case "default valid" `Quick test_default_valid;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "line geometry" `Quick test_line_geometry;
    Alcotest.test_case "address math" `Quick test_addr_math;
    Alcotest.test_case "page in line" `Quick test_page_in_line;
    QCheck_alcotest.to_alcotest prop_line_roundtrip;
    QCheck_alcotest.to_alcotest prop_geometry_all_pows ]

let () = Alcotest.run "samhita.layout" [ ("config+layout", tests) ]

(* Tests for fine-grained update records and home striping. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes

(* ---------------- Update ---------------- *)

let test_of_i64 () =
  let u = Samhita.Update.of_i64 ~addr:64 0x0102030405060708L in
  Alcotest.(check int) "addr" 64 u.Samhita.Update.addr;
  Alcotest.(check int) "len" 8 (Bytes.length u.Samhita.Update.data);
  Alcotest.(check int64) "little endian" 0x0102030405060708L
    (Bytes.get_int64_le u.Samhita.Update.data 0)

let test_wire_bytes () =
  let u = Samhita.Update.of_i64 ~addr:0 1L in
  Alcotest.(check int) "framing + payload" 20 (Samhita.Update.wire_bytes u);
  Alcotest.(check int) "log sums" 40
    (Samhita.Update.log_wire_bytes [ u; u ])

let test_apply_within_line () =
  let u = Samhita.Update.of_i64 ~addr:(lb + 16) 0xFFL in
  let buf = Bytes.make lb '\000' in
  Samhita.Update.apply_to_line layout u ~line:1 buf;
  Alcotest.(check int64) "applied at offset 16" 0xFFL
    (Bytes.get_int64_le buf 16);
  (* Applying to an unrelated line is a no-op. *)
  let buf2 = Bytes.make lb '\000' in
  Samhita.Update.apply_to_line layout u ~line:5 buf2;
  Alcotest.(check bytes) "untouched" (Bytes.make lb '\000') buf2

let test_apply_straddling () =
  (* A 16-byte update crossing the line-0/line-1 boundary. *)
  let data = Bytes.init 16 (fun i -> Char.chr (i + 1)) in
  let u = { Samhita.Update.addr = lb - 8; data } in
  Alcotest.(check (list int)) "touches both lines" [ 0; 1 ]
    (Samhita.Update.lines_touched layout u);
  let b0 = Bytes.make lb '\000' and b1 = Bytes.make lb '\000' in
  Samhita.Update.apply_to_line layout u ~line:0 b0;
  Samhita.Update.apply_to_line layout u ~line:1 b1;
  Alcotest.(check char) "tail of line 0" (Char.chr 1) (Bytes.get b0 (lb - 8));
  Alcotest.(check char) "last byte of line 0" (Char.chr 8)
    (Bytes.get b0 (lb - 1));
  Alcotest.(check char) "head of line 1" (Char.chr 9) (Bytes.get b1 0);
  Alcotest.(check char) "8th of line 1" (Char.chr 16) (Bytes.get b1 7)

let test_lines_touched_empty () =
  let u = { Samhita.Update.addr = 0; data = Bytes.create 0 } in
  Alcotest.(check (list int)) "empty update" []
    (Samhita.Update.lines_touched layout u)

let prop_apply_matches_blit =
  QCheck.Test.make ~name:"per-line apply equals a global blit" ~count:200
    QCheck.(pair (int_bound (3 * lb)) (int_range 1 64))
    (fun (addr, len) ->
       let u =
         { Samhita.Update.addr;
           data = Bytes.init len (fun i -> Char.chr (i mod 256)) }
       in
       (* Global picture: a 4-line flat buffer with the update blitted. *)
       let flat = Bytes.make (4 * lb) '\000' in
       Bytes.blit u.Samhita.Update.data 0 flat addr len;
       (* Per-line application. *)
       let ok = ref true in
       List.iter
         (fun line ->
            let buf = Bytes.make lb '\000' in
            Samhita.Update.apply_to_line layout u ~line buf;
            if not (Bytes.equal buf (Bytes.sub flat (line * lb) lb)) then
              ok := false)
         (Samhita.Update.lines_touched layout u);
       !ok)

(* ---------------- Home ---------------- *)

let test_home_striping () =
  let cfg3 = { cfg with memory_servers = 3; stripe_lines = 2 } in
  let homes =
    List.init 12 (fun line -> Samhita.Home.server_of_line cfg3 ~line)
  in
  Alcotest.(check (list int)) "round robin in stripes"
    [ 0; 0; 1; 1; 2; 2; 0; 0; 1; 1; 2; 2 ]
    homes

let test_home_single_server () =
  let homes =
    List.init 20 (fun line -> Samhita.Home.server_of_line cfg ~line)
  in
  Alcotest.(check bool) "all on server 0" true
    (List.for_all (( = ) 0) homes)

let test_stripe_bytes () =
  Alcotest.(check int) "stripe bytes"
    (Samhita.Config.line_bytes cfg * cfg.Samhita.Config.stripe_lines)
    (Samhita.Home.stripe_bytes cfg)

let test_group_lines () =
  let cfg2 = { cfg with memory_servers = 2; stripe_lines = 1 } in
  let groups = Samhita.Home.group_by_server cfg2 Fun.id [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list (pair int (list int))))
    "partitioned"
    [ (0, [ 0; 2; 4 ]); (1, [ 1; 3 ]) ]
    groups;
  (* Items group by the home of their projected line: homes ascending,
     input order kept inside each group, whatever order homes first
     appear in. *)
  let items = [ (3, "a"); (0, "b"); (5, "c"); (2, "d"); (1, "e") ] in
  Alcotest.(check (list (pair int (list (pair int string)))))
    "projected, input order within each home"
    [ (0, [ (0, "b"); (2, "d") ]); (1, [ (3, "a"); (5, "c"); (1, "e") ]) ]
    (Samhita.Home.group_by_server cfg2 fst items)

let prop_large_alloc_spans_servers =
  QCheck.Test.make ~name:"any stripe-aligned multi-stripe range hits all \
                          servers"
    ~count:100
    QCheck.(int_range 2 4)
    (fun servers ->
       let cfg' = { cfg with memory_servers = servers } in
       let lines_per_stripe = cfg'.Samhita.Config.stripe_lines in
       let lines = servers * lines_per_stripe in
       let touched =
         List.sort_uniq compare
           (List.init lines (fun l -> Samhita.Home.server_of_line cfg' ~line:l))
       in
       List.length touched = servers)

let tests =
  [ Alcotest.test_case "of_i64" `Quick test_of_i64;
    Alcotest.test_case "wire bytes" `Quick test_wire_bytes;
    Alcotest.test_case "apply within line" `Quick test_apply_within_line;
    Alcotest.test_case "apply straddling" `Quick test_apply_straddling;
    Alcotest.test_case "empty update" `Quick test_lines_touched_empty;
    QCheck_alcotest.to_alcotest prop_apply_matches_blit;
    Alcotest.test_case "home striping" `Quick test_home_striping;
    Alcotest.test_case "single server" `Quick test_home_single_server;
    Alcotest.test_case "stripe bytes" `Quick test_stripe_bytes;
    Alcotest.test_case "group lines" `Quick test_group_lines;
    QCheck_alcotest.to_alcotest prop_large_alloc_spans_servers ]

let () = Alcotest.run "samhita.update" [ ("update+home", tests) ]

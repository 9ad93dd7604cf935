(* Tests for fine-grained update records and home striping. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes

(* ---------------- Update ---------------- *)

let test_of_i64 () =
  let u = Samhita.Update.of_i64 ~addr:64 0x0102030405060708L in
  Alcotest.(check int) "addr" 64 u.Samhita.Update.addr;
  Alcotest.(check int64) "value" 0x0102030405060708L u.Samhita.Update.value;
  Alcotest.check_raises "one aligned word"
    (Invalid_argument "Update.of_i64: unaligned word") (fun () ->
      ignore (Samhita.Update.of_i64 ~addr:68 1L : Samhita.Update.t))

let test_wire_bytes () =
  let u = Samhita.Update.of_i64 ~addr:0 1L in
  Alcotest.(check int) "framing + payload" 20 (Samhita.Wire.update_log [ u ]);
  Alcotest.(check int) "log sums" 40 (Samhita.Wire.update_log [ u; u ])

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

let prop_apply_matches_blit =
  QCheck.Test.make ~name:"per-line apply equals a global blit" ~count:200
    QCheck.(pair (int_bound ((4 * lb / 8) - 1)) int64)
    (fun (word, v) ->
       let u = Samhita.Update.of_i64 ~addr:(8 * word) v in
       (* Global picture: a 4-line flat buffer with the word stored. *)
       let flat = Bytes.make (4 * lb) '\000' in
       Bytes.set_int64_le flat (8 * word) v;
       (* Per-line application: the word's own line gets it, every other
          line is left alone. *)
       Samhita.Update.line_of layout u = 8 * word / lb
       && List.for_all
            (fun line ->
               let buf = Bytes.make lb '\000' in
               Samhita.Update.apply_to_line layout u ~line buf;
               Bytes.equal buf (Bytes.sub flat (line * lb) lb))
            [ 0; 1; 2; 3 ])

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
    QCheck_alcotest.to_alcotest prop_apply_matches_blit;
    Alcotest.test_case "home striping" `Quick test_home_striping;
    Alcotest.test_case "single server" `Quick test_home_single_server;
    Alcotest.test_case "stripe bytes" `Quick test_stripe_bytes;
    Alcotest.test_case "group lines" `Quick test_group_lines;
    QCheck_alcotest.to_alcotest prop_large_alloc_spans_servers ]

let () = Alcotest.run "samhita.update" [ ("update+home", tests) ]

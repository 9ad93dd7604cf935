(* Unit tests for Desim.Time. *)

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_roundtrip () =
  check_int "of/to ns" 42 Desim.Time.(to_ns (of_ns 42));
  check_int "zero" 0 Desim.Time.(to_ns zero)

let test_arith () =
  let t = Desim.Time.of_ns 100 in
  check_int "add" 150 Desim.Time.(to_ns (add t 50));
  check_int "add negative span" 70 Desim.Time.(to_ns (add t (-30)));
  check_int "diff" 60 Desim.Time.(diff (of_ns 100) (of_ns 40));
  check_int "diff negative" (-60) Desim.Time.(diff (of_ns 40) (of_ns 100))

let test_units () =
  check_int "us" 3_000 (Desim.Time.us 3);
  check_int "ms" 2_000_000 (Desim.Time.ms 2);
  check_int "s" 1_000_000_000 (Desim.Time.s 1);
  check_int "ns" 7 (Desim.Time.ns 7)

let test_compare () =
  let a = Desim.Time.of_ns 1 and b = Desim.Time.of_ns 2 in
  Alcotest.(check bool) "lt" true Desim.Time.(a < b);
  Alcotest.(check bool) "le refl" true Desim.Time.(a <= a);
  check_int "max" 2 Desim.Time.(to_ns (max a b));
  Alcotest.(check bool) "compare" true (Desim.Time.compare a b < 0)

let test_span_of_float () =
  check_int "rounds" 3 (Desim.Time.span_of_float_ns 2.6);
  check_int "rounds down" 2 (Desim.Time.span_of_float_ns 2.4);
  check_int "negative clamps" 0 (Desim.Time.span_of_float_ns (-5.0));
  check_int "zero" 0 (Desim.Time.span_of_float_ns 0.0)

(* The unboxed entry points apply [span_of_float_ns] to the float they
   compute, so each must agree with it exactly. *)
let test_span_conversions () =
  let cells = Float.Array.make 1 0. in
  List.iter
    (fun units ->
       List.iter
         (fun ns_per_unit ->
            let f = float_of_int units *. ns_per_unit in
            check_int
              (Printf.sprintf "span_of_units %d x %g" units ns_per_unit)
              (Desim.Time.span_of_float_ns f)
              (Desim.Time.span_of_units ~units ~ns_per_unit);
            Float.Array.set cells 0 f;
            check_int
              (Printf.sprintf "span_of_float_ns_at %g" f)
              (Desim.Time.span_of_float_ns f)
              (Desim.Time.span_of_float_ns_at cells 0))
         [ 0.; 0.25; 0.5; 0.8; 1.5; 2.; 1e-3 ])
    (List.init 200 Fun.id @ [ 4096; 16384; -8 ]);
  check_int "rate rounds" 3
    (Desim.Time.span_of_rate ~bytes:5 ~bytes_per_s:2e9);
  check_int "rate of nothing" 0
    (Desim.Time.span_of_rate ~bytes:0 ~bytes_per_s:1e9)

let test_float_seconds () =
  Alcotest.(check (float 1e-12))
    "to_float_s" 1.5e-3
    (Desim.Time.to_float_s (Desim.Time.of_ns 1_500_000))

let test_pp () =
  let s t = Format.asprintf "%a" Desim.Time.pp (Desim.Time.of_ns t) in
  check_str "ns" "999ns" (s 999);
  check_str "us" "1.50us" (s 1_500);
  check_str "ms" "2.00ms" (s 2_000_000);
  check_str "s" "3.000s" (s 3_000_000_000)

let tests =
  [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "comparisons" `Quick test_compare;
    Alcotest.test_case "span_of_float_ns" `Quick test_span_of_float;
    Alcotest.test_case "unboxed span conversions" `Quick
      test_span_conversions;
    Alcotest.test_case "float seconds" `Quick test_float_seconds;
    Alcotest.test_case "pretty printing" `Quick test_pp ]

let () = Alcotest.run "desim.time" [ ("time", tests) ]

(* Tests for the metric accumulators. *)

module S = Desim.Stats

let test_counter () =
  let c = S.Counter.create () in
  Alcotest.(check int) "zero" 0 (S.Counter.value c);
  S.Counter.incr c;
  S.Counter.add c 5;
  Alcotest.(check int) "accumulates" 6 (S.Counter.value c);
  S.Counter.add c (-2);
  Alcotest.(check int) "signed" 4 (S.Counter.value c);
  S.Counter.reset c;
  Alcotest.(check int) "reset" 0 (S.Counter.value c)

let tests = [ Alcotest.test_case "counter" `Quick test_counter ]

let () = Alcotest.run "desim.stats" [ ("stats", tests) ]

(* Unit and property tests for the event-queue heap. *)

let drain h =
  let rec go acc =
    match Desim.Heap.pop h with
    | Some (t, v) -> go ((t, v) :: acc)
    | None -> List.rev acc
  in
  go []

let test_empty () =
  let h = Desim.Heap.create () in
  Alcotest.(check bool) "is_empty" true (Desim.Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Desim.Heap.length h);
  Alcotest.(check bool) "pop none" true (Desim.Heap.pop h = None)

let test_ordering () =
  let h = Desim.Heap.create () in
  List.iter (fun t -> Desim.Heap.push h ~time:t t) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check (list (pair int int)))
    "sorted"
    [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5) ]
    (drain h)

let test_fifo_ties () =
  let h = Desim.Heap.create () in
  List.iteri (fun i v -> Desim.Heap.push h ~time:(i mod 2) v) [ 10; 20; 30; 40; 50 ];
  (* time 0: 10,30,50 in insertion order; time 1: 20,40 *)
  Alcotest.(check (list (pair int int)))
    "fifo among equals"
    [ (0, 10); (0, 30); (0, 50); (1, 20); (1, 40) ]
    (drain h)

let test_peek () =
  let h = Desim.Heap.create () in
  Desim.Heap.push h ~time:9 'a';
  Desim.Heap.push h ~time:3 'b';
  Alcotest.(check int) "peek" 3 (Desim.Heap.min_time h);
  Alcotest.(check int) "length unchanged" 2 (Desim.Heap.length h)

let test_growth () =
  let h = Desim.Heap.create ~initial_capacity:1 () in
  for i = 999 downto 0 do
    Desim.Heap.push h ~time:i i
  done;
  Alcotest.(check int) "length" 1000 (Desim.Heap.length h);
  let order = List.map fst (drain h) in
  Alcotest.(check (list int)) "all sorted" (List.init 1000 Fun.id) order

let test_clear () =
  let h = Desim.Heap.create () in
  Desim.Heap.push h ~time:1 ();
  Desim.Heap.push h ~time:2 ();
  Desim.Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Desim.Heap.is_empty h);
  Desim.Heap.push h ~time:5 ();
  Alcotest.(check int) "usable after clear" 5 (Desim.Heap.min_time h)

(* The tie_break hook replaces FIFO order among equal times; seq still
   breaks priority collisions, so any hook yields a total order. *)
let test_tie_break_custom () =
  (* Reverse insertion order among equals: larger seq -> smaller prio. *)
  let h = Desim.Heap.create ~tie_break:(fun ~time:_ ~seq -> -seq) () in
  List.iter (fun v -> Desim.Heap.push h ~time:0 v) [ 1; 2; 3 ];
  Desim.Heap.push h ~time:1 9;
  Alcotest.(check (list (pair int int)))
    "reversed among equals, time still dominates"
    [ (0, 3); (0, 2); (0, 1); (1, 9) ]
    (drain h)

let shuffled_drain ~seed times =
  let h =
    Desim.Heap.create
      ~tie_break:(fun ~time ~seq -> Desim.Rng.hash3 seed time seq)
      ()
  in
  List.iteri (fun i t -> Desim.Heap.push h ~time:t (t, i)) times;
  List.map snd (drain h)

let test_shuffle_deterministic () =
  let times = List.init 40 (fun i -> i mod 4) in
  Alcotest.(check (list (pair int int)))
    "same seed, same permutation"
    (shuffled_drain ~seed:7 times)
    (shuffled_drain ~seed:7 times);
  (* Still sorted by time; only same-instant order may move. *)
  let out = shuffled_drain ~seed:7 times in
  Alcotest.(check bool) "time order preserved" true
    (List.for_all2
       (fun (t1, _) (t2, _) -> t1 <= t2)
       (List.filteri (fun i _ -> i < List.length out - 1) out)
       (List.tl out));
  let fifo =
    let h = Desim.Heap.create () in
    List.iteri (fun i t -> Desim.Heap.push h ~time:t (t, i)) times;
    List.map snd (drain h)
  in
  Alcotest.(check bool) "some seed deviates from FIFO" true
    (List.exists (fun seed -> shuffled_drain ~seed times <> fifo) [ 1; 2; 3 ])

let prop_sorted =
  QCheck.Test.make ~name:"pop order is sorted and stable" ~count:300
    QCheck.(list (int_bound 50))
    (fun times ->
       let h = Desim.Heap.create () in
       List.iteri (fun i t -> Desim.Heap.push h ~time:t (t, i)) times;
       let out = List.map snd (drain h) in
       (* Sorted by time, and among equal times by insertion index. *)
       let rec ok = function
         | (t1, i1) :: ((t2, i2) :: _ as rest) ->
           (t1 < t2 || (t1 = t2 && i1 < i2)) && ok rest
         | _ -> true
       in
       List.length out = List.length times && ok out)

let prop_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop preserves min order"
    ~count:200
    QCheck.(list (pair (int_bound 100) bool))
    (fun ops ->
       let h = Desim.Heap.create () in
       let model = ref [] in
       let ok = ref true in
       List.iter
         (fun (t, is_pop) ->
            if is_pop then begin
              match (Desim.Heap.pop h, !model) with
              | None, [] -> ()
              | Some (ht, _), m ->
                let mn = List.fold_left min max_int m in
                if ht <> mn then ok := false
                else begin
                  (* remove one instance of mn *)
                  let rec rm = function
                    | [] -> []
                    | x :: r -> if x = mn then r else x :: rm r
                  in
                  model := rm m
                end
              | None, _ :: _ -> ok := false
            end
            else begin
              Desim.Heap.push h ~time:t ();
              model := t :: !model
            end)
         ops;
       !ok)

(* The option-free pair drains exactly what [pop] drains: the same
   (time, payload) sequence, with FIFO ties or with the schedule fuzzer's
   shuffled ties. Pops interleave with pushes so both heaps go through
   the same internal shapes, and both match a list model that pops the
   least [(time, prio, seq)] key. *)
let prop_pop_min_matches_pop =
  QCheck.Test.make ~name:"min_time/pop_min drain == pop" ~count:300
    QCheck.(triple (option small_nat) (list (pair (int_bound 40) bool))
              (int_bound 40))
    (fun (seed, ops, extra) ->
       let tie_break =
         Option.map (fun seed -> Desim.Engine.shuffle_tie_break ~seed) seed
       in
       let make () = Desim.Heap.create ~initial_capacity:1 ?tie_break () in
       let boxed = make () and unboxed = make () in
       let model = ref [] and next_seq = ref 0 in
       let popped_boxed = ref []
       and popped_unboxed = ref []
       and popped_model = ref [] in
       let push time v =
         Desim.Heap.push boxed ~time v;
         Desim.Heap.push unboxed ~time v;
         let seq = !next_seq in
         incr next_seq;
         let prio =
           match tie_break with None -> seq | Some f -> f ~time ~seq
         in
         model := ((time, prio, seq), v) :: !model
       in
       let pop_all () =
         (match Desim.Heap.pop boxed with
          | Some e -> popped_boxed := e :: !popped_boxed
          | None -> ());
         if not (Desim.Heap.is_empty unboxed) then begin
           let time = Desim.Heap.min_time unboxed in
           popped_unboxed :=
             (time, Desim.Heap.pop_min unboxed) :: !popped_unboxed
         end;
         match List.sort compare !model with
         | (((time, _, _), v) as least) :: _ ->
           model := List.filter (fun e -> e != least) !model;
           popped_model := (time, v) :: !popped_model
         | [] -> ()
       in
       List.iteri
         (fun i (time, is_pop) -> if is_pop then pop_all () else push time i)
         ops;
       for i = 1 to extra do
         push (i mod 3) (-i)
       done;
       while !model <> [] do
         pop_all ()
       done;
       Desim.Heap.is_empty boxed
       && Desim.Heap.is_empty unboxed
       && !popped_boxed = !popped_unboxed
       && !popped_unboxed = !popped_model)

let test_pop_min_empty () =
  let h : int Desim.Heap.t = Desim.Heap.create () in
  Alcotest.check_raises "min_time"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
        ignore (Desim.Heap.min_time h : int));
  Alcotest.check_raises "pop_min"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
        ignore (Desim.Heap.pop_min h : int));
  Desim.Heap.push h ~time:4 7;
  Alcotest.(check int) "min_time" 4 (Desim.Heap.min_time h);
  Alcotest.(check int) "pop_min" 7 (Desim.Heap.pop_min h);
  Alcotest.check_raises "pop_min after draining"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
        ignore (Desim.Heap.pop_min h : int));
  Alcotest.(check bool) "pop none" true (Desim.Heap.pop h = None)

let tests =
  [ Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "custom tie-break" `Quick test_tie_break_custom;
    Alcotest.test_case "seeded shuffle deterministic" `Quick
      test_shuffle_deterministic;
    Alcotest.test_case "pop_min on empty heap" `Quick test_pop_min_empty;
    QCheck_alcotest.to_alcotest prop_sorted;
    QCheck_alcotest.to_alcotest prop_interleaved;
    QCheck_alcotest.to_alcotest prop_pop_min_matches_pop ]

let () = Alcotest.run "desim.heap" [ ("heap", tests) ]

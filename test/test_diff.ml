(* Tests for the multiple-writer diff machinery. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes
let all_pages = (1 lsl cfg.Samhita.Config.pages_per_line) - 1

let mk_pair () = (Bytes.make lb '\000', Bytes.make lb '\000')

let test_empty_diff () =
  let twin, current = mk_pair () in
  let d =
    Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:all_pages
  in
  Alcotest.(check bool) "empty" true (Samhita.Diff.is_empty d);
  Alcotest.(check int) "no payload" 0 (Samhita.Diff.payload_bytes d)

let test_single_change () =
  let twin, current = mk_pair () in
  Bytes.set current 100 'x';
  let d = Samhita.Diff.make layout ~line:7 ~twin ~current ~dirty_pages:1 in
  Alcotest.(check int) "line id" 7 d.Samhita.Diff.line;
  Alcotest.(check int) "one span" 1 (Samhita.Diff.span_count d);
  Alcotest.(check int) "one byte" 1 (Samhita.Diff.payload_bytes d);
  let target = Bytes.make lb '\000' in
  Samhita.Diff.apply d target;
  Alcotest.(check char) "applied" 'x' (Bytes.get target 100)

let test_dirty_page_mask_restricts () =
  let twin, current = mk_pair () in
  Bytes.set current 10 'a';  (* page 0 *)
  Bytes.set current 5000 'b';  (* page 1 *)
  let d_page0 =
    Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
  in
  Alcotest.(check int) "only page 0 scanned" 1
    (Samhita.Diff.payload_bytes d_page0);
  let d_page1 =
    Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:2
  in
  let target = Bytes.make lb '\000' in
  Samhita.Diff.apply d_page1 target;
  Alcotest.(check char) "page1 change applied" 'b' (Bytes.get target 5000);
  Alcotest.(check char) "page0 change not applied" '\000'
    (Bytes.get target 10)

let test_byte_exact_spans () =
  let twin, current = mk_pair () in
  (* Adjacent changed bytes form one span. *)
  Bytes.set current 0 'x';
  Bytes.set current 1 'y';
  let d = Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1 in
  Alcotest.(check int) "adjacent bytes, one span" 1
    (Samhita.Diff.span_count d);
  Alcotest.(check int) "two bytes" 2 (Samhita.Diff.payload_bytes d);
  (* Any unchanged byte splits the run: unchanged bytes must never travel
     (multiple-writer soundness). *)
  let twin2, current2 = mk_pair () in
  Bytes.set current2 0 'x';
  Bytes.set current2 2 'y';
  let d2 =
    Samhita.Diff.make layout ~line:0 ~twin:twin2 ~current:current2
      ~dirty_pages:1
  in
  Alcotest.(check int) "gap of one splits" 2 (Samhita.Diff.span_count d2);
  Alcotest.(check int) "exactly the changed bytes" 2
    (Samhita.Diff.payload_bytes d2)

let test_wire_bytes () =
  let twin, current = mk_pair () in
  Bytes.set current 0 'x';
  let d = Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1 in
  Alcotest.(check bool) "wire > payload" true
    (Samhita.Diff.wire_bytes d > Samhita.Diff.payload_bytes d)

let test_size_mismatch () =
  Alcotest.check_raises "bad sizes"
    (Invalid_argument "Diff.make: buffers must be line-sized") (fun () ->
      ignore
        (Samhita.Diff.make layout ~line:0 ~twin:(Bytes.create 8)
           ~current:(Bytes.create 8) ~dirty_pages:1));
  (* Only a dirty page's twin is read, so only it must be page-sized. *)
  let twins = Array.make cfg.Samhita.Config.pages_per_line Bytes.empty in
  twins.(0) <- Bytes.create 8;
  Alcotest.check_raises "short page twin"
    (Invalid_argument
       "Diff.make_paged: a dirty page's twin must be page-sized") (fun () ->
      ignore
        (Samhita.Diff.make_paged layout ~line:0 ~twins
           ~current:(Bytes.create lb) ~dirty_pages:1));
  Alcotest.(check bool) "clean slots unread" true
    (Samhita.Diff.is_empty
       (Samhita.Diff.make_paged layout ~line:0 ~twins
          ~current:(Bytes.create lb) ~dirty_pages:0))

(* The central multiple-writer property: applying a diff to any base that
   agrees with the twin on the changed bytes reproduces current there,
   while untouched bytes of the base survive (disjoint writers merge). *)
let prop_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 64)
        (pair (int_bound (lb - 1)) (int_bound 255)))
  in
  QCheck.Test.make ~name:"diff roundtrip restores written bytes" ~count:200
    (QCheck.make gen)
    (fun writes ->
       let twin = Bytes.make lb '\000' in
       let current = Bytes.copy twin in
       List.iter
         (fun (off, v) -> Bytes.set current off (Char.chr v))
         writes;
       let d =
         Samhita.Diff.make layout ~line:0 ~twin ~current
           ~dirty_pages:all_pages
       in
       let target = Bytes.copy twin in
       Samhita.Diff.apply d target;
       Bytes.equal target current)

let prop_disjoint_writers_merge =
  (* Two writers touching disjoint byte sets of the same page — including
     interleaved within one word — must merge exactly at the home,
     regardless of application order. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 24) (int_bound 4095))
        (list_size (int_range 1 24) (int_bound 4095)))
  in
  QCheck.Test.make ~name:"disjoint writers merge at the home" ~count:300
    (QCheck.make gen)
    (fun (offs_a, offs_b) ->
       let offs_a = List.sort_uniq compare offs_a in
       let offs_b =
         List.filter (fun o -> not (List.mem o offs_a))
           (List.sort_uniq compare offs_b)
       in
       let base = Bytes.make lb '\000' in
       let a = Bytes.copy base and b = Bytes.copy base in
       List.iter (fun o -> Bytes.set a o 'A') offs_a;
       List.iter (fun o -> Bytes.set b o 'B') offs_b;
       let da =
         Samhita.Diff.make layout ~line:0 ~twin:base ~current:a
           ~dirty_pages:1
       in
       let db =
         Samhita.Diff.make layout ~line:0 ~twin:base ~current:b
           ~dirty_pages:1
       in
       let try_order first second =
         let home = Bytes.make lb '\000' in
         Samhita.Diff.apply first home;
         Samhita.Diff.apply second home;
         List.for_all (fun o -> Bytes.get home o = 'A') offs_a
         && List.for_all (fun o -> Bytes.get home o = 'B') offs_b
       in
       try_order da db && try_order db da)

let prop_payload_exact =
  QCheck.Test.make ~name:"payload carries exactly the changed bytes"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 32) (int_bound (lb - 1)))
    (fun offs ->
       let twin = Bytes.make lb '\000' in
       let current = Bytes.copy twin in
       List.iter (fun o -> Bytes.set current o 'z') offs;
       let d =
         Samhita.Diff.make layout ~line:0 ~twin ~current
           ~dirty_pages:all_pages
       in
       let changed = List.length (List.sort_uniq compare offs) in
       Samhita.Diff.payload_bytes d = changed)

(* The span scratch is domain-local: diffs made on two domains at once
   equal the ones made on the main domain. *)
let test_diff_two_domains () =
  let inputs seed =
    List.init 64 (fun i ->
        let twin = Bytes.make lb '\000' in
        let current = Bytes.copy twin in
        (* Vary density and placement so scratch reuse sees spans of
           different counts and widths back to back. *)
        let stride = 8 * (1 + ((seed + i) mod 7)) in
        let j = ref ((seed + i) mod 16) in
        while !j * 8 < lb - 8 do
          Bytes.set_int64_le current (!j * 8) (Int64.of_int (seed + !j));
          j := !j + (stride / 8)
        done;
        (twin, current))
  in
  let digest seed =
    let b = Buffer.create 4096 in
    List.iter
      (fun (twin, current) ->
         let d =
           Samhita.Diff.make layout ~line:0 ~twin ~current ~dirty_pages:1
         in
         let target = Bytes.make lb '\xff' in
         Samhita.Diff.apply d target;
         Buffer.add_bytes b target)
      (inputs seed);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let expected1 = digest 1 and expected2 = digest 2 in
  let d1 = Domain.spawn (fun () -> digest 1) in
  let d2 = Domain.spawn (fun () -> digest 2) in
  Alcotest.(check string) "domain 1 diffs equal main-domain diffs" expected1
    (Domain.join d1);
  Alcotest.(check string) "domain 2 diffs equal main-domain diffs" expected2
    (Domain.join d2)

let tests =
  [ Alcotest.test_case "empty diff" `Quick test_empty_diff;
    Alcotest.test_case "single change" `Quick test_single_change;
    Alcotest.test_case "dirty mask restricts" `Quick
      test_dirty_page_mask_restricts;
    Alcotest.test_case "byte-exact spans" `Quick test_byte_exact_spans;
    Alcotest.test_case "wire bytes" `Quick test_wire_bytes;
    Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_disjoint_writers_merge;
    QCheck_alcotest.to_alcotest prop_payload_exact;
    Alcotest.test_case "scratch across domains" `Quick test_diff_two_domains ]

let () = Alcotest.run "samhita.diff" [ ("diff", tests) ]

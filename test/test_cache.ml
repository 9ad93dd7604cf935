(* Tests for the per-thread software cache. *)

let cfg = { Samhita.Config.default with cache_lines = 4 }
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes

let mk () = Samhita.Cache.create cfg layout
let buf () = Bytes.make lb '\000'

let insert_plain c line =
  Samhita.Cache.insert c ~line ~data:(buf ()) ~version:0 ~evict:(fun _ -> ())

let test_insert_find () =
  let c = mk () in
  let e = insert_plain c 5 in
  Alcotest.(check int) "line id" 5 e.Samhita.Cache.line;
  (* Physical equality: entries carry cyclic intrusive LRU links, so
     structural compare must never be applied to them. *)
  Alcotest.(check bool) "found" true
    (match Samhita.Cache.find c 5 with Some e' -> e' == e | None -> false);
  Alcotest.(check bool) "absent" true (Samhita.Cache.find c 6 = None);
  Alcotest.(check int) "size" 1 (Samhita.Cache.size c);
  Alcotest.(check int) "capacity" 4 (Samhita.Cache.capacity c)

let test_duplicate_insert_returns_existing () =
  let c = mk () in
  let e1 = insert_plain c 5 in
  let e2 = insert_plain c 5 in
  Alcotest.(check bool) "same entry" true (e1 == e2);
  Alcotest.(check int) "no duplicate" 1 (Samhita.Cache.size c)

let test_lru_eviction () =
  let c = mk () in
  List.iter (fun l -> ignore (insert_plain c l)) [ 1; 2; 3; 4 ];
  (* Touch 1 so 2 becomes LRU. *)
  ignore (Samhita.Cache.find c 1);
  let evicted = ref [] in
  ignore
    (Samhita.Cache.insert c ~line:9 ~data:(buf ()) ~version:0
       ~evict:(fun v -> evicted := v.Samhita.Cache.line :: !evicted));
  Alcotest.(check (list int)) "LRU victim" [ 2 ] !evicted;
  Alcotest.(check bool) "victim gone" true (Samhita.Cache.peek c 2 = None);
  Alcotest.(check int) "evictions" 1 (Samhita.Cache.evictions c)

let test_dirty_first_eviction () =
  let c = mk () in
  List.iter (fun l -> ignore (insert_plain c l)) [ 1; 2; 3; 4 ];
  (* Make line 3 dirty although recently used. *)
  (match Samhita.Cache.peek c 3 with
   | Some e -> Samhita.Cache.mark_written c e ~offset:0
   | None -> Alcotest.fail "line 3 missing");
  ignore (Samhita.Cache.find c 3);
  let evicted = ref [] in
  ignore
    (Samhita.Cache.insert c ~line:9 ~data:(buf ()) ~version:0
       ~evict:(fun v -> evicted := v.Samhita.Cache.line :: !evicted));
  Alcotest.(check (list int)) "dirty line preferred over LRU" [ 3 ] !evicted;
  Alcotest.(check int) "dirty eviction counted" 1
    (Samhita.Cache.dirty_evictions c)

let test_lru_only_eviction () =
  let cfg' = { cfg with evict_dirty_first = false } in
  let c = Samhita.Cache.create cfg' layout in
  List.iter
    (fun l ->
       ignore
         (Samhita.Cache.insert c ~line:l ~data:(buf ()) ~version:0
            ~evict:(fun _ -> ())))
    [ 1; 2; 3; 4 ];
  (match Samhita.Cache.peek c 1 with
   | Some e -> Samhita.Cache.mark_written c e ~offset:0
   | None -> Alcotest.fail "missing");
  (* With pure LRU, line 1 (just touched by peek-less mark) is victim only
     if oldest; we touched nothing since insert, so 1 is oldest anyway.
     Touch it to make 2 the victim despite 1 being dirty. *)
  ignore (Samhita.Cache.find c 1);
  let evicted = ref [] in
  ignore
    (Samhita.Cache.insert c ~line:9 ~data:(buf ()) ~version:0
       ~evict:(fun v -> evicted := v.Samhita.Cache.line :: !evicted));
  Alcotest.(check (list int)) "pure LRU ignores dirtiness" [ 2 ] !evicted

let untwinned (e : Samhita.Cache.entry) =
  Array.for_all (fun tw -> Bytes.length tw = 0) e.Samhita.Cache.twins

let test_mark_written_twin_and_bits () =
  let c = mk () in
  let e = insert_plain c 1 in
  Alcotest.(check bool) "clean" true (untwinned e);
  (* The twin snapshots the page as it is when marked: mark before the
     store, as the store path does. *)
  Bytes.set e.Samhita.Cache.data 5000 'x';
  Samhita.Cache.mark_written c e ~offset:4096;
  Bytes.set e.Samhita.Cache.data 5000 'y';
  Alcotest.(check int) "page 1 dirty" 0b10 e.Samhita.Cache.dirty_pages;
  let twin = e.Samhita.Cache.twins.(1) in
  Alcotest.(check int) "page-sized twin" 4096 (Bytes.length twin);
  Alcotest.(check char) "pre-store byte" 'x' (Bytes.get twin (5000 - 4096));
  Alcotest.(check bool) "other pages untwinned" true
    (List.for_all
       (fun p -> Bytes.length e.Samhita.Cache.twins.(p) = 0)
       [ 0; 2; 3 ]);
  (* A later store to the same page (its last word) keeps the twin. *)
  Samhita.Cache.mark_written c e ~offset:(2 * 4096 - 8);
  Alcotest.(check int) "still page 1 only" 0b10 e.Samhita.Cache.dirty_pages;
  Alcotest.(check bool) "same twin" true (e.Samhita.Cache.twins.(1) == twin);
  Alcotest.(check char) "twin not retaken" 'x'
    (Bytes.get twin (5000 - 4096));
  Samhita.Cache.clean c e ~version:7;
  Alcotest.(check bool) "twin dropped" true (untwinned e);
  Alcotest.(check int) "bits cleared" 0 e.Samhita.Cache.dirty_pages;
  Alcotest.(check int) "version recorded" 7 e.Samhita.Cache.version

let test_dirty_entries_sorted () =
  let c = mk () in
  let e3 = insert_plain c 3 in
  let e1 = insert_plain c 1 in
  let e2 = insert_plain c 2 in
  Samhita.Cache.mark_written c e3 ~offset:0;
  Samhita.Cache.mark_written c e1 ~offset:0;
  ignore e2;
  Alcotest.(check (list int)) "dirty ascending" [ 1; 3 ]
    (List.map
       (fun (e : Samhita.Cache.entry) -> e.Samhita.Cache.line)
       (Samhita.Cache.dirty_entries c))

let test_invalidate () =
  let c = mk () in
  ignore (insert_plain c 1);
  Samhita.Cache.invalidate c 1;
  Alcotest.(check bool) "gone" true (Samhita.Cache.peek c 1 = None);
  Alcotest.(check int) "counted" 1 (Samhita.Cache.invalidations c);
  (* Invalidating an absent line is harmless. *)
  Samhita.Cache.invalidate c 77;
  Alcotest.(check int) "not counted" 1 (Samhita.Cache.invalidations c)

let test_try_install_respects_dirty () =
  let c = mk () in
  List.iter (fun l -> ignore (insert_plain c l)) [ 1; 2; 3; 4 ];
  (* All clean: try_install evicts a clean victim. *)
  Alcotest.(check bool) "installs over clean" true
    (Samhita.Cache.try_install c ~line:8 ~data:(buf ()) ~version:0);
  (* Make everything dirty: try_install must refuse. *)
  Hashtbl.iter (fun _ _ -> ()) (Hashtbl.create 1);
  List.iter
    (fun l ->
       match Samhita.Cache.peek c l with
       | Some e -> Samhita.Cache.mark_written c e ~offset:0
       | None -> ())
    [ 2; 3; 4; 8 ];
  Alcotest.(check bool) "refuses when all dirty" false
    (Samhita.Cache.try_install c ~line:9 ~data:(buf ()) ~version:0);
  Alcotest.(check bool) "not cached" true (Samhita.Cache.peek c 9 = None);
  (* Duplicate install refused. *)
  Alcotest.(check bool) "duplicate refused" false
    (Samhita.Cache.try_install c ~line:8 ~data:(buf ()) ~version:0)

let test_pending_lifecycle () =
  let c = mk () in
  Alcotest.(check bool) "start" true (Samhita.Cache.pending_start c 5);
  Alcotest.(check bool) "no duplicate prefetch" false
    (Samhita.Cache.pending_start c 5);
  Alcotest.(check bool) "is pending" true (Samhita.Cache.is_pending c 5);
  let got = ref None in
  (match Samhita.Cache.pending_wait c 5 with
   | Some register -> register (fun arrival -> got := Some arrival)
   | None -> Alcotest.fail "expected pending");
  Samhita.Cache.pending_complete c 5 ~data:(buf ()) ~version:3;
  (match !got with
   | Some (Some (_, v)) -> Alcotest.(check int) "version delivered" 3 v
   | _ -> Alcotest.fail "waiter not delivered");
  Alcotest.(check bool) "pending cleared" false (Samhita.Cache.is_pending c 5)

let test_pending_stale_delivery () =
  let c = mk () in
  ignore (Samhita.Cache.pending_start c 6);
  let got = ref None in
  (match Samhita.Cache.pending_wait c 6 with
   | Some register -> register (fun arrival -> got := Some arrival)
   | None -> Alcotest.fail "pending");
  (* Invalidation in flight marks the prefetch stale. *)
  Samhita.Cache.invalidate c 6;
  Samhita.Cache.pending_complete c 6 ~data:(buf ()) ~version:1;
  Alcotest.(check bool) "waiter told to retry" true (!got = Some None);
  Alcotest.(check bool) "stale data not installed" true
    (Samhita.Cache.peek c 6 = None)

let test_pending_no_waiters_installs () =
  let c = mk () in
  ignore (Samhita.Cache.pending_start c 7);
  Samhita.Cache.pending_complete c 7 ~data:(buf ()) ~version:2;
  (match Samhita.Cache.peek c 7 with
   | Some e -> Alcotest.(check int) "installed version" 2 e.Samhita.Cache.version
   | None -> Alcotest.fail "expected install");
  Alcotest.(check int) "prefetch install counted" 1
    (Samhita.Cache.prefetch_installs c)

let test_hit_miss_counters () =
  let c = mk () in
  Samhita.Cache.note_hit c;
  Samhita.Cache.note_hit c;
  Samhita.Cache.note_miss c;
  Alcotest.(check int) "hits" 2 (Samhita.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Samhita.Cache.misses c)

let prop_capacity_never_exceeded =
  QCheck.Test.make ~name:"size never exceeds capacity (plain inserts)"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 20))
    (fun lines ->
       let c = mk () in
       List.iter
         (fun l ->
            if Samhita.Cache.peek c l = None then
              ignore
                (Samhita.Cache.insert c ~line:l ~data:(buf ()) ~version:0
                   ~evict:(fun _ -> ())))
         lines;
       Samhita.Cache.size c <= Samhita.Cache.capacity c)

let tests =
  [ Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "duplicate insert" `Quick
      test_duplicate_insert_returns_existing;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "dirty-first eviction" `Quick
      test_dirty_first_eviction;
    Alcotest.test_case "pure LRU eviction" `Quick test_lru_only_eviction;
    Alcotest.test_case "twin + dirty bits" `Quick
      test_mark_written_twin_and_bits;
    Alcotest.test_case "dirty entries sorted" `Quick
      test_dirty_entries_sorted;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "try_install" `Quick test_try_install_respects_dirty;
    Alcotest.test_case "pending lifecycle" `Quick test_pending_lifecycle;
    Alcotest.test_case "pending stale" `Quick test_pending_stale_delivery;
    Alcotest.test_case "pending auto-install" `Quick
      test_pending_no_waiters_installs;
    Alcotest.test_case "hit/miss counters" `Quick test_hit_miss_counters;
    QCheck_alcotest.to_alcotest prop_capacity_never_exceeded ]

let () = Alcotest.run "samhita.cache" [ ("cache", tests) ]

(* Equivalence tests for the hot-path rewrites: each optimized structure
   is driven against the simple implementation it replaced (or its
   documented policy) on random traces. The optimizations must be
   invisible — same victims, same spans, same drain order, same memory. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes
let pages = cfg.Samhita.Config.pages_per_line

(* ------------------------------------------------------------------ *)
(* Word-wise Diff vs. the retained scalar reference                    *)

let spans_of_reference (d : Samhita.Diff_reference.t) =
  List.map
    (fun (s : Samhita.Diff_reference.span) ->
       (s.Samhita.Diff_reference.offset, s.Samhita.Diff_reference.data))
    d.Samhita.Diff_reference.spans

let spans_of_diff d =
  List.map
    (fun (s : Samhita.Diff.span) ->
       (s.Samhita.Diff.offset, s.Samhita.Diff.data))
    (Samhita.Diff.spans d)

(* Random write patterns: a mix of isolated bytes, short runs and
   word-straddling runs, plus writes of the twin's own value (which must
   not produce a span — the scan is byte-exact, not write-exact). *)
let gen_writes =
  QCheck.Gen.(
    list_size (int_range 0 48)
      (triple (int_bound (lb - 1)) (int_range 1 24) (int_bound 255)))

let prop_diff_matches_reference =
  QCheck.Test.make ~name:"word-wise Diff.make == scalar reference" ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_writes (int_bound ((1 lsl pages) - 1))))
    (fun (writes, dirty_pages) ->
       let twin = Bytes.init lb (fun i -> Char.chr (i * 7 land 0xFF)) in
       let current = Bytes.copy twin in
       List.iter
         (fun (off, len, v) ->
            let len = min len (lb - off) in
            Bytes.fill current off len (Char.chr v))
         writes;
       let d =
         Samhita.Diff.make layout ~line:3 ~twin ~current ~dirty_pages
       in
       let r =
         Samhita.Diff_reference.make layout ~line:3 ~twin ~current
           ~dirty_pages
       in
       spans_of_diff d = spans_of_reference r
       && Samhita.Diff.span_count d = Samhita.Diff_reference.span_count r
       && Samhita.Diff.payload_bytes d
          = Samhita.Diff_reference.payload_bytes r
       && Samhita.Diff.wire_bytes d = Samhita.Diff_reference.wire_bytes r
       && Samhita.Diff.is_empty d = Samhita.Diff_reference.is_empty r)

(* ------------------------------------------------------------------ *)
(* LRU-chain victim choice vs. the scan it replaced                    *)

(* Reference: the retired O(capacity) scan. Entries are (line, tick,
   dirty); ticks are unique, so the scan's strict comparisons make the
   choice independent of iteration order — exactly what the intrusive
   chains must reproduce. *)
module Scan_model = struct
  type e = { line : int; mutable tick : int; mutable dirty : bool }

  type t = {
    mutable entries : e list;
    mutable clock : int;
    dirty_first : bool;
    cap : int;
  }

  let create ~dirty_first ~cap = { entries = []; clock = 0; dirty_first; cap }

  let find t line = List.find_opt (fun e -> e.line = line) t.entries

  let touch t e =
    t.clock <- t.clock + 1;
    e.tick <- t.clock

  let choose_victim t ~allow_dirty =
    List.fold_left
      (fun best e ->
         if (not allow_dirty) && e.dirty then best
         else
           match best with
           | None -> Some e
           | Some b ->
             if t.dirty_first && e.dirty <> b.dirty then
               if e.dirty then Some e else Some b
             else if e.tick < b.tick then Some e
             else Some b)
      None t.entries

  (* Returns the victim's line, if an eviction happened. *)
  let insert t line =
    match find t line with
    | Some e ->
      touch t e;
      None
    | None ->
      let victim =
        if List.length t.entries >= t.cap then begin
          match choose_victim t ~allow_dirty:true with
          | Some v ->
            t.entries <- List.filter (fun e -> e.line <> v.line) t.entries;
            Some v.line
          | None -> None
        end
        else None
      in
      let e = { line; tick = 0; dirty = false } in
      touch t e;
      t.entries <- e :: t.entries;
      victim
end

type trace_op = Insert of int | Find of int | Mark of int | Clean of int | Drop of int

let trace_gen rng =
  let line = QCheck.Gen.int_range 0 11 rng in
  match QCheck.Gen.int_range 0 9 rng with
  | 0 | 1 | 2 | 3 -> Insert line
  | 4 | 5 -> Find line
  | 6 | 7 -> Mark line
  | 8 -> Clean line
  | _ -> Drop line

let trace_print = function
  | Insert l -> Printf.sprintf "I%d" l
  | Find l -> Printf.sprintf "F%d" l
  | Mark l -> Printf.sprintf "M%d" l
  | Clean l -> Printf.sprintf "C%d" l
  | Drop l -> Printf.sprintf "D%d" l

let arb_trace =
  QCheck.make
    ~print:(fun (ops, df) ->
      Printf.sprintf "dirty_first=%b [%s]" df
        (String.concat "; " (List.map trace_print ops)))
    QCheck.Gen.(pair (list_size (int_range 1 80) trace_gen) bool)

let prop_victims_match_scan =
  QCheck.Test.make
    ~name:"LRU-chain eviction sequence == scan-based reference" ~count:500
    arb_trace
    (fun (ops, dirty_first) ->
       let ccfg =
         { cfg with
           Samhita.Config.cache_lines = 4;
           evict_dirty_first = dirty_first }
       in
       let cache = Samhita.Cache.create ccfg (Samhita.Layout.of_config ccfg) in
       let model = Scan_model.create ~dirty_first ~cap:4 in
       let data () = Bytes.make lb '\000' in
       List.for_all
         (fun op ->
            match op with
            | Insert l ->
              let evicted = ref None in
              (if Samhita.Cache.peek cache l = None then
                 ignore
                   (Samhita.Cache.insert cache ~line:l ~data:(data ())
                      ~version:0
                      ~evict:(fun v ->
                        evicted := Some v.Samhita.Cache.line)
                    : Samhita.Cache.entry)
               else ignore (Samhita.Cache.find cache l));
              let model_victim = Scan_model.insert model l in
              !evicted = model_victim
            | Find l ->
              ignore (Samhita.Cache.find cache l);
              (match Scan_model.find model l with
               | Some e -> Scan_model.touch model e
               | None -> ());
              true
            | Mark l ->
              (match Samhita.Cache.peek cache l with
               | Some e ->
                 Samhita.Cache.mark_written cache e ~offset:0 ~len:8
               | None -> ());
              (match Scan_model.find model l with
               | Some e -> e.Scan_model.dirty <- true
               | None -> ());
              true
            | Clean l ->
              (match Samhita.Cache.peek cache l with
               | Some e -> Samhita.Cache.clean cache e ~version:0
               | None -> ());
              (match Scan_model.find model l with
               | Some e -> e.Scan_model.dirty <- false
               | None -> ());
              true
            | Drop l ->
              Samhita.Cache.invalidate cache l;
              model.Scan_model.entries <-
                List.filter
                  (fun (e : Scan_model.e) -> e.Scan_model.line <> l)
                  model.Scan_model.entries;
              true)
         ops)

(* ------------------------------------------------------------------ *)
(* Unboxed heap vs. a boxed sorted-list reference                      *)

module List_heap = struct
  type 'a t = {
    mutable entries : (int * int * int * 'a) list;  (* time, prio, seq *)
    mutable next_seq : int;
    tie_break : (time:int -> seq:int -> int) option;
  }

  let create ?tie_break () = { entries = []; next_seq = 0; tie_break }

  let push t ~time payload =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let prio =
      match t.tie_break with Some f -> f ~time ~seq | None -> seq
    in
    t.entries <- (time, prio, seq, payload) :: t.entries

  let pop t =
    match
      List.sort
        (fun (t1, p1, s1, _) (t2, p2, s2, _) ->
           match Int.compare t1 t2 with
           | 0 -> (
               match Int.compare p1 p2 with
               | 0 -> Int.compare s1 s2
               | c -> c)
           | c -> c)
        t.entries
    with
    | [] -> None
    | ((time, _, _, payload) as min) :: _ ->
      t.entries <- List.filter (fun e -> e != min) t.entries;
      Some (time, payload)
end

type heap_op = Push of int | Pop

let arb_heap_trace =
  QCheck.make
    ~print:(fun (ops, tb) ->
      Printf.sprintf "tie_break=%b [%s]" tb
        (String.concat "; "
           (List.map
              (function Push t -> Printf.sprintf "push %d" t | Pop -> "pop")
              ops)))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 120)
           (int_range 0 3 >>= fun k ->
            if k = 0 then return Pop
            else map (fun t -> Push t) (int_bound 50)))
        bool)

let prop_heap_matches_boxed =
  QCheck.Test.make
    ~name:"unboxed heap drain order == boxed reference (with tie-break)"
    ~count:500 arb_heap_trace
    (fun (ops, use_tb) ->
       (* Any pure function works as a tie-break; this one permutes
          same-instant order while colliding often enough to exercise the
          seq fallback. *)
       let tb = if use_tb then Some (fun ~time ~seq -> (time + seq) mod 3) else None in
       let h = Desim.Heap.create ?tie_break:tb ~initial_capacity:4 () in
       let r = List_heap.create ?tie_break:tb () in
       let n = ref 0 in
       List.for_all
         (fun op ->
            match op with
            | Push time ->
              incr n;
              Desim.Heap.push h ~time !n;
              List_heap.push r ~time !n;
              Desim.Heap.length h = List.length r.List_heap.entries
            | Pop -> Desim.Heap.pop h = List_heap.pop r)
         ops
       &&
       (* Drain whatever remains: full order must agree. *)
       let rec drain () =
         match (Desim.Heap.pop h, List_heap.pop r) with
         | None, None -> true
         | a, b when a = b -> drain ()
         | _ -> false
       in
       drain ())

(* ------------------------------------------------------------------ *)
(* Hit-path allocation with no probe attached                          *)

(* A one-thread system that faulted a line in and dirtied it; afterwards
   accesses to that line are cache hits that perform no effects, so they
   can be called outside the simulation. *)
let warmed_hit_ctx () =
  let sys = Samhita.System.create ~threads:1 () in
  let got = ref None in
  ignore
    (Samhita.System.spawn sys (fun t ->
         let a = Samhita.Thread_ctx.malloc t ~bytes:64 in
         Samhita.Thread_ctx.write_i64 t a 1L;
         got := Some (t, a))
     : Samhita.Thread_ctx.t);
  Samhita.System.run sys;
  match !got with Some ta -> ta | None -> Alcotest.fail "warmup did not run"

let minor_words_per_call f =
  let n = 10_000 in
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_hit_path_allocation () =
  let t, a = warmed_hit_ctx () in
  let write =
    minor_words_per_call (fun () -> Samhita.Thread_ctx.write_i64 t a 2L)
  in
  let read =
    minor_words_per_call (fun () ->
        ignore (Samhita.Thread_ctx.read_i64 t a : int64))
  in
  (* The only allocation a read hit may make is the int64 box it returns
     (header, custom ops, payload); the per-loop Gc.minor_words float
     rounds to nothing over 10k calls. *)
  Alcotest.(check bool)
    (Printf.sprintf "write_i64 hit allocates nothing (%.2f words)" write)
    true (write < 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "read_i64 hit allocates <= 3 words (%.2f)" read)
    true (read <= 3.01)

let tests =
  [ QCheck_alcotest.to_alcotest prop_diff_matches_reference;
    QCheck_alcotest.to_alcotest prop_victims_match_scan;
    QCheck_alcotest.to_alcotest prop_heap_matches_boxed;
    Alcotest.test_case "no-probe hit path allocation" `Quick
      test_hit_path_allocation ]

let () = Alcotest.run "hotpath-equiv" [ ("equivalence", tests) ]

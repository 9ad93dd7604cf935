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
       let paged =
         Samhita.Diff.make_paged layout ~line:3
           ~twins:
             (Array.init pages (fun p ->
                  Bytes.sub twin (p * layout.Samhita.Layout.page_bytes)
                    layout.Samhita.Layout.page_bytes))
           ~current ~dirty_pages
       in
       spans_of_diff d = spans_of_reference r
       && spans_of_diff paged = spans_of_diff d
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
                 Samhita.Cache.mark_written cache e ~offset:0
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
(* Queue-backed lock history vs. the list-history reference            *)

(* The grant a lock's update-log history yields, computed the way the
   newest-first list history did: filter the entries newer than
   [last_seen], count them, and concatenate oldest first. *)
module List_history = struct
  type entry = {
    h_version : int;
    h_log : Samhita.Update.t list;
    h_line_versions : (int * int) list;
  }

  type t = {
    keep : int;
    mutable version : int;
    mutable history : entry list;  (* newest first *)
    touched : (int, int) Hashtbl.t;
  }

  let create ~keep =
    { keep; version = 0; history = []; touched = Hashtbl.create 16 }

  let release t ~log ~line_versions =
    t.version <- t.version + 1;
    t.history <-
      { h_version = t.version; h_log = log; h_line_versions = line_versions }
      :: t.history;
    if List.length t.history > t.keep then
      t.history <- List.filteri (fun i _ -> i < t.keep) t.history;
    List.iter (fun (l, v) -> Hashtbl.replace t.touched l v) line_versions

  (* Manager_shard's fixed grant framing, in bytes. *)
  let grant_framing = 48

  let grant t ~last_seen =
    let action =
      if last_seen >= t.version then Samhita.Manager_shard.Fresh
      else begin
        let covering =
          List.filter (fun h -> h.h_version > last_seen) t.history
        in
        if List.length covering = t.version - last_seen && t.keep > 0 then begin
          let ordered = List.rev covering in
          let log = List.concat_map (fun h -> h.h_log) ordered in
          let lv = Hashtbl.create 16 in
          List.iter
            (fun h ->
               List.iter (fun (l, v) -> Hashtbl.replace lv l v)
                 h.h_line_versions)
            ordered;
          Samhita.Manager_shard.Patch
            (log, Hashtbl.fold (fun l v acc -> (l, v) :: acc) lv [])
        end
        else
          Samhita.Manager_shard.Notices
            (Hashtbl.fold (fun l v acc -> (l, v) :: acc) t.touched [])
      end
    in
    let wire =
      grant_framing
      + (match action with
         | Samhita.Manager_shard.Fresh -> 0
         | Patch (log, lvs) ->
           Samhita.Wire.update_log log + Samhita.Wire.notices lvs
         | Notices ns -> Samhita.Wire.notices ns)
    in
    (action, t.version, wire)
end

(* One release: how far behind the version the releaser's acquire
   claims to be, the stores it logged and the line versions it produced.
   Empty logs and empty line-version lists are common, as on read-only
   critical sections. *)
let gen_release =
  QCheck.Gen.(
    triple (int_bound 70)
      (list_size (int_bound 3)
         (map2
            (fun word v -> Samhita.Update.of_i64 ~addr:(8 * word) v)
            (int_bound 127) ui64))
      (list_size (int_bound 3) (pair (int_bound 7) (int_bound 1000))))

let arb_lock_history =
  QCheck.make
    ~print:(fun (keep, releases, final_gap) ->
      Printf.sprintf "update_log_history=%d final_gap=%d [%s]" keep final_gap
        (String.concat "; "
           (List.map
              (fun (gap, log, lvs) ->
                 Printf.sprintf "gap %d, %d stores, lines %s" gap
                   (List.length log)
                   (String.concat ","
                      (List.map (fun (l, v) -> Printf.sprintf "%d@%d" l v)
                         lvs)))
              releases)))
    QCheck.Gen.(
      triple (oneofl [ 0; 1; 2; 5; 64 ])
        (list_size (int_bound 90) gen_release)
        (int_bound 70))

let prop_lock_history_matches_list =
  QCheck.Test.make
    ~name:"queue lock history grants == list-history reference" ~count:300
    arb_lock_history
    (fun (keep, releases, final_gap) ->
       let cfg = { cfg with Samhita.Config.update_log_history = keep } in
       let engine = Desim.Engine.create () in
       let net =
         Fabric.Network.create engine ~profile:cfg.Samhita.Config.fabric
           ~node_count:2
       in
       let endpoint = Fabric.Scl.endpoint net 1 in
       let m =
         Samhita.Manager_shard.create cfg layout ~engine
           ~endpoint:(Fabric.Scl.endpoint net 0)
       in
       let lock = 1 in
       Samhita.Manager_shard.lock_register m ~id:lock;
       let model = List_history.create ~keep in
       let now () = Desim.Engine.now engine in
       let agrees gap =
         let last_seen = max 0 (model.List_history.version - gap) in
         let got = ref None in
         Samhita.Manager_shard.lock_acquire m ~now:(now ()) ~lock ~thread:1
           ~last_seen ~endpoint ~wake:(fun g -> got := Some g);
         Desim.Engine.run engine;
         match !got with
         | None -> false
         | Some g ->
           (g.Samhita.Manager_shard.action, g.lock_version, g.wire_bytes)
           = List_history.grant model ~last_seen
       in
       List.for_all
         (fun (gap, log, line_versions) ->
            agrees gap
            && Samhita.Manager_shard.lock_release m
                 ~seq:(model.List_history.version + 1) ~now:(now ()) ~lock
                 ~thread:1 ~log ~line_versions
               = (List_history.release model ~log ~line_versions;
                  model.List_history.version))
         releases
       && agrees final_gap)

(* ------------------------------------------------------------------ *)
(* Page twins vs. the line-twin model they replaced                    *)

(* The line-twin model: the first ordinary store to the line copies the
   whole line; a region store or a grant patch lands in the line and, if
   the line is twinned, in its twin; a flush diffs the dirty pages
   against the twin and drops it. The cache now twins a page on the
   first store to that page, so the twins hold different bytes at
   different times — but the diffs they give must be the same. *)
module Line_twin = struct
  type t = { data : bytes; mutable twin : bytes option; mutable dirty : int }

  let page_of off = off / layout.Samhita.Layout.page_bytes

  let ordinary m off v =
    if m.twin = None then m.twin <- Some (Bytes.copy m.data);
    m.dirty <- m.dirty lor (1 lsl page_of off);
    Bytes.set_int64_le m.data off v

  (* A region store and a grant patch are the same to the twin. *)
  let untracked m off v =
    Bytes.set_int64_le m.data off v;
    match m.twin with Some tw -> Bytes.set_int64_le tw off v | None -> ()

  let flush m ~line =
    let d =
      match m.twin with
      | None -> []
      | Some twin ->
        spans_of_diff
          (Samhita.Diff.make layout ~line ~twin ~current:m.data
             ~dirty_pages:m.dirty)
    in
    m.twin <- None;
    m.dirty <- 0;
    d
end

type twin_op =
  | Ordinary of int * int64  (* thread 0 stores outside any lock *)
  | Region of int * int64  (* thread 0 stores inside the lock *)
  | Patch of int * int64
      (* thread 1 stores inside the lock; thread 0's next acquire patches
         its copy *)
  | Flush  (* a barrier: thread 0's diff is shipped *)

(* Offsets of the words the ops touch: six per page of the one line, so
   ops collide on words and on pages. *)
let twin_words =
  Array.init (pages * 6) (fun i ->
      (i / 6 * layout.Samhita.Layout.page_bytes) + (i mod 6 * 8))

let twin_op_print = function
  | Ordinary (w, v) -> Printf.sprintf "O%d=%Ld" w v
  | Region (w, v) -> Printf.sprintf "R%d=%Ld" w v
  | Patch (w, v) -> Printf.sprintf "P%d=%Ld" w v
  | Flush -> "F"

(* Zero is the line's initial value, so some stores restore the twin's
   bytes and must not travel. *)
let arb_twin_ops =
  let open QCheck.Gen in
  let value =
    frequency [ (1, return 0L); (3, map Int64.of_int (int_bound 1000)); (1, ui64) ]
  in
  let word = int_bound (Array.length twin_words - 1) in
  let op =
    frequency
      [ (5, map2 (fun w v -> Ordinary (w, v)) word value);
        (2, map2 (fun w v -> Region (w, v)) word value);
        (2, map2 (fun w v -> Patch (w, v)) word value);
        (1, return Flush) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map twin_op_print ops))
    (list_size (int_range 1 40) op)

(* Thread 0 runs the ops on one cached line through the real store, grant
   and flush paths, next to the line-twin model. Before each flush, the
   diff of thread 0's cache entry (the one the flush ships) must equal the
   model's span for span, byte for byte. Thread 1 runs each [Patch]'s
   critical section half a slot before thread 0 takes the lock. *)
let prop_page_twins_match_line_twins =
  QCheck.Test.make ~name:"page-twin diffs == line-twin model diffs" ~count:150
    arb_twin_ops
    (fun ops ->
       let ops = ops @ [ Flush ] in
       let sys = Samhita.System.create ~threads:2 () in
       let m = Samhita.System.mutex sys in
       let bar = Samhita.System.barrier sys ~parties:2 in
       let slot = 1_000_000 in
       let base = ref 0 and start = ref 0 and ok = ref true in
       let fail why = if !ok then (ok := false; print_endline why) in
       let module T = Samhita.Thread_ctx in
       for tid = 0 to 1 do
         ignore
           (Samhita.System.spawn sys (fun t ->
                if tid = 0 then begin
                  let a = T.malloc t ~bytes:(2 * lb) in
                  base := (a + lb - 1) land lnot (lb - 1);
                  ignore (T.read_i64 t !base : int64)
                end;
                T.barrier_wait t bar;
                if tid = 0 then start := T.now_ns t + slot;
                T.barrier_wait t bar;
                let line = !base / lb in
                let entry () =
                  Samhita.Cache.peek (T.cache t) line
                in
                let model =
                  match entry () with
                  | Some e when tid = 0 ->
                    { Line_twin.data = Bytes.copy e.Samhita.Cache.data;
                      twin = None; dirty = 0 }
                  | _ -> { Line_twin.data = Bytes.empty; twin = None; dirty = 0 }
                in
                List.iteri
                  (fun i op ->
                     T.idle_until t
                       (!start + (i * slot) + if tid = 0 then slot / 2 else 0);
                     match (tid, op) with
                     | 0, Ordinary (w, v) ->
                       T.write_i64 t (!base + twin_words.(w)) v;
                       Line_twin.ordinary model twin_words.(w) v
                     | 0, Region (w, v) ->
                       T.mutex_lock t m;
                       T.write_i64 t (!base + twin_words.(w)) v;
                       T.mutex_unlock t m;
                       Line_twin.untracked model twin_words.(w) v
                     | 0, Patch (w, v) ->
                       T.mutex_lock t m;
                       T.mutex_unlock t m;
                       Line_twin.untracked model twin_words.(w) v
                     | 1, Patch (w, v) ->
                       T.mutex_lock t m;
                       T.write_i64 t (!base + twin_words.(w)) v;
                       T.mutex_unlock t m
                     | 0, Flush ->
                       (match entry () with
                        | None -> fail "thread 0 lost the line"
                        | Some e ->
                          let d = e.Samhita.Cache.dirty_pages in
                          let shipped =
                            if d = 0 then []
                            else
                              spans_of_diff
                                (Samhita.Diff.make_paged layout ~line
                                   ~twins:e.Samhita.Cache.twins
                                   ~current:e.Samhita.Cache.data
                                   ~dirty_pages:d)
                          in
                          if d <> model.Line_twin.dirty then
                            fail (Printf.sprintf "op %d: dirty %x, model %x" i d
                                    model.Line_twin.dirty);
                          if not (Bytes.equal e.Samhita.Cache.data
                                    model.Line_twin.data)
                          then fail (Printf.sprintf "op %d: line bytes differ" i);
                          if shipped <> Line_twin.flush model ~line then
                            fail (Printf.sprintf "op %d: diffs differ" i));
                       T.barrier_wait t bar
                     | 1, Flush -> T.barrier_wait t bar
                     | _ -> ())
                  ops)
            : T.t)
       done;
       Samhita.System.run sys;
       !ok)

(* ------------------------------------------------------------------ *)
(* Hit-path allocation with no probe attached                          *)

(* A one-thread system that faulted a line in and dirtied it; afterwards
   accesses to that line are cache hits that perform no effects, so they
   can be called outside the simulation. Under [Sc_invalidate] the line
   is held exclusively, so stores hit too. *)
let warmed_hit_ctx ?config () =
  let sys = Samhita.System.create ?config ~threads:1 () in
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

(* A float the caller already holds boxed, as a kernel's loaded value
   is: the pin is on what the store itself allocates. *)
let boxed_float = Sys.opaque_identity 2.5

(* The only allocation a read hit may make is the value it returns: the
   int64 box (header, custom ops, payload) for [read_i64], the float box
   (header, payload) for [read_f64]. Stores allocate nothing. The
   per-loop Gc.minor_words float rounds to nothing over 10k calls. The
   f64 pins measured 5.00 and 3.00 words while [read_f64]/[write_f64]
   called a non-inlined [read_i64]/[write_i64] through a boxed int64. *)
let test_hit_path_allocation () =
  let t, a = warmed_hit_ctx () in
  let module T = Samhita.Thread_ctx in
  List.iter
    (fun (name, bound, f) ->
       let words = minor_words_per_call f in
       Alcotest.(check bool)
         (Printf.sprintf "%s (%.2f words)" name words)
         true (words < bound))
    [ ("write_i64 hit allocates nothing", 0.01, fun () -> T.write_i64 t a 2L);
      ( "read_i64 hit allocates <= 3 words",
        3.01,
        fun () -> ignore (T.read_i64 t a : int64) );
      ( "read_f64 hit allocates <= 2 words",
        2.01,
        fun () -> ignore (T.read_f64 t a : float) );
      ( "write_f64 hit allocates nothing",
        0.01,
        fun () -> T.write_f64 t a boxed_float ) ]

(* An SC store to an exclusively held line is a hit: it must not build
   the commit closure the acquire transaction needs (measured 5.00 words
   while the closure was built before the hit test). *)
let test_sc_write_hit_allocation () =
  let config =
    { Samhita.Config.default with model = Samhita.Config.Sc_invalidate }
  in
  let t, a = warmed_hit_ctx ~config () in
  let words =
    minor_words_per_call (fun () -> Samhita.Thread_ctx.write_i64 t a 2L)
  in
  Alcotest.(check bool)
    (Printf.sprintf "SC write_i64 hit allocates nothing (%.2f words)" words)
    true (words < 0.01)

(* The Pthreads baseline's cached access: a hit on a line the thread
   owns. Measured 7.00 and 5.00 words while the cost functions returned
   a boxed float and the accessors boxed the int64. *)
let test_smp_hit_path_allocation () =
  let sys = Smp.Runtime.create ~threads:1 () in
  let got = ref None in
  ignore
    (Smp.Runtime.spawn sys (fun t ->
         let a = Smp.Runtime.malloc t ~bytes:64 in
         Smp.Runtime.write_f64 t a 1.0;
         got := Some (t, a))
     : Smp.Runtime.thread);
  Smp.Runtime.run sys;
  let t, a =
    match !got with Some ta -> ta | None -> Alcotest.fail "warmup did not run"
  in
  let read =
    minor_words_per_call (fun () -> ignore (Smp.Runtime.read_f64 t a : float))
  in
  let write =
    minor_words_per_call (fun () -> Smp.Runtime.write_f64 t a boxed_float)
  in
  Alcotest.(check bool)
    (Printf.sprintf "pthreads read_f64 hit allocates <= 2 words (%.2f)" read)
    true (read <= 2.01);
  Alcotest.(check bool)
    (Printf.sprintf "pthreads write_f64 hit allocates nothing (%.2f)" write)
    true (write < 0.01)

(* Re-dirtying a line after [clean] takes its twin pages back from the
   cache's pool, so a thread in steady state allocates no twin. A page
   (4 KiB) is larger than any minor-heap block, so a fresh twin would be
   allocated straight in the major heap: the pin counts those words
   (major words not promoted from the minor heap). Copying a line-sized
   twin on every first write measured 2,050 such words per cycle. *)
let test_twin_pool_reuse () =
  let cache = Samhita.Cache.create cfg layout in
  let e =
    Samhita.Cache.insert cache ~line:0 ~data:(Bytes.make lb '\000')
      ~version:0 ~evict:(fun _ -> ())
  in
  let cycle () =
    for p = 0 to pages - 1 do
      Samhita.Cache.mark_written cache e
        ~offset:(p * layout.Samhita.Layout.page_bytes)
    done;
    Samhita.Cache.clean cache e ~version:0
  in
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  cycle ();
  let before = direct_major () in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let words = (direct_major () -. before) /. 1_000. in
  Alcotest.(check bool)
    (Printf.sprintf "re-dirty after clean allocates no twin (%.2f words)"
       words)
    true (words < 0.01)

(* ------------------------------------------------------------------ *)
(* Lock-path allocation                                                *)

(* Minor words per uncontended mutex_lock + mutex_unlock pair, with an
   empty consistency region or with one [write_i64] inside it. The pair
   suspends, so it is measured inside the simulation and the count
   includes the engine's own work for it. *)
let lock_pair_words ~write =
  let sys = Samhita.System.create ~threads:1 () in
  let lock = Samhita.System.mutex sys in
  let words = ref Float.nan in
  ignore
    (Samhita.System.spawn sys (fun t ->
         let a = if write then Samhita.Thread_ctx.malloc t ~bytes:64 else 0 in
         let pair () =
           Samhita.Thread_ctx.mutex_lock t lock;
           if write then Samhita.Thread_ctx.write_i64 t a 7L;
           Samhita.Thread_ctx.mutex_unlock t lock
         in
         pair ();
         let n = 1_000 in
         let before = Gc.minor_words () in
         for _ = 1 to n do
           pair ()
         done;
         words := (Gc.minor_words () -. before) /. float_of_int n)
     : Samhita.Thread_ctx.t);
  Samhita.System.run sys;
  !words

(* Pinned at 57.12 words (empty region) and 186.12 words (one store),
   measured (OCaml 5.1, no flambda) once the sync path stopped
   allocating per call: engine events build no handler closure or
   option, no float is boxed to convert a transfer time, lookups raise
   [Not_found] instead of returning an option, the acquire and release
   retry without a closure, and the shard keeps [release_seen] records
   and the lock history in place (the .12 is that history's ring
   growing to 64 entries during the loop). Before that, 144.00 and
   328.00, once every grant became a shard push: the thread no longer
   threads an [Ok]/[Error] box and a wake wrapper through its suspend.
   Before that, 154.00 and 338.00, once the lock
   history became a bounded queue, the release path stopped building
   per-call tables and a logged store became one word: the update record
   shares the store's int64 box instead of copying it into an 8-byte
   buffer, and applying it at the home builds no per-line list. The list
   history measured 338.59 and 595.59; the byte-buffer update 154.00 and
   367.00. The 2-word slack absorbs runtime differences; one closure
   added to the lock path costs about 5 words per pair and fails this. *)
let test_lock_pair_allocation () =
  let words = lock_pair_words ~write:false in
  Alcotest.(check bool)
    (Printf.sprintf "lock+unlock pair allocates <= 59.2 words (%.2f)" words)
    true (words <= 59.2)

let test_lock_write_pair_allocation () =
  let words = lock_pair_words ~write:true in
  Alcotest.(check bool)
    (Printf.sprintf "lock+write_i64+unlock allocates <= 188.2 words (%.2f)"
       words)
    true (words <= 188.2)

(* Minor words per episode of a two-thread barrier: both threads arrive,
   the shard pushes both releases, and each applies the (empty) writer
   notices. Measured between thread 0's departures, so the count includes
   thread 1's side and the engine's work for both. *)
let barrier_episode_words () =
  let sys = Samhita.System.create ~threads:2 () in
  let barrier = Samhita.System.barrier sys ~parties:2 in
  let n = 1_000 in
  let before = ref Float.nan and after = ref Float.nan in
  for id = 0 to 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           Samhita.Thread_ctx.barrier_wait t barrier;
           if id = 0 then before := Gc.minor_words ();
           for _ = 1 to n do
             Samhita.Thread_ctx.barrier_wait t barrier
           done;
           if id = 0 then after := Gc.minor_words ())
       : Samhita.Thread_ctx.t)
  done;
  Samhita.System.run sys;
  (!after -. !before) /. float_of_int n

(* Pinned at 191.00 words (OCaml 5.1, no flambda), with the same 2-word
   slack, once engine events, transfers and the shard's barrier lookup
   stopped allocating per call. It measures 189.00 since each arrival's
   retry closure reads its size from [Wire] instead of capturing it. It measured 243.00 before that, and
   289.00 while the last arriver took its own release leg through an
   [Ok]/[Error] box and the shard kept a replay copy of every released
   episode. *)
let test_barrier_episode_allocation () =
  let words = barrier_episode_words () in
  Alcotest.(check bool)
    (Printf.sprintf "two-thread barrier episode allocates <= 193.0 words (%.2f)"
       words)
    true (words <= 193.0)

let tests =
  [ QCheck_alcotest.to_alcotest prop_diff_matches_reference;
    QCheck_alcotest.to_alcotest prop_victims_match_scan;
    QCheck_alcotest.to_alcotest prop_heap_matches_boxed;
    QCheck_alcotest.to_alcotest prop_lock_history_matches_list;
    QCheck_alcotest.to_alcotest prop_page_twins_match_line_twins;
    Alcotest.test_case "no-probe hit path allocation" `Quick
      test_hit_path_allocation;
    Alcotest.test_case "SC write hit allocation" `Quick
      test_sc_write_hit_allocation;
    Alcotest.test_case "pthreads hit path allocation" `Quick
      test_smp_hit_path_allocation;
    Alcotest.test_case "twin pages reused after clean" `Quick
      test_twin_pool_reuse;
    Alcotest.test_case "uncontended lock pair allocation" `Quick
      test_lock_pair_allocation;
    Alcotest.test_case "lock pair with one store allocation" `Quick
      test_lock_write_pair_allocation;
    Alcotest.test_case "two-thread barrier episode allocation" `Quick
      test_barrier_episode_allocation ]

let () = Alcotest.run "hotpath-equiv" [ ("equivalence", tests) ]

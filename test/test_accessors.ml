(* Tests for the word accessors and the run report. *)

module T = Samhita.Thread_ctx

let cfg = Samhita.Config.default
let line_bytes = Samhita.Config.line_bytes cfg

let run_threads ?config ~threads body =
  let sys = Samhita.System.create ?config ~threads () in
  for tid = 0 to threads - 1 do
    ignore (Samhita.System.spawn sys (fun t -> body sys tid t) : T.t)
  done;
  Samhita.System.run sys;
  sys

(* ---------------- run report ---------------- *)

let report sys = Format.asprintf "%a" Samhita.Metrics.pp_report sys

let test_report_contents () =
  let sys =
    run_threads ~threads:2 (fun sys tid t ->
        ignore sys;
        let a = T.malloc t ~bytes:(2 * line_bytes) in
        T.write_f64 t a (float_of_int tid);
        ignore (T.read_f64 t (a + line_bytes)))
  in
  let net = Samhita.System.network sys in
  Alcotest.(check bool) "fabric carried traffic" true
    (Fabric.Network.bytes_carried net > 0 && Fabric.Network.messages net > 0);
  Alcotest.(check bool) "misses happened" true
    ((Samhita.Metrics.of_system sys).total_misses > 0);
  let text = report sys in
  List.iter
    (fun section ->
       Alcotest.(check bool) (section ^ " section present") true
         (List.exists
            (String.starts_with ~prefix:section)
            (String.split_on_char '\n' text)))
    [ "== run report =="; "makespan"; "fabric"; "manager";
      "memory server 0"; "cache hit rate"; "  t0:"; "  t1:" ]

(* Exactly one function decides which counter lines a report prints:
   each configured feature adds its own line and a healthy run none. *)
let test_report_counter_lines () =
  let ft =
    { cfg with
      memory_servers = 2;
      replication = 1;
      lease_interval = Desim.Time.ns 20_000 }
  in
  let labels =
    [ "fault injection"; "fault tolerance"; "failure detection";
      "control plane" ]
  in
  List.iter
    (fun (name, config, want) ->
       let sys =
         run_threads ~config ~threads:2 (fun _ tid t ->
             let a = T.malloc t ~bytes:line_bytes in
             T.write_f64 t a (float_of_int tid);
             ignore (T.read_f64 t a))
       in
       let lines = String.split_on_char '\n' (report sys) in
       Alcotest.(check (list string)) name want
         (List.filter
            (fun l -> List.exists (String.starts_with ~prefix:l) lines)
            labels))
    [ ("healthy", cfg, []);
      ( "fault level low",
        { cfg with fault_level = Fabric.Faults.Low },
        [ "fault injection" ] );
      ( "replicated crash",
        { ft with fault = Some (Crash_server { server = 0; at_ns = 5_000 }) },
        [ "fault injection"; "fault tolerance" ] );
      ( "partition",
        { ft with
          fault =
            Some
              (Partition_server
                 { server = 0; scope = Isolate; start_ns = 5_000;
                   heal_ns = 400_000 }) },
        [ "fault injection"; "fault tolerance"; "failure detection" ] );
      ("two shards", { cfg with manager_shards = 2 }, [ "control plane" ]) ]

let tests =
  [ Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "report counter lines" `Quick
      test_report_counter_lines ]

(* The f64 accessors and the i64 ones share one access body; RegC
   ordinary-region stores with no probe take an inline branch, and every
   other store goes through the general path. Run one random program
   through the f64 accessors, the i64 ones, and the i64 ones with a
   silent probe attached (which sends every store down the general
   path), and compare everything the store path touches: cached line
   bytes, twins, dirty marks, region logs, the probe's events and the
   homes' lines. The cases cover the branches the inline store skips. *)
type word_op = Read of int | Write of int * int64 | Toggle_region

let word_offsets =
  let page = cfg.Samhita.Config.page_bytes in
  [| 0; 8; page; (2 * page) + 16; (3 * page) + 8 |]

let word_addr base w =
  let per_line = Array.length word_offsets in
  base + (w / per_line * line_bytes) + word_offsets.(w mod per_line)

let n_words = 3 * Array.length word_offsets

let hex b = Digest.to_hex (Digest.bytes b)

(* The twin pages of the dirty pages, as "page:digest" (a clean page has
   no twin). *)
let twin_pages (e : Samhita.Cache.entry) =
  String.concat ","
    (List.filter_map
       (fun p ->
          if e.dirty_pages land (1 lsl p) <> 0 then
            Some (Printf.sprintf "%d:%s" p (hex e.twins.(p)))
          else None)
       (List.init (Array.length e.twins) Fun.id))

(* The cache and region state a thread leaves, as comparable lines. *)
let snapshot t =
  let entries =
    List.sort
      (fun a b -> compare a.Samhita.Cache.line b.Samhita.Cache.line)
      (Samhita.Cache.entries (T.cache t))
  in
  List.map
    (fun (e : Samhita.Cache.entry) ->
       Printf.sprintf "t%d line=%d v=%d data=%s twin=%s dirty=%x excl=%b"
         (T.id t) e.line e.version (hex e.data)
         (twin_pages e)
         e.dirty_pages e.excl)
    entries
  @ List.map
      (fun (u : Samhita.Update.t) ->
         Printf.sprintf "t%d log addr=%d value=%Ld" (T.id t) u.addr u.value)
      (T.region_log t)

let event_probe events =
  let add fmt = Printf.ksprintf (fun s -> events := s :: !events) fmt in
  { Samhita.Probe.nothing with
    on_read =
      (fun ~thread ~time ~addr ~value ->
         add "read t%d @%d %d %Ld" thread (Desim.Time.to_ns time) addr value);
    on_write =
      (fun ~thread ~time ~addr ~region ~value ->
         add "write t%d @%d %d r%d %Ld" thread (Desim.Time.to_ns time) addr
           region value);
    on_publish =
      (fun ~thread ~time ~server ~line ~version ~data ->
         add "publish t%d @%d s%d line=%d v=%d %s" thread
           (Desim.Time.to_ns time) server line version (hex data)) }

(* Two threads run rounds of their ops on three shared lines, with a
   barrier between rounds. [Toggle_region] takes or drops the one lock,
   so a round can mix ordinary and region stores to one line; a round
   still inside the region is snapshotted, then the lock is dropped. *)
let run_program ~config ~probe ~f64 program =
  let out = ref [] in
  let note s = out := s :: !out in
  let events = ref [] in
  let sys = Samhita.System.create ~config ~threads:2 () in
  (match probe with
   | `Events -> Samhita.System.add_probe sys (event_probe events)
   | `Silent -> Samhita.System.add_probe sys Samhita.Probe.nothing
   | `None -> ());
  let m = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:2 in
  let base = ref 0 in
  for tid = 0 to 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:(3 * line_bytes);
           T.barrier_wait t bar;
           List.iter
             (fun per_thread ->
                let held = ref false in
                List.iter
                  (function
                    | Read w ->
                      let a = word_addr !base w in
                      let v =
                        if f64 then Int64.bits_of_float (T.read_f64 t a)
                        else T.read_i64 t a
                      in
                      note (Printf.sprintf "t%d read %d = %Ld" tid w v)
                    | Write (w, v) ->
                      let a = word_addr !base w in
                      if f64 then T.write_f64 t a (Int64.float_of_bits v)
                      else T.write_i64 t a v
                    | Toggle_region ->
                      if !held then T.mutex_unlock t m else T.mutex_lock t m;
                      held := not !held)
                  per_thread.(tid);
                List.iter note (snapshot t);
                if !held then T.mutex_unlock t m;
                T.barrier_wait t bar)
             program)
        : T.t)
  done;
  Samhita.System.run sys;
  Array.iter
    (fun srv ->
       Samhita.Memory_server.iter_lines srv (fun line data v ->
           note
             (Printf.sprintf "s%d line=%d v=%d %s"
                (Samhita.Memory_server.id srv) line v (hex data))))
    (Samhita.System.servers sys);
  List.rev_append !out (List.rev !events)

(* Values are bits of ordinary floats (never a NaN, whose payload a float
   round trip need not keep), with zero mixed in so that some stores
   restore the twin's bytes. *)
let gen_program ~regions =
  let open QCheck.Gen in
  let value =
    frequency
      [ (1, return 0L);
        (4, map Int64.bits_of_float (float_range (-1e6) 1e6)) ]
  in
  let word = int_bound (n_words - 1) in
  let op =
    frequency
      [ (2, map (fun w -> Read w) word);
        (4, map2 (fun w v -> Write (w, v)) word value);
        ((if regions then 1 else 0), return Toggle_region) ]
  in
  list_size (int_range 1 3) (array_repeat 2 (list_size (int_range 0 16) op))

let prop_f64_matches_i64 (name, config, regions, probe) =
  QCheck.Test.make ~name:("f64 = i64: " ^ name) ~count:25
    (QCheck.make (gen_program ~regions))
    (fun program ->
       let run ~probe ~f64 = run_program ~config ~probe ~f64 program in
       let attached = if probe then `Events else `None in
       let i64 = run ~probe:attached ~f64:false in
       run ~probe:attached ~f64:true = i64
       && (probe || run ~probe:`Silent ~f64:false = i64))

let equivalence_cases =
  let sc = { cfg with model = Samhita.Config.Sc_invalidate } in
  [ ("plain RegC", cfg, false, false);
    ("with lock regions", cfg, true, false);
    ("Sc_invalidate", sc, false, false);
    ("probe attached", cfg, true, true) ]

let () =
  Alcotest.run "samhita.accessors"
    [ ("accessors+report", tests);
      ( "f64-i64",
        List.map
          (fun case -> QCheck_alcotest.to_alcotest (prop_f64_matches_i64 case))
          equivalence_cases ) ]

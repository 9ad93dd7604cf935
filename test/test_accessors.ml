(* Tests for the byte/word/bulk accessors and the run report. *)

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

(* ---------------- scalar accessors ---------------- *)

let test_u8_roundtrip () =
  ignore
    (run_threads ~threads:1 (fun _ _ t ->
         let a = T.malloc t ~bytes:16 in
         for i = 0 to 15 do
           T.write_u8 t (a + i) (200 + i)
         done;
         for i = 0 to 15 do
           Alcotest.(check int) "byte" (200 + i) (T.read_u8 t (a + i))
         done))

let test_u8_range_checked () =
  ignore
    (run_threads ~threads:1 (fun _ _ t ->
         let a = T.malloc t ~bytes:8 in
         Alcotest.check_raises "range"
           (Invalid_argument "Samhita.write_u8: value out of range")
           (fun () -> T.write_u8 t a 256)))

let test_i32_f32_roundtrip () =
  ignore
    (run_threads ~threads:1 (fun _ _ t ->
         let a = T.malloc t ~bytes:16 in
         T.write_i32 t a 0xDEADBEEFl;
         T.write_f32 t (a + 4) 1.5;
         Alcotest.(check int32) "i32" 0xDEADBEEFl (T.read_i32 t a);
         Alcotest.(check (float 0.)) "f32" 1.5 (T.read_f32 t (a + 4));
         Alcotest.check_raises "alignment"
           (Invalid_argument "Samhita: 4-byte accesses must be 4-byte aligned")
           (fun () -> ignore (T.read_i32 t (a + 2)))))

let test_mixed_width_same_word () =
  ignore
    (run_threads ~threads:1 (fun _ _ t ->
         let a = T.malloc t ~bytes:8 in
         T.write_i64 t a 0L;
         T.write_u8 t (a + 3) 0xAB;
         let v = T.read_i64 t a in
         Alcotest.(check int64) "byte visible inside the word"
           (Int64.shift_left 0xABL 24) v))

(* ---------------- bulk transfers ---------------- *)

let test_bulk_roundtrip_within_line () =
  ignore
    (run_threads ~threads:1 (fun _ _ t ->
         let a = T.malloc t ~bytes:256 in
         let src = Bytes.init 100 (fun i -> Char.chr (i mod 256)) in
         T.write_bytes t (a + 16) src;
         let back = T.read_bytes t (a + 16) ~len:100 in
         Alcotest.(check bytes) "roundtrip" src back))

let test_bulk_straddles_lines () =
  ignore
    (run_threads ~threads:1 (fun _ _ t ->
         (* A large-enough allocation spans several lines; write across the
            first boundary. *)
         let a = T.malloc t ~bytes:(3 * line_bytes) in
         let start = a + line_bytes - 64 in
         let src = Bytes.init 128 (fun i -> Char.chr ((i * 7) mod 256)) in
         T.write_bytes t start src;
         Alcotest.(check bytes) "across boundary" src
           (T.read_bytes t start ~len:128);
         (* The byte just past the range is untouched. *)
         Alcotest.(check int) "no overrun" 0 (T.read_u8 t (start + 128))))

let test_bulk_empty_and_invalid () =
  ignore
    (run_threads ~threads:1 (fun _ _ t ->
         let a = T.malloc t ~bytes:8 in
         T.write_bytes t a (Bytes.create 0);
         Alcotest.(check bytes) "empty read" (Bytes.create 0)
           (T.read_bytes t a ~len:0);
         Alcotest.check_raises "negative len"
           (Invalid_argument "Samhita.read_bytes: negative length")
           (fun () -> ignore (T.read_bytes t a ~len:(-1)))))

(* Cross-thread propagation of sub-word ordinary writes (bytewise diffs
   must carry exactly the written bytes). *)
let test_u8_diff_propagation () =
  let threads = 2 in
  let base = ref 0 in
  let errors = ref 0 in
  let sys = Samhita.System.create ~threads () in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:64;
           T.barrier_wait t bar;
           (* Interleaved single bytes from both threads in one word. *)
           for i = 0 to 31 do
             if i mod threads = tid then T.write_u8 t (!base + i) (64 + i)
           done;
           T.barrier_wait t bar;
           for i = 0 to 31 do
             if T.read_u8 t (!base + i) <> 64 + i then incr errors
           done)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check int) "interleaved bytes merge" 0 !errors

(* Bulk writes inside a consistency region propagate via the update log. *)
let test_bulk_in_region_propagates () =
  let threads = 2 in
  let base = ref 0 in
  let seen = ref Bytes.empty in
  let payload = Bytes.init 48 (fun i -> Char.chr (255 - i)) in
  let sys = Samhita.System.create ~threads () in
  let m = Samhita.System.mutex sys in
  let bar = Samhita.System.barrier sys ~parties:threads in
  for tid = 0 to threads - 1 do
    ignore
      (Samhita.System.spawn sys (fun t ->
           if tid = 0 then base := T.malloc t ~bytes:64;
           T.barrier_wait t bar;
           if tid = 0 then begin
             T.mutex_lock t m;
             T.write_bytes t !base payload;
             T.mutex_unlock t m
           end;
           T.barrier_wait t bar;
           if tid = 1 then begin
             T.mutex_lock t m;
             seen := T.read_bytes t !base ~len:48;
             T.mutex_unlock t m
           end)
        : T.t)
  done;
  Samhita.System.run sys;
  Alcotest.(check bytes) "region bulk store reaches peer" payload !seen

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
  [ Alcotest.test_case "u8 roundtrip" `Quick test_u8_roundtrip;
    Alcotest.test_case "u8 range" `Quick test_u8_range_checked;
    Alcotest.test_case "i32/f32 roundtrip" `Quick test_i32_f32_roundtrip;
    Alcotest.test_case "mixed width" `Quick test_mixed_width_same_word;
    Alcotest.test_case "bulk within line" `Quick
      test_bulk_roundtrip_within_line;
    Alcotest.test_case "bulk straddles lines" `Quick
      test_bulk_straddles_lines;
    Alcotest.test_case "bulk edge cases" `Quick test_bulk_empty_and_invalid;
    Alcotest.test_case "u8 diff propagation" `Quick
      test_u8_diff_propagation;
    Alcotest.test_case "bulk region propagation" `Quick
      test_bulk_in_region_propagates;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "report counter lines" `Quick
      test_report_counter_lines ]

(* Randomized byte-granularity property: random byte offsets partitioned
   over the threads, written per round, compared against a byte-array
   oracle after each barrier. Byte-exact diffs make even neighbouring-byte
   writers by different threads merge correctly. *)
let prop_random_byte_program =
  let gen rng =
    let int_range lo hi = QCheck.Gen.int_range lo hi rng in
    let threads = int_range 2 4 in
    let rounds = int_range 1 4 in
    let nbytes = int_range 1 40 in
    let chosen = Hashtbl.create 16 in
    let offsets =
      Array.init nbytes (fun _ ->
          let rec draw () =
            let o = int_range 0 (line_bytes - 1) in
            if Hashtbl.mem chosen o then draw ()
            else begin
              Hashtbl.replace chosen o ();
              o
            end
          in
          draw ())
    in
    let owner =
      Array.init rounds (fun _ ->
          Array.init nbytes (fun _ -> int_range 0 (threads - 1)))
    in
    (threads, rounds, offsets, owner)
  in
  let arb =
    QCheck.make
      ~print:(fun (t, r, o, _) ->
        Printf.sprintf "{threads=%d; rounds=%d; bytes=%d}" t r
          (Array.length o))
      gen
  in
  QCheck.Test.make ~name:"random byte-granularity programs match the oracle"
    ~count:30 arb
    (fun (threads, rounds, offsets, owner) ->
       let nbytes = Array.length offsets in
       let oracle = Array.make nbytes 0 in
       let observed = Array.make_matrix rounds nbytes (-1) in
       let base = ref 0 in
       let sys = Samhita.System.create ~threads () in
       let bar = Samhita.System.barrier sys ~parties:threads in
       for tid = 0 to threads - 1 do
         ignore
           (Samhita.System.spawn sys (fun t ->
                if tid = 0 then base := T.malloc t ~bytes:line_bytes;
                T.barrier_wait t bar;
                for r = 0 to rounds - 1 do
                  Array.iteri
                    (fun v off ->
                       if owner.(r).(v) = tid then
                         T.write_u8 t (!base + off)
                           ((((r * 37) + v) mod 255) + 1))
                    offsets;
                  T.barrier_wait t bar;
                  if tid = r mod threads then
                    Array.iteri
                      (fun v off ->
                         observed.(r).(v) <- T.read_u8 t (!base + off))
                      offsets;
                  T.barrier_wait t bar
                done)
             : T.t)
       done;
       Samhita.System.run sys;
       let ok = ref true in
       for r = 0 to rounds - 1 do
         for v = 0 to nbytes - 1 do
           oracle.(v) <- (((r * 37) + v) mod 255) + 1;
           if observed.(r).(v) <> oracle.(v) then ok := false
         done
       done;
       !ok)

let () =
  Alcotest.run "samhita.accessors"
    [ ("accessors+report", tests);
      ("random-bytes", [ QCheck_alcotest.to_alcotest prop_random_byte_program ]) ]

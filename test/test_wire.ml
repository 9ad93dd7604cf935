(* Byte accounting: every protocol exchange adds to the fabric exactly the
   messages and bytes its Samhita.Wire entries name. One thread on the
   default config without prefetch, so nothing else is on the fabric
   while an exchange runs. *)

module T = Samhita.Thread_ctx
module W = Samhita.Wire

let config = { Samhita.Config.default with prefetch = false }
let layout = Samhita.Layout.of_config config
let line_bytes = layout.Samhita.Layout.line_bytes

(* A list of [n] entries, for the per-entry formulas. *)
let entries n = List.init n (fun _ -> ())

(* A word whose eight bytes all differ from zero: its diff is one 8-byte
   span. *)
let word = 0x0102030405060708L
let word_diff = W.diff ~spans:1 ~payload:8

let run body =
  let sys = Samhita.System.create ~config ~threads:1 () in
  ignore (Samhita.System.spawn sys (fun t -> body sys t) : T.t);
  Samhita.System.run sys

(* Run [f] and check the fabric messages and bytes it adds. *)
let exchange sys name ~messages ~bytes f =
  let net = Samhita.System.network sys in
  let m0 = Fabric.Network.messages net in
  let b0 = Fabric.Network.bytes_carried net in
  f ();
  Alcotest.(check int) (name ^ ": messages") messages
    (Fabric.Network.messages net - m0);
  Alcotest.(check int) (name ^ ": bytes") bytes
    (Fabric.Network.bytes_carried net - b0)

let test_malloc () =
  run (fun sys t ->
      exchange sys "shared-zone malloc" ~messages:2
        ~bytes:(W.alloc_request + W.alloc_reply) (fun () ->
          ignore (T.malloc t ~bytes:(2 * config.small_threshold) : int)))

let test_demand_fetch () =
  run (fun sys t ->
      let a = T.malloc t ~bytes:line_bytes in
      exchange sys "demand fetch" ~messages:2
        ~bytes:(W.fetch_request + W.line_reply layout) (fun () ->
          ignore (T.read_i64 t a : int64)))

let test_lock_pairs () =
  run (fun sys t ->
      let l = Samhita.System.mutex sys in
      let a = T.malloc t ~bytes:line_bytes in
      ignore (T.read_i64 t a : int64);
      let acquire = W.acquire_request + W.grant ~log:[] ~line_versions:[] in
      exchange sys "read-only lock pair" ~messages:4
        ~bytes:(acquire + W.release ~log:[] ~line_versions:[] + W.ack)
        (fun () ->
          T.mutex_lock t l;
          T.mutex_unlock t l);
      (* The store's update log goes home first, then rides the release
         with the line version it produced. *)
      exchange sys "lock pair with one region store" ~messages:6
        ~bytes:
          (acquire + W.update_log (entries 1) + W.diff_ack
           + W.release ~log:(entries 1) ~line_versions:(entries 1)
           + W.ack)
        (fun () ->
          T.mutex_lock t l;
          T.write_i64 t a word;
          T.mutex_unlock t l))

let test_barrier () =
  run (fun sys t ->
      let b = Samhita.System.barrier sys ~parties:1 in
      let a = T.malloc t ~bytes:line_bytes in
      ignore (T.read_i64 t a : int64);
      T.write_i64 t a word;
      exchange sys "one-party barrier after one store" ~messages:4
        ~bytes:
          (word_diff + W.batch_ack (entries 1)
           + W.barrier_arrive (entries 1)
           + W.barrier_release (entries 1))
        (fun () -> T.barrier_wait t b))

let test_eviction_flush () =
  run (fun sys t ->
      let n = config.cache_lines in
      let big = T.malloc t ~bytes:((n + 1) * line_bytes) in
      for i = 0 to n - 1 do
        ignore (T.read_i64 t (big + (i * line_bytes)) : int64)
      done;
      (* The only dirty line is the first victim of the next miss. *)
      T.write_i64 t (big + ((n - 1) * line_bytes)) word;
      exchange sys "miss evicting a dirty line" ~messages:4
        ~bytes:
          (W.fetch_request + W.line_reply layout + word_diff + W.diff_ack)
        (fun () -> ignore (T.read_i64 t (big + (n * line_bytes)) : int64)))

let () =
  Alcotest.run "wire"
    [ ( "wire-bytes",
        [ Alcotest.test_case "shared-zone malloc" `Quick test_malloc;
          Alcotest.test_case "demand fetch" `Quick test_demand_fetch;
          Alcotest.test_case "lock pairs" `Quick test_lock_pairs;
          Alcotest.test_case "one-party barrier" `Quick test_barrier;
          Alcotest.test_case "eviction flush" `Quick test_eviction_flush ] ) ]

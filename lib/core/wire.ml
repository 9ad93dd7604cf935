(* The wire table, in bytes. wire.mli says which message each entry is. *)

let fetch_request = 32
let line_reply_overhead = 32
let diff_ack = 24
let alloc_request = 32
let alloc_reply = 16
let cond_request = 32
let barrier_arrive_base = 32
let mirror_overhead = 32
let ack = 16
let acquire_request = 48
let grant_framing = 48
let notice_entry = 12
let heartbeat = 24

(* Per-entry parts of the formulas below. *)
let update_entry = 12 + 8  (* framing + the word *)
let diff_framing = 16
let span_framing = 12
let batch_ack_entry = 12
let arrive_line_entry = 8

let line_reply (l : Layout.t) = l.Layout.line_bytes + line_reply_overhead
let mirror ~payload = payload + mirror_overhead
let update_log log = List.length log * update_entry
let update_log_service = update_log
let notices ns = List.length ns * notice_entry
let diff ~spans ~payload = diff_framing + (span_framing * spans) + payload
let batch_ack batch = diff_ack + (batch_ack_entry * List.length batch)

let barrier_arrive lines =
  barrier_arrive_base + (arrive_line_entry * List.length lines)

let barrier_release all = ack + notices all
let release ~log ~line_versions = ack + update_log log + notices line_versions

let grant ~log ~line_versions =
  grant_framing + update_log log + notices line_versions

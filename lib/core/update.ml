type t = { addr : int; data : bytes }

let framing = 12

let of_i64 ~addr v =
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 v;
  { addr; data }

let wire_bytes t = framing + Bytes.length t.data

let log_wire_bytes log =
  List.fold_left (fun acc u -> acc + wire_bytes u) 0 log

let apply_to_line (layout : Layout.t) t ~line buf =
  let len = Bytes.length t.data in
  let base = Layout.line_base layout line in
  let lo = max t.addr base in
  let hi = min (t.addr + len) (base + layout.Layout.line_bytes) in
  if lo < hi then
    Bytes.blit t.data (lo - t.addr) buf (lo - base) (hi - lo)

let lines_touched layout t =
  let len = Bytes.length t.data in
  if len = 0 then []
  else begin
    let first, last = Layout.lines_spanning layout ~addr:t.addr ~len in
    let rec build i acc = if i < first then acc else build (i - 1) (i :: acc) in
    build last []
  end

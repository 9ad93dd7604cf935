type t = { addr : int; value : int64 }

let of_i64 ~addr value =
  if addr land 7 <> 0 then invalid_arg "Update.of_i64: unaligned word";
  { addr; value }

let line_of (layout : Layout.t) t = t.addr lsr layout.Layout.line_shift

let apply_to_line (layout : Layout.t) t ~line buf =
  if line_of layout t = line then
    Bytes.set_int64_le buf (t.addr land layout.Layout.line_mask) t.value

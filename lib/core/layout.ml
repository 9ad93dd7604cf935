type t = {
  page_bytes : int;
  pages_per_line : int;
  line_bytes : int;
  line_shift : int;
  line_mask : int;
  page_shift : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let of_config (cfg : Config.t) =
  let line_bytes = Config.line_bytes cfg in
  { page_bytes = cfg.Config.page_bytes;
    pages_per_line = cfg.Config.pages_per_line;
    line_bytes;
    line_shift = log2 line_bytes;
    line_mask = line_bytes - 1;
    page_shift = log2 cfg.Config.page_bytes }

let line_of_addr t addr = addr lsr t.line_shift
let line_base t id = id lsl t.line_shift
let offset_in_line t addr = addr land t.line_mask
let page_in_line t ~offset = offset lsr t.page_shift

let pp ppf t =
  Format.fprintf ppf "page=%dB line=%dB (%d pages)" t.page_bytes t.line_bytes
    t.pages_per_line

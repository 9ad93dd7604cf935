type t = int
type span = int

let zero = 0
let of_ns n = n
let to_ns t = t
let add t d = t + d
let diff a b = a - b
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let compare (a : t) (b : t) = Stdlib.compare a b
let max (a : t) (b : t) = Stdlib.max a b
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

(* The one rounding rule. The entry points below apply it to a float
   they compute here, so a caller in another module never passes (and
   boxes) a freshly computed float. *)
let[@inline] span_of_float_ns f =
  if Stdlib.( <= ) f 0. then 0 else int_of_float (Float.round f)

let span_of_rate ~bytes ~bytes_per_s =
  span_of_float_ns (float_of_int bytes /. bytes_per_s *. 1e9)

let span_of_units ~units ~ns_per_unit =
  span_of_float_ns (float_of_int units *. ns_per_unit)

let span_of_float_ns_at a i = span_of_float_ns (Float.Array.get a i)

let to_float_s t = float_of_int t *. 1e-9

let pp_raw ppf (n : int) =
  if n < 1_000 then Format.fprintf ppf "%dns" n
  else if n < 1_000_000 then Format.fprintf ppf "%.2fus" (float_of_int n /. 1e3)
  else if n < 1_000_000_000 then
    Format.fprintf ppf "%.2fms" (float_of_int n /. 1e6)
  else Format.fprintf ppf "%.3fs" (float_of_int n /. 1e9)

let pp ppf t = pp_raw ppf t
let pp_span ppf d = pp_raw ppf d

(** Address arithmetic for the shared global address space.

    Addresses are byte offsets into the GAS. A {e page} is the unit of
    fine-grained dirty tracking; a {e line} is the unit of caching and
    transfer ([pages_per_line] pages). Both are powers of two so all
    arithmetic is shifts and masks on the access fast path. *)

type t = private {
  page_bytes : int;
  pages_per_line : int;
  line_bytes : int;
  line_shift : int;
  line_mask : int;  (** [addr land line_mask] = offset within the line. *)
  page_shift : int;
}

val of_config : Config.t -> t

val line_of_addr : t -> int -> int
val line_base : t -> int -> int
(** Base address of line [id]. *)

val offset_in_line : t -> int -> int
val page_in_line : t -> offset:int -> int
(** Index of the page containing byte [offset] of a line. *)

val pp : Format.formatter -> t -> unit

(** Growable thread-id sets (dense bitmaps over an [int array]).

    Replaces the historical single-int sharer/writer bitmasks whose 63-bit
    width capped the system at 62 threads. Iteration order is ascending
    thread id, matching the old mask-scan order, so protocol decisions that
    depend on enumeration order are unchanged for <= 62 threads. *)

type t

val create : unit -> t
(** The empty set. Capacity grows on demand. *)

val clear : t -> unit

val add : t -> int -> unit
(** Raises [Invalid_argument] on a negative id. *)

val remove : t -> int -> unit

val to_list : t -> int list
(** Ascending thread id. *)

val exists_other : t -> self:int -> bool
(** [exists_other t ~self] is [true] iff [t] contains a member other than
    [self] — the "did anyone else write this line?" test at barriers. *)

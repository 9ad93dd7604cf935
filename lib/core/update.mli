(** Fine-grained (data-object level) update records.

    Stores performed inside a consistency region are logged as updates
    (paper §II: the LLVM pass instruments such stores; here the runtime
    logs them as the API executes). At lock release the log is applied at
    the homes and retained by the manager so the next acquirer can patch
    its cached copies instead of invalidating them. *)

type t = { addr : int; data : bytes }

val of_i64 : addr:int -> int64 -> t

val wire_bytes : t -> int
val log_wire_bytes : t list -> int

val apply_to_line : Layout.t -> t -> line:int -> bytes -> unit
(** Apply the portion of the update that falls within [line] to a
    line-sized buffer (updates may in principle straddle lines). *)

val lines_touched : Layout.t -> t -> int list
(** Ascending line ids covered by the update. *)

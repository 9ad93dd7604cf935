(** Fine-grained (data-object level) update records.

    Stores performed inside a consistency region are logged as updates
    (paper §II: the LLVM pass instruments such stores; here the runtime
    logs them as the API executes). At lock release the log is applied at
    the homes and retained by the manager so the next acquirer can patch
    its cached copies instead of invalidating them.

    An update is one aligned 8-byte word, the only store width the
    runtime has, so it always lies within a single line. *)

type t = private { addr : int; value : int64 }

val of_i64 : addr:int -> int64 -> t
(** [addr] must be 8-aligned. *)

val line_of : Layout.t -> t -> int
(** The line holding the word. *)

val apply_to_line : Layout.t -> t -> line:int -> bytes -> unit
(** Store the word into a line-sized buffer holding line [line]; a no-op
    when the word lies in another line. *)

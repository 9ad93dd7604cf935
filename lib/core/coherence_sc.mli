(** The sequential-consistency comparison protocol.

    {!Config.model}[ = Sc_invalidate] runs the runtime as a classic
    IVY-lineage single-writer DSM instead of RegC: every line has at most
    one writer (the {e owner}, holding it exclusive) or any number of
    readers (the {e sharers}); a write invalidates every other copy, a read
    of an exclusively-held line recalls it (writeback + downgrade). The
    paper's premise (§I-II) is that this class of protocol is what makes
    strong consistency unaffordable on DSM; the [abl-sc] ablation measures
    that claim against RegC.

    This module owns the protocol: the per-line directory, the per-thread
    peers (node and cache) that recalls and invalidations act on, and the
    transactions with their round trips. {!Thread_ctx} dispatches to it on
    a read miss, a store and an eviction. *)

val create : unit -> Ctx.sc_dir
(** An empty directory, shared by every thread of one system. *)

val register : Ctx.t -> unit
(** Called at thread creation; thread ids must be below
    {!Config.max_threads}. *)

val owner : Ctx.sc_dir -> line:int -> int option
(** The thread holding [line] exclusively, if any. *)

val evict : Ctx.t -> Cache.entry -> unit
(** The SC arm of eviction: write an exclusive copy back home, or leave
    the sharer set. *)

val read_fetch : Ctx.t -> int -> Cache.entry
(** A read miss on a line (the clock synchronized). *)

val owned : Ctx.t -> int -> Cache.entry
(** The entry holding the byte address, with the hit counted, when this
    thread holds its line exclusively; [Not_found] otherwise. The caller
    charges the access. *)

val store_miss : Ctx.t -> int -> int64 -> unit
(** Store the word at the byte address inside the transaction that
    acquires its line exclusively. *)

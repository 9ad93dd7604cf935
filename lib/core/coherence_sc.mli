(** Directory state for the sequential-consistency comparison mode.

    {!Config.model}[ = Sc_invalidate] runs the runtime as a classic
    IVY-lineage single-writer DSM instead of RegC: every line has at most
    one writer (the {e owner}, holding it exclusive) or any number of
    readers (the {e sharers}); a write invalidates every other copy, a read
    of an exclusively-held line recalls it (writeback + downgrade). The
    paper's premise (§I-II) is that this class of protocol is what makes
    strong consistency unaffordable on DSM; the [abl-sc] ablation measures
    that claim against RegC.

    This module is the bookkeeping only: a per-line directory entry and a
    registry of per-thread peers (node and cache) that the protocol driver
    in {!Thread_ctx} uses to act on remote caches. Timing (recall and
    invalidation round trips) is charged by the driver. *)

type t

type peer = {
  p_node : Fabric.Network.node;  (** For recall/invalidation transfers. *)
  p_cache : Cache.t;  (** The peer's cache, recalled and invalidated. *)
}

val create : unit -> t

val register : t -> thread:int -> node:Fabric.Network.node -> Cache.t -> unit
(** Threads register themselves at creation. Thread ids must be below
    {!Config.max_threads}. *)

val peer : t -> int -> peer

(** {2 Directory entries} *)

val owner : t -> line:int -> int option

val set_owner : t -> line:int -> thread:int -> unit
(** Make [thread] the exclusive owner (sharers cleared). *)

val clear_owner : t -> line:int -> unit
val add_sharer : t -> line:int -> thread:int -> unit
val drop_sharer : t -> line:int -> thread:int -> unit

val sharer_list : t -> line:int -> int list
(** Ascending thread ids currently sharing the line. *)

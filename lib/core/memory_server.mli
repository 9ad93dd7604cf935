(** A memory server: backing store for its share of the global address
    space.

    Servers are passive state in the simulation — a requesting thread's
    interaction mutates the store and charges time through the server's
    service {!Desim.Resource} and the fabric, so concurrent requests from
    many threads queue exactly as they would at a busy server. Lines
    materialize zero-filled on first touch (demand-zero backing). *)

type t

val create :
  Config.t -> Layout.t -> id:int -> endpoint:Fabric.Scl.endpoint -> t

val id : t -> int
val endpoint : t -> Fabric.Scl.endpoint
val service : t -> Desim.Resource.t

val set_backup : t -> t -> unit
(** Wire this server's primary-backup replica ([Config.replication = 1];
    {!System.create} picks the ring successor via
    {!Directory.backup_of}). *)

val backup : t -> t option

val iter_lines : t -> (int -> bytes -> int -> unit) -> unit
(** Visit every materialized line as [(line_id, contents, version)], in
    line-id order (deterministic), e.g. to compare a server's whole store
    against a reference. *)

val line : t -> int -> bytes
(** The live backing buffer for a line (zero-filled on first touch). The
    returned buffer is the store's own: callers must not alias it into a
    cache — use {!fetch}. *)

val version : t -> int -> int
(** Current version of a line; 0 until first written. *)

val fetch : t -> int -> bytes * int
(** Copy of the line contents and its version (a page/line fetch reply). *)

val apply_diff : t -> Diff.t -> int
(** Merge a writer's diff into the backing line; returns the new version. *)

val apply_update : t -> Update.t -> int * int
(** Apply a fine-grained update; returns [(line, new_version)] of the one
    line it touched. *)

val note_mirror : t -> bytes:int -> unit
(** A write to this primary was successfully mirrored to its backup,
    carrying this many payload bytes. *)

val note_degraded : t -> unit
(** A write to this primary could not be mirrored (its backup is dead):
    the write was acknowledged unreplicated. *)

val force_version : t -> int -> int -> unit
(** [force_version t line v] raises [line]'s version to at least [v]
    (recovery replay; no-op when already there). *)

val service_time_for_bytes : t -> int -> Desim.Time.span
(** Service-loop occupancy for handling a request carrying this many
    payload bytes (fixed handling cost + per-byte apply cost). *)

val lines_resident : t -> int
val fetches : t -> int
val diffs_applied : t -> int
val updates_applied : t -> int
val mirrors : t -> int
val mirror_bytes : t -> int
val degraded_writes : t -> int

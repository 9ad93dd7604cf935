(** Consistent-hash ring mapping control-plane object ids to manager
    shards.

    Placement is a pure function of [(salt, shards, vnodes)] built on
    [Desim.Rng.hash3] — no RNG stream is consumed, so lookups are stable
    across replays, and changing the shard count by one only remaps the
    ~1/N of keys whose ring segment changed owner. *)

type t

val create : shards:int -> t
(** 64 virtual points per shard. Raises [Invalid_argument] if
    [shards < 1]. *)

val shards : t -> int

val lookup : t -> int -> int
(** Owning shard of a key, in [0 .. shards-1]. With one shard this is
    always 0 without hashing. *)

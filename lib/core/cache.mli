(** The per-thread software cache over the global address space.

    Every compute thread accesses the GAS through one of these (paper §II:
    "each compute thread has a local software cache ... populated by demand
    paging"). Entries are whole lines ([pages_per_line] pages). The first
    ordinary-region store to a {e page} sets that page's dirty bit and
    copies the page into a {e twin} (its pristine contents), as an
    mprotect write fault would; {!Diff.make_paged} diffs the dirty pages
    against their twins at the next consistency point. Twin pages come
    from a free list owned by the cache, and {!clean} and removal give
    them back, so a thread in steady state allocates no twin.

    The cache is pure bookkeeping: fetching, timing and protocol decisions
    live in {!Thread_ctx}. Eviction selection honours the paper's
    write-biased policy; actually flushing a dirty victim is the caller's
    job (the [evict] callback).

    Entries live on two intrusive doubly-linked chains (dirty and clean)
    tracking membership only; recency is the [tick] stamp, so the access
    path stays a single store. Victim selection scans one chain for the
    minimum tick instead of the whole table — the write-biased policy
    reads the (typically small) dirty chain first — and the dirty chain
    doubles as the maintained index behind {!dirty_entries}. *)

type entry = {
  line : int;
  data : bytes;
  mutable version : int;  (** Home version this copy corresponds to. *)
  twins : bytes array;
      (** Per page: [twins.(p)] is page [p]'s page-sized twin exactly when
          bit [p] of [dirty_pages] is set, and [Bytes.empty] otherwise. *)
  mutable dirty_pages : int;
      (** Bitmask over pages of the line; a set bit means the page is
          twinned. Mutate only through {!mark_written}/{!clean} — the LRU
          chains and the twin pool key on it. *)
  mutable tick : int;  (** Last-use stamp for LRU. *)
  mutable excl : bool;
      (** Sequential-consistency mode: held exclusive (sole writer). *)
  mutable lru_prev : entry;  (** Internal: intrusive LRU chain link. *)
  mutable lru_next : entry;  (** Internal: intrusive LRU chain link. *)
}
(** The chain links make entries cyclic values: compare entries with [==],
    never with polymorphic [=]. A resident entry is on a chain; removal
    (eviction, {!invalidate}, a prefetch displacing a clean victim in
    {!try_install}) leaves it self-linked, so [e.lru_next != e] tests
    residency without a lookup. *)

type t

val create : Config.t -> Layout.t -> t

val capacity : t -> int
val size : t -> int

val find : t -> int -> entry option
(** Lookup by line id; refreshes LRU state. The single-entry fast path for
    repeated hits on one line lives in {!Thread_ctx}; this is the general
    path. *)

val find_exn : t -> int -> entry
(** [find] without the option: raises [Not_found] on a miss. The
    allocation-free variant for the per-access path in {!Thread_ctx};
    callers match the exception inline ([match ... with exception]). *)

val peek : t -> int -> entry option
(** Lookup without touching LRU state. *)

val insert :
  t -> line:int -> data:bytes -> version:int -> evict:(entry -> unit) ->
  entry
(** Install a fetched line, evicting first when full ({!ensure_room}).
    The [evict] callback sees the victim (possibly dirty — flush it)
    before removal. The buffer is owned by the cache afterwards. If the
    line turned out to be present already (an asynchronous prefetch
    completed while the caller was blocked fetching), the existing entry
    is returned and the new buffer dropped. *)

val ensure_room : t -> line:int -> evict:(entry -> unit) -> unit
(** Evict until inserting [line] would need no eviction (no-op when the
    line is already cached). The [evict] callback may yield; eviction
    repeats if the freed slot is taken meanwhile. Used by protocol drivers
    that must perform their subsequent state transitions atomically. *)

val try_install : t -> line:int -> data:bytes -> version:int -> bool
(** Install only if no eviction of a {e dirty} line would be needed (the
    asynchronous prefetch path, which runs outside any process and so
    cannot flush). Clean victims may be displaced. Returns [false] and
    drops the data otherwise. *)

val mark_written : t -> entry -> offset:int -> unit
(** Note an ordinary-region store at byte [offset] of [entry], before the
    store lands: on the first store to that page since the last {!clean},
    twin the page and set its dirty bit; otherwise a no-op. Callers on
    the hit path test the bit inline and call this only when it is
    clear. *)

val set_twin_word : t -> entry -> offset:int -> int64 -> unit
(** Store the word at [offset] into its page's twin if that page is
    twinned, and do nothing otherwise. A store that must never travel in
    this thread's own diff (a consistency-region store, a grant patch)
    lands in the line and here; an untwinned page picks it up when it is
    twinned later. *)

val invalidate : t -> int -> unit
(** Drop a line (no flush — callers flush first when needed), returning
    its twin pages to the pool. Marks any in-flight prefetch of that line
    stale. *)

val dirty_entries : t -> entry list
(** All entries with dirty pages, ascending line id (deterministic flush
    order). *)

val entries : t -> entry list
(** Every resident entry, ascending line id (for end-of-run invariant
    checks: no twin or dirty bits may survive the final consistency
    point). *)

val clean : t -> entry -> version:int -> unit
(** After a successful flush: return the twin pages to the pool, clear the
    dirty bits and record the new home version. *)

(** {2 In-flight prefetch bookkeeping} *)

type arrival = (bytes * int) option
(** [Some (data, version)] on delivery; [None] when the prefetch was
    invalidated in flight and the waiter must demand-fetch. *)

val pending_start : t -> int -> bool
(** Mark a prefetch in flight for the line; [false] if one already is. *)

val is_pending : t -> int -> bool

val pending_wait : t -> int -> ((arrival -> unit) -> unit) option
(** If the line is in flight, returns a registrar the caller can hand its
    wake to ([Thread_ctx] suspends on it). *)

val pending_abort : t -> int -> unit
(** The in-flight prefetch will never deliver (its home crashed): drop the
    slot and wake any waiters with [None] so they demand-fetch. No-op when
    nothing is pending. *)

val pending_complete : t -> int -> data:bytes -> version:int -> unit
(** Prefetch delivery: wakes waiters (with [None] if stale) and, when there
    are no waiters and the line is fresh, installs via {!try_install}. *)

(** {2 Counters} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val dirty_evictions : t -> int
val invalidations : t -> int
val prefetch_installs : t -> int
val note_hit : t -> unit
val note_miss : t -> unit

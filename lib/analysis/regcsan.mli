(** RegCSan: a happens-before data-race detector and Regional-Consistency
    linter over the runtime's access stream.

    The runtime feeds every global-memory read/write, every allocation
    event, and every synchronization edge (mutex release→acquire, barrier
    epoch, condvar signal→wake) into an instance of this module. A
    vector-clock engine maintains the happens-before relation; shadow
    state at 8-byte-word granularity (organised per page) records the last
    write and the concurrent-reader set of every touched word.

    Reported findings:

    - {b Race}: two conflicting accesses (at least one a write, same word,
      different threads) unordered by happens-before. Such a program is
      not data-race-free, so Regional Consistency gives it no
      sequential-consistency guarantee.
    - {b Unpublished}: a cross-thread read that {e is} ordered by
      happens-before but whose value RegC does not guarantee to deliver:
      an ordinary (outside-region) write reaches other threads only
      through a barrier's flush + write notices, and a consistency-region
      write only through a grant of the same lock — ordering established
      through any other sync chain leaves the reader's cached copy stale.
    - {b Mixed}: the same word is written both inside and outside
      consistency regions by different threads with no publishing edge in
      between — the ordinary writer's later page diff can clobber the
      region writer's update at the home (the twin cannot know about it).
    - {b Invalid_read}: a read of a global address that was never
      allocated, or was freed.
    - {b Lock_misuse}: acquiring a lock already held by the same thread
      (self-deadlock) or releasing a lock the thread does not hold.
    - {b Lock_order}: two locks acquired in both nesting orders across the
      run (an ABBA-inconsistent pair). No deadlock need have manifested —
      the warning says one is reachable under some schedule.

    Findings are deduplicated — first occurrence per
    (page, thread pair, kind) — and reported in detection order, which is
    deterministic because the simulation is. *)

type t

type kind = Race | Unpublished | Mixed | Invalid_read | Lock_misuse | Lock_order

type finding = {
  kind : kind;
  page : int;  (** Page index of the offending word ([-1] for lock misuse). *)
  addr : int;  (** Byte address of the word ([-1] for lock misuse). *)
  tid_first : int;   (** Thread of the earlier access (writer/owner). *)
  tid_second : int;  (** Thread whose access triggered the finding. *)
  time_first : Desim.Time.t;
  time_second : Desim.Time.t;
  detail : string;
}

val kind_name : kind -> string

val create : threads:int -> page_bytes:int -> t
(** [threads] bounds the thread ids that will appear; [page_bytes] (a
    power of two) sets the page used for deduplication keys. *)

(** {2 Access stream} *)

val on_read : t -> thread:int -> time:Desim.Time.t -> addr:int -> unit
(** One word, at the byte address [addr]. *)

val on_write :
  t -> thread:int -> time:Desim.Time.t -> addr:int -> lock:int -> unit
(** [lock] is the id of the innermost held mutex when the store executed
    (the consistency region it belongs to), or [-1] for an ordinary
    write. *)

val on_malloc : t -> thread:int -> time:Desim.Time.t -> addr:int -> bytes:int -> unit
val on_free : t -> thread:int -> time:Desim.Time.t -> addr:int -> bytes:int -> unit

(** {2 Synchronization edges} *)

val on_lock_attempt : t -> thread:int -> time:Desim.Time.t -> lock:int -> unit
(** Call before blocking: checks for double-acquire by the same thread. *)

val on_lock_acquired : t -> thread:int -> time:Desim.Time.t -> lock:int -> unit
(** Besides drawing the release→acquire edge, records the thread's lock
    nesting order and reports a {!Lock_order} finding the first time a
    pair of locks is seen nested both ways. *)

val on_unlock : t -> thread:int -> time:Desim.Time.t -> lock:int -> unit

val on_barrier_arrive : t -> thread:int -> barrier:int -> epoch:int -> unit
val on_barrier_depart : t -> thread:int -> barrier:int -> epoch:int -> unit
(** Arrive before blocking, depart after release; [epoch] is the barrier's
    epoch number captured before arriving, so all participants of one
    episode name the same epoch. *)

val on_cond_signal : t -> thread:int -> cond:int -> unit
val on_cond_wake : t -> thread:int -> cond:int -> unit

(** {2 Results} *)

val findings : t -> finding list
(** Deduplicated findings in (deterministic) detection order. *)

val findings_count : t -> int

val lock_order_warnings : t -> int
(** Number of ABBA-inconsistent lock pairs reported (each counted once). *)

val thread_clock : t -> thread:int -> Vclock.t
(** Copy of the thread's current vector clock. RegCCheck samples these at
    scheduling-interval boundaries and uses {!Vclock.hb} as its
    happens-before independence oracle. *)

val pp_finding : Format.formatter -> finding -> unit

val pp_report : Format.formatter -> t -> unit
(** Full report; the first line is ["regcsan: N findings"]. *)

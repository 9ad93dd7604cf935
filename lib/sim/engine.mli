(** Discrete-event simulation engine with effects-based processes.

    The engine owns a clock and an event queue of thunks. A {e process} is
    an ordinary OCaml function run under an effect handler; it interacts
    with simulated time through {!delay}, {!suspend} and {!yield}, which
    must only be called from inside a process body. Events scheduled for the
    same instant run in insertion order, so a run is fully deterministic. *)

type t

exception Stalled of string
(** Raised by {!run} when processes remain blocked but no event can ever
    wake them (a deadlock in the simulated system). The message names every
    blocked process (their spawn [?name]s) in spawn order. *)

val create : ?tie_break:Heap.tie_break -> unit -> t
(** [tie_break] installs a same-instant ordering hook on the event queue
    (see {!Heap.tie_break}); omitted, events at one instant run in
    insertion order. *)

val events : t -> int
(** Total number of events executed so far. The macro benchmark divides
    this by wall-clock time for events/sec. *)

val shuffle_tie_break : seed:int -> Heap.tie_break
(** The schedule fuzzer's seeded shuffler: a pure hash of
    [(seed, time, seq)], so one seed yields one — replayable — permutation
    of every same-instant event group. *)

type chooser = time:int -> seqs:int array -> int
(** A controlled-scheduler decision: given the sequence numbers of every
    event enabled at the current instant (see {!Heap.tie_seqs}), return
    the index of the one to run. Called only when two or more events tie,
    so each call is a genuine scheduling choice point. *)

val set_chooser : t -> chooser option -> unit
(** Install ([Some]) or remove ([None]) a controlled scheduler. While one
    is installed {!step}/{!run} ignore the tie-break priority order and
    route every same-instant choice through the chooser — RegCCheck uses
    this to enumerate all schedules of a bounded geometry. The chooser may
    raise to abandon the run (the exception propagates out of {!run}). *)

val set_quantum : t -> int -> unit
(** Set the scheduling quantum in ns (0 — the default — disables it).
    With a quantum [q], every scheduled instant rounds up to the next
    multiple of [q], so events separated only by sub-quantum serialization
    deltas (port FCFS staggering, a few tens of ns) land on the same
    instant and become same-instant ties. RegCCheck sets this so that the
    orders it explores include the contended ones — who reaches the
    manager first — rather than only exact-tie accidents. Default runs
    never set it, keeping exact timing. Raises [Invalid_argument] on a
    negative quantum. *)

val blocked_names : t -> string list
(** Names of live (spawned, unfinished) processes, in spawn order. After
    {!run} raised {!Stalled} these are exactly the blocked processes. *)

val now : t -> Time.t
(** Current simulated time. Callable from anywhere. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> unit
(** [schedule_after t d f] enqueues the plain callback [f] to run at
    [now + d]; a negative [d] counts as 0. The callback runs outside any
    process context; use {!spawn} if it needs to delay or suspend. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** Enqueue a callback at an absolute instant, which must not be in the
    simulated past. *)

val spawn : t -> ?delay:Time.span -> ?name:string -> (unit -> unit) -> unit
(** Start a new process at [now + delay]. The engine counts live processes
    so {!run} can detect deadlock. *)

val run : t -> unit
(** Drain the event queue. Raises {!Stalled} if processes spawned via
    {!spawn} are still suspended when the queue empties. Exceptions raised
    by process bodies propagate. *)

val run_until : t -> Time.t -> unit
(** Process events up to and including instant [t]; the clock finishes at
    exactly [t] even if the queue empties earlier. *)

(** {2 Operations available inside a process} *)

val delay : Time.span -> unit
(** Advance this process's time by the given span, yielding to other
    events. *)

val yield : unit -> unit
(** Re-enqueue this process at the current instant, letting events already
    queued for this instant run first. *)

val suspend : register:(wake:('a -> unit) -> unit) -> 'a
(** Park this process. [register] is called immediately with a [wake]
    callback; invoking [wake v] (once) re-enqueues the process at the
    waking instant, and [suspend] returns [v]. Subsequent calls to [wake]
    are ignored. *)

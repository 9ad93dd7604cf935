(* Host-time attribution of a traced run from its layer crossings.

   The simulation is sequential and a fiber can only be descheduled
   inside a runtime call, so the host time between two consecutive
   crossings belongs to exactly one bucket, decided by the crossing that
   opened the interval and the one that closed it:

   - opened by fiber f's exit (or its start), closed by f's next
     crossing: f's own kernel code;
   - opened by f's entry into layer L, closed by f's exit from L with the
     engine's event count unchanged: L inline (the call never yielded);
   - any other interval opened by an entry: L blocking (engine dispatch
     and whatever other fibers ran before the next crossing);
   - before the first crossing, after the last one, or after a fiber's
     final exit: engine other.

   Every nanosecond between [start] and [finish] lands in one bucket, so
   the buckets sum to the run wall exactly. The hot path allocates
   nothing: state is mutable ints and the interval's opener a constant
   constructor. *)

type layer = Access | Sync | Alloc | Idle | Account

let layers = [| Access; Sync; Alloc; Idle; Account |]

let index = function
  | Access -> 0
  | Sync -> 1
  | Alloc -> 2
  | Idle -> 3
  | Account -> 4

let name = function
  | Access -> "access"
  | Sync -> "sync"
  | Alloc -> "alloc"
  | Idle -> "idle"
  | Account -> "account"

type opener = Engine | Kernel | Entry

type t = {
  mutable last : int;
  mutable opener : opener;
  mutable fiber : int;  (** Fiber whose crossing opened the interval. *)
  mutable layer : int;  (** Entered layer, when [opener = Entry]. *)
  mutable events : int;  (** Engine events at that entry. *)
  mutable entered : int array;  (** Per fiber: instant of its last entry. *)
  mutable kernel : int;
  mutable other : int;
  inline : int array;
  blocking : int array;
  inline_calls : int array;
  blocking_calls : int array;
  on_blocking : layer:int -> fiber:int -> start:int -> stop:int -> unit;
      (** Receives each blocking call as a span. *)
}

let create ?(on_blocking = fun ~layer:_ ~fiber:_ ~start:_ ~stop:_ -> ()) () =
  let n = Array.length layers in
  { last = 0;
    opener = Engine;
    fiber = -1;
    layer = 0;
    events = 0;
    entered = Array.make 64 0;
    kernel = 0;
    other = 0;
    inline = Array.make n 0;
    blocking = Array.make n 0;
    inline_calls = Array.make n 0;
    blocking_calls = Array.make n 0;
    on_blocking }

(* Close the current interval at [now] on a crossing by [fiber] that is not
   an inline exit. *)
let close t ~now ~fiber =
  let dt = now - t.last in
  (match t.opener with
   | Engine -> t.other <- t.other + dt
   | Kernel ->
     if t.fiber = fiber then t.kernel <- t.kernel + dt
     else t.other <- t.other + dt
   | Entry -> t.blocking.(t.layer) <- t.blocking.(t.layer) + dt);
  t.last <- now

let start t ~now =
  t.last <- now;
  t.opener <- Engine;
  t.fiber <- -1

let thread_start t ~now ~fiber =
  close t ~now ~fiber;
  t.opener <- Kernel;
  t.fiber <- fiber

let enter t ~now ~events ~fiber layer =
  close t ~now ~fiber;
  if fiber >= Array.length t.entered then begin
    let grown = Array.make (2 * (fiber + 1)) 0 in
    Array.blit t.entered 0 grown 0 (Array.length t.entered);
    t.entered <- grown
  end;
  t.entered.(fiber) <- now;
  t.opener <- Entry;
  t.fiber <- fiber;
  t.layer <- index layer;
  t.events <- events

let exit t ~now ~events ~fiber layer =
  let l = index layer in
  if t.opener = Entry && t.fiber = fiber && t.layer = l && t.events = events
  then begin
    t.inline.(l) <- t.inline.(l) + (now - t.last);
    t.inline_calls.(l) <- t.inline_calls.(l) + 1;
    t.last <- now
  end
  else begin
    close t ~now ~fiber;
    t.blocking_calls.(l) <- t.blocking_calls.(l) + 1;
    t.on_blocking ~layer:l ~fiber ~start:t.entered.(fiber) ~stop:now
  end;
  t.opener <- Kernel;
  t.fiber <- fiber

let thread_end t ~now ~fiber =
  close t ~now ~fiber;
  t.opener <- Engine;
  t.fiber <- -1

let finish t ~now =
  close t ~now ~fiber:(-1);
  t.opener <- Engine

let inline t layer = t.inline.(index layer)
let blocking t layer = t.blocking.(index layer)
let inline_calls t layer = t.inline_calls.(index layer)
let blocking_calls t layer = t.blocking_calls.(index layer)
let kernel t = t.kernel
let other t = t.other

let total t =
  Array.fold_left ( + ) 0 t.inline
  + Array.fold_left ( + ) 0 t.blocking
  + t.kernel + t.other

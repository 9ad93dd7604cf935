type level = Off | Low | Medium | High

let level_name = function
  | Off -> "off"
  | Low -> "low"
  | Medium -> "medium"
  | High -> "high"

let level_of_string = function
  | "off" | "none" -> Ok Off
  | "low" -> Ok Low
  | "medium" | "med" -> Ok Medium
  | "high" -> Ok High
  | s -> Error (Printf.sprintf "unknown fault level %S" s)

(* Per-level perturbation intensities. Jitter models per-message service
   variation (sub-RTT); reorder-scale delays are several RTTs, long enough
   that messages on other (src,dst) pairs overtake; drops are transient
   losses, bounded per pair so retry always converges. *)
type params = {
  jitter_p : float;
  jitter_max : int;  (* ns *)
  reorder_p : float;
  reorder_max : int;  (* ns *)
  drop_p : float;
  max_consecutive_drops : int;
}

let params_of_level = function
  | Off ->
    { jitter_p = 0.; jitter_max = 0; reorder_p = 0.; reorder_max = 0;
      drop_p = 0.; max_consecutive_drops = 0 }
  | Low ->
    { jitter_p = 0.2; jitter_max = 400; reorder_p = 0.02;
      reorder_max = 4_000; drop_p = 0.005; max_consecutive_drops = 1 }
  | Medium ->
    { jitter_p = 0.5; jitter_max = 1_500; reorder_p = 0.08;
      reorder_max = 12_000; drop_p = 0.02; max_consecutive_drops = 2 }
  | High ->
    { jitter_p = 0.8; jitter_max = 4_000; reorder_p = 0.2;
      reorder_max = 30_000; drop_p = 0.08; max_consecutive_drops = 3 }

(* Ring capacity of the in-memory fault trace (see trace_tail). *)
let trace_cap = 64

(* The run's one node-level failure (single-failure model). A crashed
   node is dead from [at] on. A partition makes (victim, peer) pairs
   unreachable inside [start, heal): peers = [] isolates the victim from
   everyone, a non-empty list blocks only those pairs. Unlike a crash,
   the victim keeps executing throughout and the window heals. *)
type injection =
  | Crash of { node : int; at : Desim.Time.t }
  | Partition of {
      victim : int;
      peers : int list;
      start : Desim.Time.t;
      heal : Desim.Time.t;
    }

type t = {
  p : params;
  seed : int;
  rng : Desim.Rng.t;
  injection : injection option;
  (* Delivery-order floor per (src,dst): the fabric reorders traffic only
     across distinct pairs (differential jitter); within one pair it
     delivers in order, like a reliable-connection QP. *)
  last_arrival : (int * int, Desim.Time.t) Hashtbl.t;
  (* Consecutive drops per (src,dst); capped so losses stay transient. *)
  drops_in_row : (int * int, int) Hashtbl.t;
  mutable delayed : int;
  mutable reordered : int;
  mutable dropped : int;
  mutable retried : int;
  mutable dead_sends : int;
  (* Bounded ring of injected events with instants, for failing-seed
     artifacts: a failure is diagnosable from the log alone. *)
  trace : string option array;
  mutable trace_next : int;
  mutable trace_total : int;
}

let create ?injection ~seed ~level () =
  { p = params_of_level level;
    seed;
    rng = Desim.Rng.create ~seed;
    injection;
    last_arrival = Hashtbl.create 64;
    drops_in_row = Hashtbl.create 64;
    delayed = 0;
    reordered = 0;
    dropped = 0;
    retried = 0;
    dead_sends = 0;
    trace = Array.make trace_cap None;
    trace_next = 0;
    trace_total = 0 }

let record t ev =
  t.trace.(t.trace_next) <- Some ev;
  t.trace_next <- (t.trace_next + 1) mod trace_cap;
  t.trace_total <- t.trace_total + 1

let trace_tail t =
  let tail = ref [] in
  for i = trace_cap - 1 downto 0 do
    let slot = (t.trace_next + i) mod trace_cap in
    match t.trace.(slot) with
    | Some ev -> tail := ev :: !tail
    | None -> ()
  done;
  let tail = !tail in
  if t.trace_total > trace_cap then
    Printf.sprintf "... (%d earlier fault events elided)"
      (t.trace_total - trace_cap)
    :: tail
  else tail

(* Deadness is a pure function of time, not a mutable flag: protocol
   timing chains are computed eagerly at future instants, so callers need
   to ask "is this node dead at instant T?" for arbitrary T. *)
let node_dead t ~node ~at =
  match t.injection with
  | Some (Crash { node = n; at = since }) ->
    n = node && Desim.Time.( <= ) since at
  | _ -> false

let in_window ~start ~heal ~at =
  Desim.Time.( <= ) start at && Desim.Time.( < ) at heal

(* If the (src,dst) pair is blocked by an open partition window, return
   the victim node the sender should blame — always the partitioned node,
   never the other endpoint, so escalation suspects the right server no
   matter which leg of a round trip hit the wall. Pure in time, like
   node_dead, for the same eager-timing reason. *)
let unreachable_peer t ~src ~dst ~at =
  match t.injection with
  | Some (Partition { victim; peers; start; heal })
    when in_window ~start ~heal ~at
         && (src = victim || dst = victim)
         && (peers = [] || List.mem (if src = victim then dst else src) peers)
    -> Some victim
  | _ -> None

let note_unreachable t ~src ~dst ~at =
  record t
    (Printf.sprintf "t=%dns unreachable %d->%d (partition)"
       (Desim.Time.to_ns at) src dst)

let note_dead_send t = t.dead_sends <- t.dead_sends + 1

let should_drop ?at t ~src ~dst =
  if t.p.drop_p = 0. then false
  else begin
    let key = (src, dst) in
    let row = Option.value (Hashtbl.find_opt t.drops_in_row key) ~default:0 in
    if row >= t.p.max_consecutive_drops then false
    else if Desim.Rng.float t.rng 1.0 < t.p.drop_p then begin
      Hashtbl.replace t.drops_in_row key (row + 1);
      t.dropped <- t.dropped + 1;
      (match at with
       | Some at ->
         record t
           (Printf.sprintf "t=%dns drop %d->%d (%d in a row)"
              (Desim.Time.to_ns at) src dst (row + 1))
       | None -> ());
      true
    end
    else false
  end

let perturb t ~src ~dst ~arrival =
  let key = (src, dst) in
  Hashtbl.remove t.drops_in_row key;
  let extra = ref 0 in
  if t.p.jitter_p > 0. && Desim.Rng.float t.rng 1.0 < t.p.jitter_p then begin
    extra := !extra + 1 + Desim.Rng.int t.rng t.p.jitter_max;
    t.delayed <- t.delayed + 1
  end;
  if t.p.reorder_p > 0. && Desim.Rng.float t.rng 1.0 < t.p.reorder_p
  then begin
    let d = 1 + Desim.Rng.int t.rng t.p.reorder_max in
    extra := !extra + d;
    t.reordered <- t.reordered + 1;
    record t
      (Printf.sprintf "t=%dns reorder %d->%d (+%dns)"
         (Desim.Time.to_ns arrival) src dst d)
  end;
  let arrival = Desim.Time.add arrival !extra in
  let arrival =
    match Hashtbl.find_opt t.last_arrival key with
    | Some floor when Desim.Time.( <= ) arrival floor ->
      Desim.Time.add floor 1
    | _ -> arrival
  in
  Hashtbl.replace t.last_arrival key arrival;
  arrival

let note_retry t = t.retried <- t.retried + 1

(* Seeded, draw-free backoff jitter: a pure hash of (seed, src, dst,
   attempt). Retries by different senders land at different instants, so
   a heal does not release a synchronized stampede onto one server — yet
   the schedule is still a pure function of the seed, and computing it
   perturbs no RNG stream. *)
let retry_jitter t ~src ~dst ~attempt =
  let mix h k =
    let h = h lxor (k * 0x9E3779B1) in
    let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
    h lxor (h lsr 13)
  in
  let h = mix (mix (mix 0x6A09E667 t.seed) (src lxor (dst lsl 8))) attempt in
  h land 0x3FF

let messages_delayed t = t.delayed
let messages_reordered t = t.reordered
let messages_dropped t = t.dropped
let messages_retried t = t.retried
let messages_dead t = t.dead_sends

type entry = {
  line : int;
  data : bytes;
  mutable version : int;
  (* [twins.(p)] is page [p]'s pristine copy, taken from the pool on the
     first ordinary store to that page; it holds [Bytes.empty] while bit
     [p] of [dirty_pages] is clear. *)
  twins : bytes array;
  mutable dirty_pages : int;
  mutable tick : int;
  (* Sequential-consistency mode only: this copy is the line's single
     writable instance. *)
  mutable excl : bool;
  (* Intrusive LRU chain links (see the chain invariant below). A resident
     entry points at its neighbours or a chain sentinel; an entry not on
     any chain is self-linked. *)
  mutable lru_prev : entry;
  mutable lru_next : entry;
}

type arrival = (bytes * int) option

type pending = {
  mutable stale : bool;
  mutable waiters : (arrival -> unit) list;
}

(* Resident entries live on one of two intrusive doubly-linked chains —
   [lru_dirty] for entries with dirty pages, [lru_clean] for the rest. The
   chains track *membership only* (their internal order is arbitrary):
   recency lives exclusively in the [tick] stamps, so touching an entry on
   the access path is a single store, exactly as cheap as before the
   chains existed. Victim selection scans one chain for the minimum tick —
   never the whole table: the write-biased policy reads only the dirty
   chain (typically a small fraction of residency) and falls back to the
   clean chain, and the prefetch path reads only the clean chain. Ticks
   are unique, so the choice equals the old full-table scan's exactly.
   The dirty chain doubles as the maintained index for [dirty_entries].

   Keeping the chains in strict LRU order instead (O(1) victim reads) was
   measured and rejected: it moves an unlink+append onto every touch, and
   workloads that round-robin a few lines (a stencil's rows defeat the
   single-entry fast path in [Thread_ctx.locate]) pay it per access —
   ~25% end-to-end on the Jacobi figure — while evictions, which the
   ordering would speed up, are orders of magnitude rarer. *)
type t = {
  layout : Layout.t;
  capacity : int;
  evict_dirty_first : bool;
  table : (int, entry) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  mutable tick : int;
  lru_clean : entry;  (* sentinel *)
  lru_dirty : entry;  (* sentinel *)
  (* Page-sized twin buffers given back by [clean] and [remove]: a stack
     of [n_free] buffers at the front of [free]. It grows to the most
     pages this thread ever held twinned at once and never shrinks. *)
  mutable free : bytes array;
  mutable n_free : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_evictions : int;
  mutable c_dirty_evictions : int;
  mutable c_invalidations : int;
  mutable c_prefetch_installs : int;
}

let sentinel () =
  let rec s =
    { line = -1; data = Bytes.empty; version = 0; twins = [||];
      dirty_pages = 0; tick = min_int; excl = false; lru_prev = s;
      lru_next = s }
  in
  s

let create (cfg : Config.t) layout =
  { layout;
    capacity = cfg.Config.cache_lines;
    evict_dirty_first = cfg.Config.evict_dirty_first;
    table = Hashtbl.create 256;
    pending = Hashtbl.create 16;
    tick = 0;
    lru_clean = sentinel ();
    lru_dirty = sentinel ();
    free = [||];
    n_free = 0;
    c_hits = 0;
    c_misses = 0;
    c_evictions = 0;
    c_dirty_evictions = 0;
    c_invalidations = 0;
    c_prefetch_installs = 0 }

let capacity t = t.capacity
let size t = Hashtbl.length t.table

let is_dirty e = e.dirty_pages <> 0

(* ---- intrusive chain primitives ---- *)

(* Idempotent: unlinking a self-linked entry is a no-op. *)
let unlink e =
  e.lru_prev.lru_next <- e.lru_next;
  e.lru_next.lru_prev <- e.lru_prev;
  e.lru_prev <- e;
  e.lru_next <- e

(* Chain order is arbitrary; push anywhere cheap (the front). *)
let push (s : entry) (e : entry) =
  e.lru_prev <- s;
  e.lru_next <- s.lru_next;
  s.lru_next.lru_prev <- e;
  s.lru_next <- e

let linked e = e.lru_next != e

(* The access path: recency is the tick stamp alone, so this stays the
   single store it was before the chains existed. *)
let touch t (e : entry) =
  t.tick <- t.tick + 1;
  e.tick <- t.tick

let find t line =
  match Hashtbl.find_opt t.table line with
  | Some e ->
    touch t e;
    Some e
  | None -> None

(* [find] without the option wrapper: [Hashtbl.find_opt] allocates a
   [Some] and [find] rebuilds another, two minor blocks on every access
   whose line differs from the previous one (any stencil kernel defeats
   the single-entry fast path). The hot callers match the exception
   inline, so no [Some] is ever built on the hit path. *)
let find_exn t line =
  let e = Hashtbl.find t.table line in
  touch t e;
  e

let peek t line = Hashtbl.find_opt t.table line

(* Minimum-tick entry of one chain (ticks are unique, so the walk order
   cannot matter). *)
let chain_oldest (s : entry) =
  let rec go (at : entry) (best : entry option) =
    if at == s then best
    else
      go at.lru_next
        (match best with
         | Some b when b.tick < at.tick -> best
         | _ -> Some at)
  in
  go s.lru_next None

(* Scans only the relevant chain(s); equivalent to the old full-table scan
   (see the chain invariant above). *)
let choose_victim t ~allow_dirty =
  if t.evict_dirty_first then begin
    let d = if allow_dirty then chain_oldest t.lru_dirty else None in
    match d with Some _ -> d | None -> chain_oldest t.lru_clean
  end
  else
    let d = if allow_dirty then chain_oldest t.lru_dirty else None in
    let c = chain_oldest t.lru_clean in
    match (d, c) with
    | None, v | v, None -> v
    | Some de, Some ce -> if de.tick < ce.tick then Some de else Some ce

(* ---- the twin page pool ---- *)

let take_page t =
  if t.n_free = 0 then Bytes.create t.layout.Layout.page_bytes
  else begin
    t.n_free <- t.n_free - 1;
    Array.unsafe_get t.free t.n_free
  end

let give_page t b =
  if t.n_free = Array.length t.free then begin
    let free = Array.make (max 8 (2 * t.n_free)) Bytes.empty in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  Array.unsafe_set t.free t.n_free b;
  t.n_free <- t.n_free + 1

(* Return every twin page to the pool and clear the dirty bits; the
   caller moves the entry between chains. *)
let release_twins t e =
  let d = e.dirty_pages in
  if d <> 0 then begin
    for p = 0 to Array.length e.twins - 1 do
      if d land (1 lsl p) <> 0 then begin
        give_page t e.twins.(p);
        e.twins.(p) <- Bytes.empty
      end
    done;
    e.dirty_pages <- 0
  end

let remove t (e : entry) =
  unlink e;
  release_twins t e;
  Hashtbl.remove t.table e.line

(* A new clean, most recently used entry. *)
let add t ~line ~data ~version =
  let rec e =
    { line; data; version;
      twins = Array.make t.layout.Layout.pages_per_line Bytes.empty;
      dirty_pages = 0; tick = 0; excl = false; lru_prev = e; lru_next = e }
  in
  touch t e;
  push t.lru_clean e;
  Hashtbl.replace t.table line e;
  e

(* Top-level recursion, not a local loop: [insert] runs this on every
   miss, and a local closure would allocate each time. *)
let rec ensure_room t ~line ~evict =
  if
    (not (Hashtbl.mem t.table line))
    && Hashtbl.length t.table >= t.capacity
  then begin
    match choose_victim t ~allow_dirty:true with
    | None -> ()
    | Some victim ->
      t.c_evictions <- t.c_evictions + 1;
      if is_dirty victim then t.c_dirty_evictions <- t.c_dirty_evictions + 1;
      evict victim;
      remove t victim;
      ensure_room t ~line ~evict
  end

let insert t ~line ~data ~version ~evict =
  (* The caller may have yielded between detecting the miss and calling
     insert (clock sync, fetch round trip, or a victim flush in
     [ensure_room]), and an asynchronous prefetch completion can install
     lines meanwhile — so re-check rather than assume absence. A prefetch
     landing during a victim flush finds the table full and swaps a clean
     line for its own, so [ensure_room] still evicts exactly once. *)
  ensure_room t ~line ~evict;
  match Hashtbl.find_opt t.table line with
  | Some e ->
    touch t e;
    e
  | None -> add t ~line ~data ~version

let try_install t ~line ~data ~version =
  if Hashtbl.mem t.table line then false
  else begin
    let have_room =
      if Hashtbl.length t.table < t.capacity then true
      else
        match choose_victim t ~allow_dirty:false with
        | Some victim ->
          t.c_evictions <- t.c_evictions + 1;
          remove t victim;
          true
        | None -> false
    in
    if have_room then begin
      ignore (add t ~line ~data ~version : entry);
      t.c_prefetch_installs <- t.c_prefetch_installs + 1
    end;
    have_room
  end

let mark_written t e ~offset =
  let p = offset lsr t.layout.Layout.page_shift in
  let bit = 1 lsl p in
  if e.dirty_pages land bit = 0 then begin
    let page = t.layout.Layout.page_bytes in
    let twin = take_page t in
    Bytes.blit e.data (p * page) twin 0 page;
    e.twins.(p) <- twin;
    let was_dirty = e.dirty_pages <> 0 in
    e.dirty_pages <- e.dirty_pages lor bit;
    if (not was_dirty) && linked e then begin
      unlink e;
      push t.lru_dirty e
    end
  end

let set_twin_word t e ~offset v =
  let p = offset lsr t.layout.Layout.page_shift in
  if e.dirty_pages land (1 lsl p) <> 0 then
    Bytes.set_int64_le e.twins.(p)
      (offset land (t.layout.Layout.page_bytes - 1))
      v

let invalidate t line =
  (match Hashtbl.find_opt t.table line with
   | Some e ->
     t.c_invalidations <- t.c_invalidations + 1;
     remove t e
   | None -> ());
  match Hashtbl.find_opt t.pending line with
  | Some p -> p.stale <- true
  | None -> ()

(* Walk the dirty chain (the maintained index) instead of folding the
   whole table; only the handful of dirty entries pay the sort. *)
let dirty_entries t =
  let rec collect at acc =
    if at == t.lru_dirty then acc else collect at.lru_next (at :: acc)
  in
  collect t.lru_dirty.lru_next []
  |> List.sort (fun a b -> Int.compare a.line b.line)

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> Int.compare a.line b.line)

let clean t e ~version =
  let was_dirty = is_dirty e in
  release_twins t e;
  e.version <- version;
  if was_dirty && linked e then begin
    unlink e;
    push t.lru_clean e
  end

let pending_start t line =
  if Hashtbl.mem t.pending line then false
  else begin
    Hashtbl.replace t.pending line { stale = false; waiters = [] };
    true
  end

let is_pending t line = Hashtbl.mem t.pending line

let pending_wait t line =
  match Hashtbl.find_opt t.pending line with
  | None -> None
  | Some p -> Some (fun wake -> p.waiters <- wake :: p.waiters)

let pending_abort t line =
  match Hashtbl.find_opt t.pending line with
  | None -> ()
  | Some p ->
    Hashtbl.remove t.pending line;
    List.iter (fun wake -> wake None) (List.rev p.waiters)

let pending_complete t line ~data ~version =
  match Hashtbl.find_opt t.pending line with
  | None -> ()
  | Some p ->
    Hashtbl.remove t.pending line;
    let result = if p.stale then None else Some (data, version) in
    (match (p.waiters, result) with
     | [], Some (data, version) ->
       ignore (try_install t ~line ~data ~version : bool)
     | [], None -> ()
     | waiters, result ->
       (* FIFO wake order: earliest waiter installs, the rest find it. *)
       List.iter (fun wake -> wake result) (List.rev waiters))

let hits t = t.c_hits
let misses t = t.c_misses
let evictions t = t.c_evictions
let dirty_evictions t = t.c_dirty_evictions
let invalidations t = t.c_invalidations
let prefetch_installs t = t.c_prefetch_installs
let note_hit t = t.c_hits <- t.c_hits + 1
let note_miss t = t.c_misses <- t.c_misses + 1

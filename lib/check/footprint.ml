module ISet = Set.Make (Int)

type sync = Lock | Barrier | Cond

type t = {
  mutable rd : ISet.t;
  mutable wr : ISet.t;
  (* Sync objects and facilities, tagged in the low two bits. *)
  mutable sync : ISet.t;
  mutable threads : ISet.t;
  mutable global : bool;
}

let create () =
  { rd = ISet.empty;
    wr = ISet.empty;
    sync = ISet.empty;
    threads = ISet.empty;
    global = false }

let universal () =
  let fp = create () in
  fp.global <- true;
  fp

let add_read fp ~thread ~addr =
  fp.threads <- ISet.add thread fp.threads;
  fp.rd <- ISet.add (addr asr 3) fp.rd

let add_write fp ~thread ~addr =
  fp.threads <- ISet.add thread fp.threads;
  fp.wr <- ISet.add (addr asr 3) fp.wr

let add_sync fp ~thread obj id =
  let tag = match obj with Lock -> 0 | Barrier -> 1 | Cond -> 2 in
  fp.threads <- ISet.add thread fp.threads;
  fp.sync <- ISet.add ((id lsl 2) lor tag) fp.sync

let add_resource fp id = fp.sync <- ISet.add ((id lsl 2) lor 3) fp.sync
let add_thread fp thread = fp.threads <- ISet.add thread fp.threads
let set_global fp = fp.global <- true

let word_conflict a b =
  (not (ISet.disjoint a.wr b.wr))
  || (not (ISet.disjoint a.wr b.rd))
  || not (ISet.disjoint a.rd b.wr)

let sync_conflict a b = a.global || b.global || not (ISet.disjoint a.sync b.sync)
let conflict a b = sync_conflict a b || word_conflict a b
let threads fp = ISet.elements fp.threads

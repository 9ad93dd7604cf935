module ISet = Set.Make (Int)
module SSet = Set.Make (String)

type t = {
  mutable rd : ISet.t;
  mutable wr : ISet.t;
  mutable sync : SSet.t;
  mutable threads : ISet.t;
  mutable global : bool;
}

let create () =
  { rd = ISet.empty;
    wr = ISet.empty;
    sync = SSet.empty;
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

let add_sync fp ~thread name =
  fp.threads <- ISet.add thread fp.threads;
  fp.sync <- SSet.add name fp.sync

let add_resource fp name = fp.sync <- SSet.add name fp.sync
let add_thread fp thread = fp.threads <- ISet.add thread fp.threads
let set_global fp = fp.global <- true

let word_conflict a b =
  (not (ISet.disjoint a.wr b.wr))
  || (not (ISet.disjoint a.wr b.rd))
  || not (ISet.disjoint a.rd b.wr)

let sync_conflict a b = a.global || b.global || not (SSet.disjoint a.sync b.sync)
let conflict a b = sync_conflict a b || word_conflict a b
let threads fp = ISet.elements fp.threads

let pp ppf fp =
  let ints s = String.concat "," (List.map string_of_int (ISet.elements s)) in
  Format.fprintf ppf "{rd=%s wr=%s sync=%s%s}" (ints fp.rd) (ints fp.wr)
    (String.concat "," (SSet.elements fp.sync))
    (if fp.global then " global" else "")

(* Sequential-consistency mode (Config.Sc_invalidate): IVY-style single
   writer per line. All protocol work below runs in the requesting
   thread's process context; directory state lives in [t.e.sc]. *)

open Ctx
open Round_trip

let create () = { peers = Hashtbl.create 64; lines = Hashtbl.create 1024 }

let register t =
  (* System.create validates the count up front; this guards direct use. *)
  if t.id < 0 || t.id >= Config.max_threads then
    invalid_arg "Coherence_sc.register: thread id out of range (max_threads)";
  Hashtbl.replace t.e.sc.peers t.id
    { p_node = Fabric.Scl.node t.endpoint; p_cache = t.cache }

let peer t thread =
  match Hashtbl.find_opt t.e.sc.peers thread with
  | Some p -> p
  | None -> invalid_arg "Coherence_sc.peer: unregistered thread"

(* [line]'s directory entry, created empty on first use. *)
let dirent (sc : sc_dir) line =
  match Hashtbl.find_opt sc.lines line with
  | Some e -> e
  | None ->
    let e = { owner = None; sharers = Tset.create () } in
    Hashtbl.replace sc.lines line e;
    e

let owner sc ~line = (dirent sc line).owner

(* A directory round trip from [line]'s home to SC peer [p]: a request
   out at [now], [bytes] back. Returns the reply's arrival at the home. *)
let peer_round_trip t ~line p ~now ~bytes =
  let home = Fabric.Scl.node (Memory_server.endpoint (server_of t line)) in
  let out =
    Fabric.Network.transfer t.e.network ~now ~src:home ~dst:p.p_node
      ~bytes:Wire.fetch_request
  in
  Fabric.Network.transfer t.e.network ~now:out ~src:p.p_node ~dst:home ~bytes

(* Ship an exclusively-held line home (eviction of an exclusive copy).
   The home copy updates once the ack lands. *)
let writeback t (victim : Cache.entry) =
  let line = victim.Cache.line in
  let lb = t.e.layout.Layout.line_bytes in
  ignore
    (home_rpc t
       ~logical:(Home.server_of_line t.e.cfg ~line)
       ~request:(Wire.line_reply t.e.layout) ~payload:lb ~mirror:false
       ~reply:Wire.diff_ack
     : bool);
  Bytes.blit victim.Cache.data 0 (Memory_server.line (server_of t line) line)
    0 lb;
  victim.Cache.excl <- false;
  (dirent t.e.sc line).owner <- None

(* Recall an exclusive copy held by [owner_tid]: the home asks the owner,
   the owner ships the line back and keeps a shared copy. Runs at [now]
   (the home's service completion); returns when the writeback lands. *)
let recall t ~line ~owner_tid ~now =
  let p = peer t owner_tid in
  let back =
    peer_round_trip t ~line p ~now ~bytes:(Wire.line_reply t.e.layout)
  in
  (match Cache.peek p.p_cache line with
   | Some en ->
     Bytes.blit en.Cache.data 0
       (Memory_server.line (server_of t line) line)
       0 t.e.layout.Layout.line_bytes;
     en.Cache.excl <- false
   | None -> ());  (* owner evicted meanwhile: home already current *)
  let d = dirent t.e.sc line in
  d.owner <- None;
  Tset.add d.sharers owner_tid;
  back

(* Invalidate every sharer except [self]; returns when the last ack is
   back at the home. *)
let invalidate_sharers t ~line ~now =
  let d = dirent t.e.sc line in
  List.fold_left
    (fun tmax s ->
       if s = t.id then tmax
       else begin
         let p = peer t s in
         let ack = peer_round_trip t ~line p ~now ~bytes:Wire.ack in
         Cache.invalidate p.p_cache line;
         Tset.remove d.sharers s;
         Desim.Time.max tmax ack
       end)
    now (Tset.to_list d.sharers)

(* The SC arm of eviction: an exclusive copy is written back, a shared
   one leaves the sharer set. *)
let evict t (victim : Cache.entry) =
  if victim.Cache.excl then writeback t victim
  else Tset.remove (dirent t.e.sc victim.Cache.line).sharers t.id

let install t ~line ~data ~version =
  Cache.insert t.cache ~line ~data ~version ~evict:(evict t)

(* The directory transaction of an SC fetch/upgrade must execute without
   yields: concurrent transactions are serialized by the home in reality,
   and in the simulator by execution order. Cache room is therefore
   secured first (eviction writebacks may yield), then the state
   transition (recall, invalidations, fetch, install, ownership) runs
   atomically, and only then the requester pays its latency.

   [request] is the shared request half: secure room, send the request
   and occupy the home's service loop, then open the transaction by
   recalling the line from a foreign exclusive owner. Returns the home
   and the instant it may proceed. *)
let request t line =
  Cache.ensure_room t.cache ~line ~evict:(evict t);
  let srv = server_of t line in
  let served = home_request t srv ~request:Wire.fetch_request ~payload:0 in
  (* --- atomic directory transaction (no yields) --- *)
  match owner t.e.sc ~line with
  | Some o when o <> t.id -> (srv, recall t ~line ~owner_tid:o ~now:served)
  | _ -> (srv, served)

(* SC read miss: fetch from home, recalling an exclusive holder first. *)
let read_fetch t line : Cache.entry =
  let srv, ready = request t line in
  let data, version = Memory_server.fetch srv line in
  Tset.add (dirent t.e.sc line).sharers t.id;
  let entry = install t ~line ~data ~version in
  (* --- end of transaction; pay the latency --- *)
  await_reply t ~src:(Memory_server.endpoint srv) ~at:ready
    ~bytes:(Wire.line_reply t.e.layout);
  entry

(* SC write: obtain the line exclusively — invalidate every other sharer
   and recall any other owner; upgrade in place when a shared copy is
   already cached. The clock must be synchronized. [commit] runs inside
   the atomic transaction, right after ownership transfers: the store
   commits logically at grant time, so a concurrent transaction that runs
   while this thread pays its latency recalls the already-stored value —
   no lost updates and no grant/steal livelock. *)
let acquire_exclusive t line ~commit : Cache.entry =
  let srv, after_recall = request t line in
  let ready = invalidate_sharers t ~line ~now:after_recall in
  let cached = Cache.peek t.cache line in
  let reply_bytes =
    match cached with
    | Some _ -> Wire.ack  (* upgrade: data already valid *)
    | None -> Wire.line_reply t.e.layout
  in
  let e =
    match cached with
    | Some e -> e
    | None ->
      let data, version = Memory_server.fetch srv line in
      install t ~line ~data ~version
  in
  e.Cache.excl <- true;
  (* Exclusive ownership clears the sharer set, this thread included. *)
  let d = dirent t.e.sc line in
  d.owner <- Some t.id;
  Tset.clear d.sharers;
  commit e;
  (* --- end of transaction; pay the latency --- *)
  await_reply t ~src:(Memory_server.endpoint srv) ~at:ready ~bytes:reply_bytes;
  e

(* SC store hit: the entry when [addr]'s line is held exclusively, with
   the access counted; [Not_found] when the line must first be acquired
   ({!store_miss}). The caller charges the access. Allocation-free, so a
   store hit builds no commit closure. *)
let owned t addr : Cache.entry =
  let line = addr lsr t.e.layout.Layout.line_shift in
  match t.last with
  | Some e when e.Cache.line = line && e.Cache.excl && e.Cache.lru_next != e
    ->
    Cache.note_hit t.cache;
    e
  | _ ->
    let e = Cache.find_exn t.cache line in
    if not e.Cache.excl then raise_notrace Not_found;
    Cache.note_hit t.cache;
    t.last <- Some e;
    e

(* SC store miss: the full acquire transaction, with the word [v]
   committed inside it. *)
let store_miss t addr v =
  let line = addr lsr t.e.layout.Layout.line_shift in
  let off = addr land t.e.layout.Layout.line_mask in
  Cache.note_miss t.cache;
  sync_clock t;
  let start = now t in
  let e =
    acquire_exclusive t line ~commit:(fun e ->
        Bytes.set_int64_le e.Cache.data off v)
  in
  t.m_compute <- t.m_compute + Desim.Time.diff (now t) start;
  (* Keep the fast path only if the grant survived the latency. *)
  match Cache.peek t.cache line with
  | Some e' when e' == e && e.Cache.excl -> t.last <- Some e
  | _ -> t.last <- None

type lock_id = int
type barrier_id = int
type cond_id = int

type grant_action =
  | Fresh
  | Patch of Update.t list * (int * int) list
  | Notices of (int * int) list

type grant = {
  lock_version : int;
  action : grant_action;
  wire_bytes : int;
}

type waiter = {
  w_thread : int;
  w_last_seen : int;
  w_node : Fabric.Network.node;
  w_wake : grant -> unit;
}

(* One retained release: the fine-grained update log and the home
   versions of the lines the log touched. *)
type history_entry = {
  h_log : Update.t list;
  h_line_versions : (int * int) list;
}

(* The newest release a thread completed on a lock, updated in place. *)
type release_seen = {
  mutable rs_seq : int;  (* its release sequence number *)
  mutable rs_version : int;  (* the lock version it produced *)
}

(* Every read-only critical section retains this one entry, and a grant
   across read-only releases only carries [empty_patch]. *)
let empty_release = { h_log = []; h_line_versions = [] }
let empty_patch = Patch ([], [])

(* No thread holds the lock; thread ids are non-negative. *)
let no_holder = -1

type lock_state = {
  mutable holder : int;  (* [no_holder] when free *)
  mutable waiters : waiter Queue.t;
  mutable version : int;
  (* The retained releases, oldest first, at most [update_log_history]
     of them: entry [i] is [history.((first + i) mod capacity)], and the
     ring grows by doubling up to that bound. Every recorded release
     bumps [version] and retains one entry, so the history always holds
     exactly the versions (version - length, version]. *)
  mutable history : history_entry array;
  mutable first : int;
  mutable length : int;
  touched : (int, int) Hashtbl.t;  (* line -> latest version under lock *)
  (* Per thread, the highest release sequence number completed and the
     lock version that release produced: a shard-crash retry whose
     original release mutated state but lost its ack must be a no-op, not
     a double release, and must answer with its own version, not the
     lock's current one. Grants and barrier releases are pushes that a
     takeover re-drives, never retried requests, so this is the only
     retry the shard deduplicates. *)
  release_seen : (int, release_seen) Hashtbl.t;
}

type barrier_waiter = {
  b_thread : int;
  b_node : Fabric.Network.node;
  b_wake : (int * Tset.t) list -> unit;
}

(* Per epoch: line id -> set of writer thread ids. The set travels as one
   {!Wire.notices} entry per line on the wire regardless of its
   population, exactly like the historical single-int writer mask. *)
type barrier_state = {
  parties : int;
  mutable epoch : int;
  mutable arrived : int;
  mutable bwaiters : barrier_waiter list;
  epoch_writers : (int, Tset.t) Hashtbl.t;
}

type cond_waiter = {
  c_thread : int;
  c_node : Fabric.Network.node;
  c_wake : unit -> unit;
}

type cond_state = { cwaiters : cond_waiter Queue.t }

(* A reply push (lock grant, barrier release, condvar wake) that could
   not leave this shard's node because the node was already declared dead
   at the send instant — the in-flight-request window of a shard crash.
   The takeover shard re-drives these from its own node. *)
type orphan = {
  o_node : Fabric.Network.node;  (* destination *)
  o_bytes : int;
  o_fire : unit -> unit;
}

type t = {
  cfg : Config.t;
  layout : Layout.t;
  network : Fabric.Network.t;
  node : Fabric.Network.node;
  service : Desim.Resource.t;
  mutable cursor : int;  (* GAS bump pointer (facade: shard 0 only) *)
  locks : (lock_id, lock_state) Hashtbl.t;
  barriers : (barrier_id, barrier_state) Hashtbl.t;
  conds : (cond_id, cond_state) Hashtbl.t;
  mutable replayed : int;  (* update-log entries replayed by recovery *)
  mutable orphans : orphan list;  (* newest first *)
  (* Scratch for {!patch_of_history}: line -> newest version, reset
     before each use. *)
  patch_versions : (int, int) Hashtbl.t;
}

let create cfg layout ~network ~node =
  { cfg;
    layout;
    network;
    node;
    service = Desim.Resource.create (Fabric.Network.engine network);
    cursor = 0;
    locks = Hashtbl.create 64;
    barriers = Hashtbl.create 16;
    conds = Hashtbl.create 16;
    replayed = 0;
    orphans = [];
    patch_versions = Hashtbl.create 16 }

let node t = t.node
let service t = t.service

(* Every blocking reply is a push riding the retrying primitive: a
   dropped push would strand the recipient forever. A push whose source
   node is already dead (this shard crashed while the triggering request
   was in flight) is stashed and re-driven by the takeover shard, so the
   requester never re-sends a request the shard already executed. *)
let push t ~now ~dst ~bytes fire =
  try
    let arrival =
      Fabric.Scl.reliable_transfer t.network ~now ~src:t.node ~dst ~bytes
    in
    Desim.Engine.schedule_at (Fabric.Network.engine t.network) arrival fire
  with Fabric.Scl.Node_dead _ ->
    t.orphans <- { o_node = dst; o_bytes = bytes; o_fire = fire }
                 :: t.orphans

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let align_up n a = (n + a - 1) / a * a

let alloc t ~kind ~bytes =
  if bytes <= 0 then invalid_arg "Manager_shard.alloc: bytes must be positive";
  let alignment =
    match kind with
    | `Arena_chunk -> Config.line_bytes t.cfg
    | `Shared -> 8
    | `Large -> Home.stripe_bytes t.cfg
  in
  let base = align_up t.cursor alignment in
  t.cursor <- base + bytes;
  base

let gas_used t = t.cursor

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

let lock_state t lock =
  try Hashtbl.find t.locks lock
  with Not_found -> invalid_arg "Manager_shard: unknown lock"

let lock_register t ~id =
  Hashtbl.replace t.locks id
    { holder = no_holder;
      waiters = Queue.create ();
      version = 0;
      history = [||];
      first = 0;
      length = 0;
      touched = Hashtbl.create 16;
      release_seen = Hashtbl.create 8 }

(* The [i]-th oldest retained release. *)
let history_nth st i =
  st.history.((st.first + i) mod Array.length st.history)

let retain t st entry =
  let keep = t.cfg.Config.update_log_history in
  if keep > 0 then
    if st.length = keep then begin
      (* Full, so the ring's capacity is [keep]: the new entry replaces
         the oldest. *)
      st.history.(st.first) <- entry;
      st.first <- (st.first + 1) mod keep
    end
    else begin
      if st.length = Array.length st.history then begin
        let grown =
          Array.make (min keep (max 4 (2 * st.length))) empty_release
        in
        for i = 0 to st.length - 1 do
          grown.(i) <- history_nth st i
        done;
        st.history <- grown;
        st.first <- 0
      end;
      st.history.((st.first + st.length) mod Array.length st.history)
      <- entry;
      st.length <- st.length + 1
    end

(* Merge [(line, version)] pairs into [tbl] in list order. *)
let rec merge_versions tbl = function
  | [] -> ()
  | (l, v) :: rest ->
    Hashtbl.replace tbl l v;
    merge_versions tbl rest

(* The patch bringing a thread across the newest [gap] releases, all of
   them retained: their logs concatenated and their line versions merged,
   oldest first so later stores and versions overwrite earlier ones. The
   merge table is the shard's scratch, reset here: a reset table folds in
   the same order as a fresh one. *)
let patch_of_history t st ~gap =
  let lv = t.patch_versions in
  Hashtbl.reset lv;
  let logs = ref [] in  (* newest first *)
  for i = st.length - gap to st.length - 1 do
    let h = history_nth st i in
    (match h.h_log with [] -> () | log -> logs := log :: !logs);
    merge_versions lv h.h_line_versions
  done;
  match !logs with
  | [] when Hashtbl.length lv = 0 -> empty_patch
  | logs ->
    let log =
      List.fold_left
        (fun later log -> match later with [] -> log | _ -> log @ later)
        [] logs
    in
    Patch (log, Hashtbl.fold (fun l v acc -> (l, v) :: acc) lv [])

(* Build the consistency action bringing a thread from [last_seen] up to
   the lock's current version. *)
let grant_for t st ~last_seen =
  let gap = st.version - last_seen in
  let action =
    if gap <= 0 then Fresh
    else if gap <= st.length then patch_of_history t st ~gap
    else Notices (Hashtbl.fold (fun l v acc -> (l, v) :: acc) st.touched [])
  in
  let wire =
    match action with
    | Fresh -> Wire.grant ~log:[] ~line_versions:[]
    | Patch (log, lvs) -> Wire.grant ~log ~line_versions:lvs
    | Notices ns -> Wire.grant ~log:[] ~line_versions:ns
  in
  { lock_version = st.version; action; wire_bytes = wire }

let lock_acquire t ~now ~lock ~thread ~last_seen ~node ~wake =
  if thread < 0 then
    invalid_arg "Manager_shard.lock_acquire: negative thread id";
  let st = lock_state t lock in
  if st.holder = no_holder then begin
    st.holder <- thread;
    let g = grant_for t st ~last_seen in
    push t ~now ~dst:node ~bytes:g.wire_bytes (fun () -> wake g)
  end
  else if st.holder = thread then
    invalid_arg "Manager_shard.lock_acquire: thread already holds the lock"
  else
    Queue.push
      { w_thread = thread; w_last_seen = last_seen; w_node = node;
        w_wake = wake }
      st.waiters

(* A release not seen before: bump the version, retain the release and
   hand the lock to the next waiter. *)
let record_release t st ~now ~thread ~log ~line_versions =
  if thread < 0 || st.holder <> thread then
    invalid_arg "Manager_shard.lock_release: thread does not hold the lock";
  st.version <- st.version + 1;
  retain t st
    (match (log, line_versions) with
     | [], [] -> empty_release
     | _ -> { h_log = log; h_line_versions = line_versions });
  merge_versions st.touched line_versions;
  if Queue.is_empty st.waiters then st.holder <- no_holder
  else begin
    let w = Queue.take st.waiters in
    st.holder <- w.w_thread;
    let g = grant_for t st ~last_seen:w.w_last_seen in
    push t ~now ~dst:w.w_node ~bytes:g.wire_bytes (fun () -> w.w_wake g)
  end

let lock_release t ~seq ~now ~lock ~thread ~log ~line_versions =
  let st = lock_state t lock in
  match Hashtbl.find st.release_seen thread with
  | seen when seen.rs_seq >= seq -> seen.rs_version
  | seen ->
    record_release t st ~now ~thread ~log ~line_versions;
    seen.rs_seq <- seq;
    seen.rs_version <- st.version;
    st.version
  | exception Not_found ->
    record_release t st ~now ~thread ~log ~line_versions;
    Hashtbl.replace st.release_seen thread
      { rs_seq = seq; rs_version = st.version };
    st.version

let lock_holder t lock =
  let h = (lock_state t lock).holder in
  if h = no_holder then None else Some h
let lock_version t lock = (lock_state t lock).version

(* ------------------------------------------------------------------ *)
(* Blocking-state introspection (model-checker support). RegCCheck's
   deadlock analysis reads who holds and who queues on every sync object
   of a stalled branch to build the wait-for graph. Read-only. *)

let sorted_ids tbl =
  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let lock_ids t = sorted_ids t.locks

let lock_waiters t lock =
  let st = lock_state t lock in
  List.rev (Queue.fold (fun acc w -> w.w_thread :: acc) [] st.waiters)

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)

let barrier_state t barrier =
  try Hashtbl.find t.barriers barrier
  with Not_found -> invalid_arg "Manager_shard: unknown barrier"

let barrier_register t ~id ~parties =
  if parties <= 0 then invalid_arg "Manager_shard.barrier_create: parties";
  Hashtbl.replace t.barriers id
    { parties;
      epoch = 0;
      arrived = 0;
      bwaiters = [];
      epoch_writers = Hashtbl.create 64 }

let barrier_arrive t ~now ~barrier ~thread ~lines ~node ~wake =
  if thread < 0 then
    invalid_arg "Manager_shard.barrier_arrive: negative thread id";
  let st = barrier_state t barrier in
  List.iter
    (fun l ->
       let set =
         match Hashtbl.find_opt st.epoch_writers l with
         | Some s -> s
         | None ->
           let s = Tset.create () in
           Hashtbl.replace st.epoch_writers l s;
           s
       in
       Tset.add set thread)
    lines;
  st.arrived <- st.arrived + 1;
  if st.arrived < st.parties then
    st.bwaiters <-
      { b_thread = thread; b_node = node; b_wake = wake }
      :: st.bwaiters
  else begin
    let all =
      Hashtbl.fold (fun l set acc -> (l, set) :: acc) st.epoch_writers []
    in
    let wire = Wire.barrier_release all in
    List.iter
      (fun w ->
         push t ~now ~dst:w.b_node ~bytes:wire (fun () -> w.b_wake all))
      st.bwaiters;
    (* The last arriver's own release goes out after every waiter's. *)
    push t ~now ~dst:node ~bytes:wire (fun () -> wake all);
    st.bwaiters <- [];
    st.arrived <- 0;
    st.epoch <- st.epoch + 1;
    Hashtbl.reset st.epoch_writers
  end

let barrier_epoch t barrier = (barrier_state t barrier).epoch
let barrier_ids t = sorted_ids t.barriers
let barrier_parties t barrier = (barrier_state t barrier).parties

let barrier_blocked t barrier =
  let st = barrier_state t barrier in
  List.sort Int.compare (List.map (fun w -> w.b_thread) st.bwaiters)

(* ------------------------------------------------------------------ *)
(* Condition variables                                                 *)

let cond_state t cond =
  try Hashtbl.find t.conds cond
  with Not_found -> invalid_arg "Manager_shard: unknown condition variable"

let cond_register t ~id =
  Hashtbl.replace t.conds id { cwaiters = Queue.create () }

let cond_wait t ~cond ~thread ~node ~wake =
  let st = cond_state t cond in
  Queue.push { c_thread = thread; c_node = node; c_wake = wake }
    st.cwaiters

let wake_one t ~now w =
  push t ~now ~dst:w.c_node ~bytes:Wire.ack (fun () -> w.c_wake ())

let cond_signal t ~now ~cond =
  let st = cond_state t cond in
  match Queue.take_opt st.cwaiters with
  | None -> 0
  | Some w ->
    wake_one t ~now w;
    1

let cond_broadcast t ~now ~cond =
  let st = cond_state t cond in
  let n = Queue.length st.cwaiters in
  Queue.iter (fun w -> wake_one t ~now w) st.cwaiters;
  Queue.clear st.cwaiters;
  n

let cond_ids t = sorted_ids t.conds

let cond_blocked t cond =
  let st = cond_state t cond in
  List.rev (Queue.fold (fun acc w -> w.c_thread :: acc) [] st.cwaiters)

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)

(* Replay this shard's surviving update logs after physical server [dead]
   failed and [promoted] took over its stripes. The shard's retained lock
   histories record, per release, the update log and the home versions it
   produced — any line homed (logically) on the dead server whose promoted
   replica is behind is patched forward from the log, oldest release
   first. With synchronous mirroring the replica is normally already
   current and replay is a no-op safety net. *)
let replay t ~servers ~dead ~promoted ~probe ~now =
  let psrv = servers.(promoted) in
  let replayed_here = ref 0 in
  let locks =
    Hashtbl.fold (fun id st acc -> (id, st) :: acc) t.locks []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (_, st) ->
       for i = 0 to st.length - 1 do
         let h = history_nth st i in
         List.iter
           (fun (line, v) ->
              if Home.server_of_line t.cfg ~line = dead
                 && Memory_server.version psrv line < v
              then begin
                let buf = Memory_server.line psrv line in
                List.iter
                  (fun u -> Update.apply_to_line t.layout u ~line buf)
                  h.h_log;
                Memory_server.force_version psrv line v;
                incr replayed_here;
                match probe with
                | Some p ->
                  p.Probe.on_publish ~thread:(-1) ~time:now
                    ~server:promoted ~line ~version:v
                    ~data:(Memory_server.line psrv line)
                | None -> ()
              end)
           h.h_line_versions
       done)
    locks;
  t.replayed <- t.replayed + !replayed_here;
  !replayed_here

(* ------------------------------------------------------------------ *)
(* Shard takeover (control-plane crash): the ring successor absorbs the
   dead shard's slice. Control state is modeled as synchronously
   replicated among the shards — what the simulation charges for is the
   detection latency, the parked requesters' re-issued round trips, and
   the re-driven reply pushes. *)

let absorb t ~from ~now =
  let moved = ref 0 in
  Hashtbl.iter
    (fun id st ->
       Hashtbl.replace t.locks id st;
       incr moved)
    from.locks;
  Hashtbl.iter
    (fun id st ->
       Hashtbl.replace t.barriers id st;
       incr moved)
    from.barriers;
  Hashtbl.iter
    (fun id st ->
       Hashtbl.replace t.conds id st;
       incr moved)
    from.conds;
  Hashtbl.reset from.locks;
  Hashtbl.reset from.barriers;
  Hashtbl.reset from.conds;
  (* Re-drive reply pushes the dead shard could not send, from the
     takeover shard's own node. Oldest first. *)
  let orphans = List.rev from.orphans in
  from.orphans <- [];
  List.iter
    (fun o -> push t ~now ~dst:o.o_node ~bytes:o.o_bytes o.o_fire)
    orphans;
  (!moved, List.length orphans)

let replayed_updates t = t.replayed

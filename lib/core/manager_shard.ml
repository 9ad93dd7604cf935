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
  w_endpoint : Fabric.Scl.endpoint;
  w_wake : grant -> unit;
}

(* One retained release: the lock version it produced, the fine-grained
   update log, and the home versions of the lines the log touched. *)
type history_entry = {
  h_version : int;
  h_log : Update.t list;
  h_line_versions : (int * int) list;
}

type lock_state = {
  mutable holder : int option;
  mutable waiters : waiter Queue.t;
  mutable version : int;
  mutable history : history_entry list;  (* newest first *)
  touched : (int, int) Hashtbl.t;  (* line -> latest version under lock *)
  (* Highest release sequence number completed per thread: a shard-crash
     retry whose original release mutated state but lost its ack must be
     a no-op, not a double release. *)
  release_seen : (int, int) Hashtbl.t;
}

type barrier_waiter = {
  b_thread : int;
  b_endpoint : Fabric.Scl.endpoint;
  b_wake : (int * Tset.t) list * int -> unit;
}

(* Per epoch: line id -> set of writer thread ids. The set travels as
   [notice_entry_wire] bytes per line on the wire regardless of its
   population, exactly like the historical single-int writer mask. *)
type barrier_state = {
  parties : int;
  mutable epoch : int;
  mutable arrived : int;
  mutable bwaiters : barrier_waiter list;
  epoch_writers : (int, Tset.t) Hashtbl.t;
  parts : Tset.t;  (* arrivers of the in-progress episode *)
  (* Replay state for shard-crash retries: a thread whose arrival released
     the episode but whose reply was lost re-arrives with the episode's
     epoch; it must receive the released notices again, not join the next
     episode. *)
  mutable last_epoch : int;
  mutable last_parts : Tset.t;
  mutable last_all : (int * Tset.t) list;
  mutable last_wire : int;
}

type cond_waiter = {
  c_thread : int;
  c_endpoint : Fabric.Scl.endpoint;
  c_wake : unit -> unit;
}

type cond_state = { cwaiters : cond_waiter Queue.t }

(* A reply push (lock hand-off, barrier release, condvar wake) that could
   not leave this shard's node because the node was already declared dead
   at the send instant — the in-flight-request window of a shard crash.
   The takeover shard re-drives these from its own endpoint. *)
type orphan = {
  o_endpoint : Fabric.Scl.endpoint;  (* destination *)
  o_bytes : int;
  o_fire : unit -> unit;
}

type t = {
  cfg : Config.t;
  layout : Layout.t;
  engine : Desim.Engine.t;
  endpoint : Fabric.Scl.endpoint;
  service : Desim.Resource.t;
  mutable cursor : int;  (* GAS bump pointer (facade: shard 0 only) *)
  locks : (lock_id, lock_state) Hashtbl.t;
  barriers : (barrier_id, barrier_state) Hashtbl.t;
  conds : (cond_id, cond_state) Hashtbl.t;
  (* Lease-based failure detection / recovery bookkeeping. The shard's
     configuration epoch advances with every lease it expires; recovery
     stamps the directory and the promoted replica with it, fencing the
     suspected server's stale traffic. *)
  mutable heartbeats : int;
  mutable leases_expired : int;
  mutable cfg_epoch : int;
  mutable replayed : int;
  mutable orphans : orphan list;  (* newest first *)
}

let acquire_request_wire = 48
let ack_wire = 16
let grant_framing = 48
let notice_entry_wire = 12

let notice_wire notices = List.length notices * notice_entry_wire

let release_wire ~log ~line_versions =
  ack_wire + Update.log_wire_bytes log + notice_wire line_versions

let create cfg layout ~engine ~endpoint =
  { cfg;
    layout;
    engine;
    endpoint;
    service = Desim.Resource.create ~name:"manager" ();
    cursor = 0;
    locks = Hashtbl.create 64;
    barriers = Hashtbl.create 16;
    conds = Hashtbl.create 16;
    heartbeats = 0;
    leases_expired = 0;
    cfg_epoch = 0;
    replayed = 0;
    orphans = [] }

let endpoint t = t.endpoint
let service t = t.service

(* Reply pushes ride the retrying primitive: a dropped push would strand
   the recipient forever. A push whose source node is already dead (this
   shard crashed while the triggering request was in flight) is stashed
   and re-driven by the takeover shard. *)
let push t ~now ~dst ~bytes fire =
  let net = Fabric.Scl.network t.endpoint in
  try
    let arrival =
      Fabric.Scl.reliable_transfer net ~now
        ~src:(Fabric.Scl.node t.endpoint)
        ~dst:(Fabric.Scl.node dst)
        ~bytes
    in
    Desim.Engine.schedule_at t.engine arrival fire
  with Fabric.Scl.Node_dead _ ->
    t.orphans <- { o_endpoint = dst; o_bytes = bytes; o_fire = fire }
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
  match Hashtbl.find_opt t.locks lock with
  | Some s -> s
  | None -> invalid_arg "Manager_shard: unknown lock"

let lock_register t ~id =
  Hashtbl.replace t.locks id
    { holder = None;
      waiters = Queue.create ();
      version = 0;
      history = [];
      touched = Hashtbl.create 16;
      release_seen = Hashtbl.create 8 }

(* Build the consistency action bringing a thread from [last_seen] up to
   the lock's current version. *)
let grant_for t st ~last_seen =
  let action =
    if last_seen >= st.version then Fresh
    else begin
      (* History covers the gap iff it reaches back to last_seen + 1. *)
      let covering =
        List.filter (fun h -> h.h_version > last_seen) st.history
      in
      let covered =
        List.length covering = st.version - last_seen
        && t.cfg.Config.update_log_history > 0
      in
      if covered then begin
        (* Oldest first so later stores overwrite earlier ones. *)
        let ordered = List.rev covering in
        let log = List.concat_map (fun h -> h.h_log) ordered in
        let lv = Hashtbl.create 16 in
        List.iter
          (fun h ->
             List.iter (fun (l, v) -> Hashtbl.replace lv l v)
               h.h_line_versions)
          ordered;
        Patch (log, Hashtbl.fold (fun l v acc -> (l, v) :: acc) lv [])
      end
      else
        Notices (Hashtbl.fold (fun l v acc -> (l, v) :: acc) st.touched [])
    end
  in
  let wire =
    grant_framing
    + (match action with
       | Fresh -> 0
       | Patch (log, lvs) -> Update.log_wire_bytes log + notice_wire lvs
       | Notices ns -> notice_wire ns)
  in
  { lock_version = st.version; action; wire_bytes = wire }

let lock_acquire t ~now:_ ~lock ~thread ~last_seen ~endpoint ~wake =
  let st = lock_state t lock in
  match st.holder with
  | Some h when h = thread ->
    (* Shard-crash retry: the original acquire was granted but the reply
       leg died with the shard. Nobody else can have advanced the lock
       (this thread holds it), so the same grant is rebuilt. *)
    `Granted (grant_for t st ~last_seen)
  | None ->
    st.holder <- Some thread;
    `Granted (grant_for t st ~last_seen)
  | Some _ ->
    if Queue.fold (fun acc w -> acc || w.w_thread = thread) false st.waiters
    then begin
      (* Retry of a queued acquire: the first attempt's wake belongs to an
         already-resumed continuation — replace it in place. *)
      let q = Queue.create () in
      Queue.iter
        (fun w ->
           Queue.push
             (if w.w_thread = thread then
                { w with w_last_seen = last_seen; w_endpoint = endpoint;
                  w_wake = wake }
              else w)
             q)
        st.waiters;
      st.waiters <- q;
      `Queued
    end
    else begin
      Queue.push
        { w_thread = thread; w_last_seen = last_seen; w_endpoint = endpoint;
          w_wake = wake }
        st.waiters;
      `Queued
    end

let lock_release ?seq t ~now ~lock ~thread ~log ~line_versions =
  let st = lock_state t lock in
  let duplicate =
    match seq with
    | Some s ->
      (match Hashtbl.find_opt st.release_seen thread with
       | Some s' -> s' >= s
       | None -> false)
    | None -> false
  in
  if not duplicate then begin
    (match st.holder with
     | Some h when h = thread -> ()
     | _ ->
       invalid_arg
         "Manager_shard.lock_release: thread does not hold the lock");
    (match seq with
     | Some s -> Hashtbl.replace st.release_seen thread s
     | None -> ());
    st.version <- st.version + 1;
    st.history <-
      { h_version = st.version; h_log = log; h_line_versions = line_versions }
      :: st.history;
    (let keep = t.cfg.Config.update_log_history in
     if List.length st.history > keep then
       st.history <- List.filteri (fun i _ -> i < keep) st.history);
    List.iter (fun (l, v) -> Hashtbl.replace st.touched l v) line_versions;
    match Queue.take_opt st.waiters with
    | None -> st.holder <- None
    | Some w ->
      st.holder <- Some w.w_thread;
      let g = grant_for t st ~last_seen:w.w_last_seen in
      push t ~now ~dst:w.w_endpoint ~bytes:g.wire_bytes (fun () -> w.w_wake g)
  end

let lock_holder t lock = (lock_state t lock).holder
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
  match Hashtbl.find_opt t.barriers barrier with
  | Some s -> s
  | None -> invalid_arg "Manager_shard: unknown barrier"

let barrier_register t ~id ~parties =
  if parties <= 0 then invalid_arg "Manager_shard.barrier_create: parties";
  Hashtbl.replace t.barriers id
    { parties;
      epoch = 0;
      arrived = 0;
      bwaiters = [];
      epoch_writers = Hashtbl.create 64;
      parts = Tset.create ();
      last_epoch = -1;
      last_parts = Tset.create ();
      last_all = [];
      last_wire = 0 }

let barrier_arrive ?epoch t ~now ~barrier ~thread ~lines ~endpoint ~wake =
  if thread < 0 then
    invalid_arg "Manager_shard.barrier_arrive: negative thread id";
  let st = barrier_state t barrier in
  let duplicate_of_released =
    match epoch with
    | Some e -> e = st.last_epoch && Tset.mem st.last_parts thread
    | None -> false
  in
  if duplicate_of_released then
    (* Shard-crash retry: this thread's arrival already released the
       episode; hand it the released notices again. *)
    `Released (st.last_all, st.last_wire)
  else if List.exists (fun w -> w.b_thread = thread) st.bwaiters then begin
    (* Retry of an arrival parked in the in-progress episode: the first
       attempt's wake belongs to an already-resumed continuation. *)
    st.bwaiters <-
      List.map
        (fun w ->
           if w.b_thread = thread then
             { w with b_endpoint = endpoint; b_wake = wake }
           else w)
        st.bwaiters;
    `Wait
  end
  else begin
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
    Tset.add st.parts thread;
    st.arrived <- st.arrived + 1;
    if st.arrived < st.parties then begin
      st.bwaiters <-
        { b_thread = thread; b_endpoint = endpoint; b_wake = wake }
        :: st.bwaiters;
      `Wait
    end
    else begin
      let all =
        Hashtbl.fold (fun l set acc -> (l, set) :: acc) st.epoch_writers []
      in
      let wire = ack_wire + notice_wire all in
      List.iter
        (fun w ->
           push t ~now ~dst:w.b_endpoint ~bytes:wire (fun () ->
               w.b_wake (all, wire)))
        st.bwaiters;
      st.bwaiters <- [];
      st.arrived <- 0;
      st.last_epoch <- st.epoch;
      st.last_parts <- Tset.copy st.parts;
      st.last_all <- all;
      st.last_wire <- wire;
      Tset.clear st.parts;
      st.epoch <- st.epoch + 1;
      Hashtbl.reset st.epoch_writers;
      `Released (all, wire)
    end
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
  match Hashtbl.find_opt t.conds cond with
  | Some s -> s
  | None -> invalid_arg "Manager_shard: unknown condition variable"

let cond_register t ~id =
  Hashtbl.replace t.conds id { cwaiters = Queue.create () }

let cond_wait t ~cond ~thread ~endpoint ~wake =
  let st = cond_state t cond in
  Queue.push { c_thread = thread; c_endpoint = endpoint; c_wake = wake }
    st.cwaiters

let wake_one t ~now w =
  push t ~now ~dst:w.c_endpoint ~bytes:ack_wire (fun () -> w.c_wake ())

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

let heartbeat_wire = 24

let note_heartbeat t = t.heartbeats <- t.heartbeats + 1

(* Every lease expiry bumps the owning shard's configuration epoch, even
   when the suspicion later turns out false — the epoch numbers
   configuration changes, not deaths. *)
let note_lease_expired t =
  t.leases_expired <- t.leases_expired + 1;
  t.cfg_epoch <- t.cfg_epoch + 1

let epoch t = t.cfg_epoch

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
       List.iter
         (fun h ->
            List.iter
              (fun (line, v) ->
                 if Home.server_of_line t.cfg ~line = dead
                    && Memory_server.version psrv line < v
                 then begin
                   List.iter
                     (fun u ->
                        if List.mem line (Update.lines_touched t.layout u)
                        then
                          Update.apply_to_line t.layout u ~line
                            (Memory_server.line psrv line))
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
              h.h_line_versions)
         (List.rev st.history))
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
     takeover shard's own endpoint. Oldest first. *)
  let orphans = List.rev from.orphans in
  from.orphans <- [];
  List.iter
    (fun o -> push t ~now ~dst:o.o_endpoint ~bytes:o.o_bytes o.o_fire)
    orphans;
  (!moved, List.length orphans)

let heartbeats t = t.heartbeats
let leases_expired t = t.leases_expired
let replayed_updates t = t.replayed

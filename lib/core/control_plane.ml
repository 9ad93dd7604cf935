(* The sharded control plane: N Manager_shard instances behind one
   facade. Sync objects (locks, barriers, condvars) get facade-global ids
   and are assigned to shards by the consistent-hash ring; allocation
   stays on shard 0 (one bump pointer keeps GAS addresses identical to
   the unsharded build). A logical-to-physical shard map mirrors the
   Directory's server map: after a shard crash, the ring successor
   absorbs the dead shard's slice and the map repoints, so requesters
   re-resolve and land on the takeover shard. With manager_shards = 1
   everything degenerates to the classic singleton, byte-for-byte. *)

type t = {
  engine : Desim.Engine.t;
  shards : Manager_shard.t array;  (* by logical shard id *)
  ring : Hash_ring.t;
  (* physical.(logical) = shard currently serving that slice. Identity
     until a shard crash promotes the ring successor. *)
  physical : int array;
  nodes : int array;  (* fabric node of each (logical) shard, pre-crash *)
  mutable next_id : int;
  mutable dead_shard : int option;
  (* Wake callbacks of requesters blocked on a dead peer (memory server
     or shard), newest first; recovery or the partition heal drains it. *)
  mutable parked : (unit -> unit) list;
  mutable heartbeats : int;
  mutable shard_heartbeats : int;
  mutable takeovers : int;
  mutable absorbed_objects : int;
  mutable redriven_pushes : int;
}

let create ~engine ~shards ~nodes =
  let n = Array.length shards in
  if n < 1 then invalid_arg "Control_plane.create: at least one shard";
  { engine;
    shards;
    ring = Hash_ring.create ~shards:n;
    physical = Array.init n Fun.id;
    nodes;
    next_id = 1;
    dead_shard = None;
    parked = [];
    heartbeats = 0;
    shard_heartbeats = 0;
    takeovers = 0;
    absorbed_objects = 0;
    redriven_pushes = 0 }

let shard_count t = Array.length t.shards

let shard t i = t.shards.(i)

let shards t = t.shards

(* The shard currently serving sync object [id]. *)
let shard_for t id = t.shards.(t.physical.(Hash_ring.lookup t.ring id))

(* Allocation is pinned to shard 0 so the bump pointer — and therefore
   every GAS address — matches the unsharded build exactly. Shard 0 is
   never killable (Config.validate). *)
let alloc_shard t = t.shards.(t.physical.(0))

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let mutex_create t =
  let id = fresh_id t in
  Manager_shard.lock_register (shard_for t id) ~id;
  id

let barrier_create t ~parties =
  if parties <= 0 then invalid_arg "Manager_shard.barrier_create: parties";
  let id = fresh_id t in
  Manager_shard.barrier_register (shard_for t id) ~id ~parties;
  id

let cond_create t =
  let id = fresh_id t in
  Manager_shard.cond_register (shard_for t id) ~id;
  id

(* ------------------------------------------------------------------ *)
(* Shard-crash takeover                                                *)

let shard_failed t logical = t.dead_shard = Some logical

let any_shard_failed t = t.dead_shard <> None

let shard_node_of t node =
  let found = ref None in
  Array.iteri (fun i n -> if n = node then found := Some i) t.nodes;
  !found

let park t ~wake = t.parked <- wake :: t.parked

let wake_parked t ~now =
  let ws = List.rev t.parked in
  t.parked <- [];
  List.iter (fun wake -> Desim.Engine.schedule_at t.engine now wake) ws

let note_heartbeat t = t.heartbeats <- t.heartbeats + 1
let note_shard_heartbeat t = t.shard_heartbeats <- t.shard_heartbeats + 1

let sum f t = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards

(* The ring successor absorbs the dead shard's slice. Mirrors
   Directory.promote for memory servers: single-failure model, the map
   repoints, parked requesters are rescheduled at [now]. *)
let recover_shard t ~dead ~probe ~now =
  if t.dead_shard <> None then
    invalid_arg
      "Control_plane.recover_shard: a shard already failed (single-failure \
       model)";
  if dead = 0 then
    invalid_arg "Control_plane.recover_shard: shard 0 cannot be killed";
  let n = Array.length t.shards in
  let takeover = (dead + 1) mod n in
  Array.iteri
    (fun logical phys -> if phys = dead then t.physical.(logical) <- takeover)
    t.physical;
  t.dead_shard <- Some dead;
  t.takeovers <- t.takeovers + 1;
  let moved, redriven =
    Manager_shard.absorb t.shards.(takeover) ~from:t.shards.(dead) ~now
  in
  t.absorbed_objects <- t.absorbed_objects + moved;
  t.redriven_pushes <- t.redriven_pushes + redriven;
  (match probe with
   | Some p -> p.Probe.on_takeover ~time:now ~dead ~takeover ~moved ~redriven
   | None -> ());
  wake_parked t ~now;
  (takeover, moved, redriven)

(* ------------------------------------------------------------------ *)
(* Memory-server recovery, composed across shards                      *)

(* Promote once, then replay every shard's surviving logs in (shard,
   lock id) order, then wake the parked threads once. A round trip
   resolved against the suspected server before the promotion carries
   the old slot epoch, so if the server is merely partitioned (not
   dead) its in-flight traffic now fences. *)
let recover_server t ~dir ~servers ~dead ~probe ~now =
  let promoted = Directory.promote dir ~dead in
  let replayed =
    sum (fun sh -> Manager_shard.replay sh ~servers ~dead ~promoted ~probe ~now)
      t
  in
  wake_parked t ~now;
  (promoted, replayed)

(* ------------------------------------------------------------------ *)
(* Aggregated counters (metrics, reports)                              *)

let gas_used t = Manager_shard.gas_used (alloc_shard t)

let heartbeats t = t.heartbeats
let replayed_updates t = sum Manager_shard.replayed_updates t
let shard_heartbeats t = t.shard_heartbeats
let takeovers t = t.takeovers
let absorbed_objects t = t.absorbed_objects
let redriven_pushes t = t.redriven_pushes

(* Mean utilization / total jobs over the shard service resources. With
   one shard these equal the singleton's numbers exactly. *)
let service_utilization t ~horizon =
  let u =
    Array.fold_left
      (fun acc sh ->
         acc
         +. Desim.Resource.utilization (Manager_shard.service sh) ~horizon)
      0. t.shards
  in
  u /. float_of_int (Array.length t.shards)

let service_jobs t =
  sum (fun sh -> Desim.Resource.jobs (Manager_shard.service sh)) t

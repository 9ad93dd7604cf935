(* Logical-to-physical stripe map. Healthy systems have the identity map
   and pay nothing; after a crash the manager's recovery protocol repoints
   the dead logical server at its promoted backup. *)

type t = {
  memory_servers : int;
  (* physical.(logical) = index of the Memory_server currently serving
     that logical stripe slot. Identity until a promotion. *)
  physical : int array;
  (* The physical server declared fail-stop dead, once detected. A thread
     can observe deadness (Scl.Node_dead) before the manager's lease
     expires; [failed] distinguishes "recovery already ran" from "wait for
     it". *)
  mutable dead : int option;
  mutable promotions : int;
  (* Configuration epoch, monotonically increasing: bumped on every lease
     expiry (promotion). epochs.(logical) is the epoch under which that
     slot's current mapping was installed — clients stamp requests with
     it and fence replies whose slot epoch moved mid-flight. All zero
     until a promotion, so healthy runs never see a fence. *)
  mutable cur_epoch : int;
  epochs : int array;
  (* Gray-failure bookkeeping. [rejoined] marks that the (falsely)
     suspected server has been resynced back in as a backup. *)
  mutable rejoined : bool;
  mutable suspicions : int;
  mutable false_suspicions : int;
  mutable fenced : int;
  mutable rejoins : int;
}

exception Stale_epoch

let create (cfg : Config.t) =
  { memory_servers = cfg.Config.memory_servers;
    physical = Array.init cfg.Config.memory_servers Fun.id;
    dead = None;
    promotions = 0;
    cur_epoch = 0;
    epochs = Array.make cfg.Config.memory_servers 0;
    rejoined = false;
    suspicions = 0;
    false_suspicions = 0;
    fenced = 0;
    rejoins = 0 }

let physical_of_logical t logical =
  if logical < 0 || logical >= t.memory_servers then
    invalid_arg "Directory.physical_of_logical: bad logical server";
  t.physical.(logical)

let server_of_line t cfg ~line = t.physical.(Home.server_of_line cfg ~line)

(* Primary-backup placement: the backup of server [i] is its ring
   successor. With replication on, [memory_servers >= 2] guarantees the
   backup is a different node. *)
let backup_of t i = (i + 1) mod t.memory_servers

let failed t phys = t.dead = Some phys

let promote t ~dead =
  if t.dead <> None then
    invalid_arg "Directory.promote: a server already failed (single-failure \
                 model)";
  let e = t.cur_epoch + 1 in
  t.cur_epoch <- e;
  let promoted = backup_of t dead in
  (* Every logical slot mapped at the dead physical server (the identity
     slot, pre-promotion) repoints to the promoted backup and is stamped
     with the new epoch — a round trip that resolved the slot before the
     promotion carries the old stamp and will be fenced. *)
  Array.iteri
    (fun logical phys ->
       if phys = dead then begin
         t.physical.(logical) <- promoted;
         t.epochs.(logical) <- e
       end)
    t.physical;
  t.dead <- Some dead;
  t.promotions <- t.promotions + 1;
  promoted

let promotions t = t.promotions

let epoch t = t.cur_epoch

let epoch_of t ~logical =
  if logical < 0 || logical >= t.memory_servers then
    invalid_arg "Directory.epoch_of: bad logical server";
  t.epochs.(logical)

let note_fenced t = t.fenced <- t.fenced + 1

let fence t ~logical ~epoch =
  if t.epochs.(logical) <> epoch then begin
    note_fenced t;
    raise Stale_epoch
  end

let rejoined t = t.rejoined

let note_suspicion t = t.suspicions <- t.suspicions + 1
let note_false_suspicion t = t.false_suspicions <- t.false_suspicions + 1

let note_rejoin t =
  t.rejoined <- true;
  t.rejoins <- t.rejoins + 1

let suspicions t = t.suspicions
let false_suspicions t = t.false_suspicions
let fenced t = t.fenced
let rejoins t = t.rejoins

(* Logical-to-physical stripe map. Under the single-failure model it is
   derived from the one dead server: healthy systems map every slot to
   itself and pay nothing; after a promotion the dead server's own slot
   maps to its backup under epoch 1. *)

type t = {
  memory_servers : int;
  (* The physical server declared fail-stop dead, once detected. A thread
     can observe deadness (Scl.Node_dead) before the manager's lease
     expires; [failed] distinguishes "recovery already ran" from "wait for
     it". *)
  mutable dead : int option;
  (* Gray-failure bookkeeping. *)
  mutable suspicions : int;
  mutable false_suspicions : int;
  mutable fenced : int;
}

exception Stale_epoch

let create (cfg : Config.t) =
  { memory_servers = cfg.Config.memory_servers;
    dead = None;
    suspicions = 0;
    false_suspicions = 0;
    fenced = 0 }

(* Primary-backup placement: the backup of server [i] is its ring
   successor. With replication on, [memory_servers >= 2] guarantees the
   backup is a different node. *)
let backup_of t i = (i + 1) mod t.memory_servers

let check_logical t logical what =
  if logical < 0 || logical >= t.memory_servers then
    invalid_arg ("Directory." ^ what ^ ": bad logical server")

(* The repointed slot is the dead server's own: identity until a
   promotion, then the backup. *)
let physical t logical =
  match t.dead with
  | Some d when d = logical -> backup_of t d
  | _ -> logical

let physical_of_logical t logical =
  check_logical t logical "physical_of_logical";
  physical t logical

let server_of_line t cfg ~line = physical t (Home.server_of_line cfg ~line)

let failed t phys = t.dead = Some phys

(* The promotion bumps the configuration epoch from 0 to 1 and stamps the
   dead server's slot with it: a round trip that resolved the slot before
   the promotion carries the old stamp and will be fenced. *)
let promote t ~dead =
  if t.dead <> None then
    invalid_arg "Directory.promote: a server already failed (single-failure \
                 model)";
  t.dead <- Some dead;
  backup_of t dead

let epoch t = if t.dead = None then 0 else 1

(* At most one promotion, and it is the epoch's one bump. *)
let promotions = epoch

let slot_epoch t logical =
  match t.dead with Some d when d = logical -> 1 | _ -> 0

let epoch_of t ~logical =
  check_logical t logical "epoch_of";
  slot_epoch t logical

let note_fenced t = t.fenced <- t.fenced + 1

let fence t ~logical ~epoch =
  if slot_epoch t logical <> epoch then begin
    note_fenced t;
    raise Stale_epoch
  end

let note_suspicion t = t.suspicions <- t.suspicions + 1
let note_false_suspicion t = t.false_suspicions <- t.false_suspicions + 1

let suspicions t = t.suspicions
let false_suspicions t = t.false_suspicions
let fenced t = t.fenced

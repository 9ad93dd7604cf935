type peer = { p_node : Fabric.Network.node; p_cache : Cache.t }

type dirent = { mutable owner : int option; sharers : Tset.t }

type t = {
  peers : (int, peer) Hashtbl.t;
  dir : (int, dirent) Hashtbl.t;
}

let create () = { peers = Hashtbl.create 64; dir = Hashtbl.create 1024 }

let register t ~thread ~node cache =
  (* System.create validates the count up front; this guards direct use. *)
  if thread < 0 || thread >= Config.max_threads then
    invalid_arg "Coherence_sc.register: thread id out of range (max_threads)";
  Hashtbl.replace t.peers thread { p_node = node; p_cache = cache }

let peer t thread =
  match Hashtbl.find_opt t.peers thread with
  | Some p -> p
  | None -> invalid_arg "Coherence_sc.peer: unregistered thread"

let entry t line =
  match Hashtbl.find_opt t.dir line with
  | Some e -> e
  | None ->
    let e = { owner = None; sharers = Tset.create () } in
    Hashtbl.replace t.dir line e;
    e

let owner t ~line = (entry t line).owner
let sharers t ~line = (entry t line).sharers

let set_owner t ~line ~thread =
  let e = entry t line in
  e.owner <- Some thread;
  Tset.clear e.sharers

let clear_owner t ~line = (entry t line).owner <- None

let add_sharer t ~line ~thread = Tset.add (entry t line).sharers thread

let drop_sharer t ~line ~thread = Tset.remove (entry t line).sharers thread

let sharer_list t ~line = Tset.to_list (sharers t ~line)

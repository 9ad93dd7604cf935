type t = {
  id : int;
  endpoint : Fabric.Scl.endpoint;
  layout : Layout.t;
  cfg : Config.t;
  store : (int, bytes) Hashtbl.t;
  versions : (int, int) Hashtbl.t;
  service : Desim.Resource.t;
  mutable fetches : int;
  mutable diffs : int;
  mutable updates : int;
  (* Primary-backup replication (Config.replication = 1): writes applied
     here are synchronously mirrored into [backup]'s store by the
     requesting thread, after the mirror round trip's time is charged. *)
  mutable backup : t option;
  mutable mirrors : int;
  mutable mirror_bytes : int;
  mutable degraded : int;
}

let create cfg layout ~id ~endpoint =
  { id;
    endpoint;
    layout;
    cfg;
    store = Hashtbl.create 1024;
    versions = Hashtbl.create 1024;
    service = Desim.Resource.create ~name:(Printf.sprintf "memsrv%d" id) ();
    fetches = 0;
    diffs = 0;
    updates = 0;
    backup = None;
    mirrors = 0;
    mirror_bytes = 0;
    degraded = 0 }

let id t = t.id
let endpoint t = t.endpoint
let service t = t.service

let set_backup t b = t.backup <- Some b
let backup t = t.backup

let line t line_id =
  match Hashtbl.find_opt t.store line_id with
  | Some b -> b
  | None ->
    let b = Bytes.make t.layout.Layout.line_bytes '\000' in
    Hashtbl.replace t.store line_id b;
    b

let version t line_id =
  Option.value (Hashtbl.find_opt t.versions line_id) ~default:0

let bump_version t line_id =
  let v = version t line_id + 1 in
  Hashtbl.replace t.versions line_id v;
  v

let fetch t line_id =
  t.fetches <- t.fetches + 1;
  (Bytes.copy (line t line_id), version t line_id)

let apply_diff t diff =
  t.diffs <- t.diffs + 1;
  Diff.apply diff (line t diff.Diff.line);
  bump_version t diff.Diff.line

let apply_update t (u : Update.t) =
  t.updates <- t.updates + 1;
  let l = Update.line_of t.layout u in
  Update.apply_to_line t.layout u ~line:l (line t l);
  (l, bump_version t l)

let note_mirror t ~bytes =
  t.mirrors <- t.mirrors + 1;
  t.mirror_bytes <- t.mirror_bytes + bytes

let note_degraded t = t.degraded <- t.degraded + 1

(* Recovery replay: raise a line's version to at least [v] (idempotent —
   the synchronous mirror usually has the promoted replica there
   already). *)
let force_version t line_id v =
  if v > version t line_id then Hashtbl.replace t.versions line_id v

(* Visit every materialized line with its contents and version, in
   line-id order so callers stay schedule-deterministic. *)
let iter_lines t f =
  Hashtbl.fold (fun line_id _ acc -> line_id :: acc) t.store []
  |> List.sort compare
  |> List.iter (fun line_id ->
      f line_id (line t line_id) (version t line_id))

let service_time_for_bytes t bytes =
  t.cfg.Config.server_service
  + Desim.Time.span_of_units ~units:bytes
      ~ns_per_unit:t.cfg.Config.diff_apply_ns_per_byte

let lines_resident t = Hashtbl.length t.store
let fetches t = t.fetches
let diffs_applied t = t.diffs
let updates_applied t = t.updates
let mirrors t = t.mirrors
let mirror_bytes t = t.mirror_bytes
let degraded_writes t = t.degraded

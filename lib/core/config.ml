type model = Regc | Sc_invalidate

(* Which pairs a partitioned memory server loses. Isolate cuts the victim
   off from everyone (clients stall and park until the heal — no false
   promotion can corrupt anything because nobody reaches the victim
   either). Control cuts only the manager-shard nodes: clients still
   reach the victim while the lease monitor suspects it — the
   zombie-primary case the epoch fence exists for. *)
type partition_scope = Isolate | Control

type t = {
  model : model;
  page_bytes : int;
  pages_per_line : int;
  cache_lines : int;
  evict_dirty_first : bool;
  prefetch : bool;
  small_threshold : int;
  large_threshold : int;
  arena_chunk_bytes : int;
  stripe_lines : int;
  update_log_history : int;
  manager_bypass : bool;
  coalesce_updates : bool;
  t_mem : float;
  t_flop : float;
  server_service : Desim.Time.span;
  manager_service : Desim.Time.span;
  diff_apply_ns_per_byte : float;
  memory_servers : int;
  threads_per_node : int;
  fabric : Fabric.Profile.t;
  seed : int;
  sanitize : bool;
  fault_level : Fabric.Faults.level;
  shuffle : bool;
  replication : int;
  crash_server : (int * int) option;
  lease_interval : Desim.Time.span;
  max_threads : int;
  manager_shards : int;
  home_migration : bool;
  migration_window : int;
  crash_shard : (int * int) option;
  (* Gray-failure injection: (server, scope, start_ns, heal_ns) makes the
     server's node unreachable per scope inside [start, heal) — it keeps
     executing, unlike crash_server. stall_server (server, start_ns,
     heal_ns) adds a constant multi-RTT penalty to its traffic instead. *)
  partition_server : (int * partition_scope * int * int) option;
  stall_server : (int * int * int) option;
}

let default =
  { model = Regc;
    page_bytes = 4096;
    pages_per_line = 4;
    cache_lines = 1024;  (* 16 MiB of cached lines per thread *)
    evict_dirty_first = true;
    prefetch = true;
    small_threshold = 32 * 1024;
    large_threshold = 1024 * 1024;
    arena_chunk_bytes = 64 * 1024;
    stripe_lines = 4;
    update_log_history = 64;
    manager_bypass = false;
    coalesce_updates = false;
    t_mem = 1.2;
    t_flop = 0.8;
    server_service = Desim.Time.ns 1_500;
    manager_service = Desim.Time.ns 1_000;
    diff_apply_ns_per_byte = 0.25;
    memory_servers = 1;
    threads_per_node = 8;
    fabric = Fabric.Profile.ib_qdr_verbs;
    seed = 42;
    sanitize = false;
    fault_level = Fabric.Faults.Off;
    shuffle = false;
    replication = 0;
    crash_server = None;
    lease_interval = Desim.Time.ns 100_000;
    max_threads = 512;
    manager_shards = 1;
    home_migration = false;
    migration_window = 32;
    crash_shard = None;
    partition_server = None;
    stall_server = None }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let line_bytes t = t.page_bytes * t.pages_per_line

let line_shift t =
  let rec shift n acc = if n <= 1 then acc else shift (n lsr 1) (acc + 1) in
  shift (line_bytes t) 0

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (is_pow2 t.page_bytes) "page_bytes must be a power of two" in
  let* () =
    check
      (is_pow2 t.pages_per_line && t.pages_per_line <= 62)
      "pages_per_line must be a power of two <= 62"
  in
  let* () = check (t.cache_lines >= 2) "cache_lines must be >= 2" in
  let* () =
    check (t.small_threshold >= 8) "small_threshold must be >= 8"
  in
  let* () =
    check
      (t.large_threshold >= t.small_threshold)
      "large_threshold must be >= small_threshold"
  in
  let* () =
    check
      (t.arena_chunk_bytes >= t.small_threshold
       && t.arena_chunk_bytes mod line_bytes t = 0)
      "arena_chunk_bytes must be a line multiple >= small_threshold"
  in
  let* () = check (t.stripe_lines >= 1) "stripe_lines must be >= 1" in
  let* () =
    check (t.update_log_history >= 0) "update_log_history must be >= 0"
  in
  let* () = check (t.memory_servers >= 1) "memory_servers must be >= 1" in
  let* () =
    check (t.threads_per_node >= 1) "threads_per_node must be >= 1"
  in
  let* () =
    check
      (t.t_mem >= 0. && t.t_flop >= 0. && t.diff_apply_ns_per_byte >= 0.)
      "cost-model rates must be non-negative"
  in
  let* () =
    check (t.replication = 0 || t.replication = 1)
      "replication must be 0 or 1 (primary-backup)"
  in
  let* () =
    check
      (t.replication = 0 || t.memory_servers >= 2)
      "replication requires memory_servers >= 2 (a backup must live on \
       another node)"
  in
  let* () =
    check (t.replication = 0 || t.model = Regc)
      "replication is only modeled for the regc engine"
  in
  let* () =
    match t.crash_server with
    | None -> Ok ()
    | Some (srv, at) ->
      let* () =
        check
          (srv >= 0 && srv < t.memory_servers)
          "crash_server index out of range"
      in
      let* () = check (at >= 0) "crash_server instant must be >= 0" in
      check (t.model = Regc)
        "crash_server is only modeled for the regc engine"
  in
  let* () = check (t.lease_interval >= 1) "lease_interval must be >= 1ns" in
  let* () = check (t.max_threads >= 1) "max_threads must be >= 1" in
  let* () =
    check (t.manager_shards >= 1) "manager_shards must be >= 1"
  in
  let* () =
    check
      ((not t.manager_bypass) || t.manager_shards = 1)
      "manager_bypass requires manager_shards = 1 (bypass is a \
       single-compute-node optimization)"
  in
  let* () =
    check (t.migration_window >= 2) "migration_window must be >= 2"
  in
  let* () =
    check
      ((not t.home_migration) || t.model = Regc)
      "home_migration is only modeled for the regc engine"
  in
  let* () =
    match t.crash_shard with
    | None -> Ok ()
    | Some (shard, at) ->
      let* () =
        check (t.manager_shards >= 2)
          "crash_shard requires manager_shards >= 2 (a surviving shard must \
           take over)"
      in
      let* () =
        check
          (shard >= 1 && shard < t.manager_shards)
          "crash_shard index out of range (shard 0 hosts allocation and is \
           not killable)"
      in
      let* () = check (at >= 0) "crash_shard instant must be >= 0" in
      let* () =
        check (t.crash_server = None)
          "crash_shard and crash_server are mutually exclusive \
           (single-failure model)"
      in
      check (t.model = Regc) "crash_shard is only modeled for the regc engine"
  in
  let* () =
    match t.partition_server with
    | None -> Ok ()
    | Some (srv, _, start, heal) ->
      let* () =
        check
          (srv >= 0 && srv < t.memory_servers)
          "partition_server index out of range"
      in
      let* () =
        check
          (0 <= start && start < heal)
          "partition_server window must satisfy 0 <= start < heal"
      in
      let* () =
        check (t.model = Regc)
          "partition_server is only modeled for the regc engine"
      in
      let* () =
        check (t.replication = 1)
          "partition_server requires replication = 1 (promotion under a \
           false suspicion needs a backup to promote)"
      in
      check
        (t.crash_server = None && t.crash_shard = None)
        "partition_server and crash injection are mutually exclusive \
         (single-failure model)"
  in
  match t.stall_server with
  | None -> Ok ()
  | Some (srv, start, heal) ->
    let* () =
      check
        (srv >= 0 && srv < t.memory_servers)
        "stall_server index out of range"
    in
    let* () =
      check
        (0 <= start && start < heal)
        "stall_server window must satisfy 0 <= start < heal"
    in
    check (t.model = Regc) "stall_server is only modeled for the regc engine"

let model_name = function Regc -> "regc" | Sc_invalidate -> "sc-invalidate"

let scope_name = function Isolate -> "isolate" | Control -> "control"

let scope_of_string = function
  | "isolate" | "iso" -> Ok Isolate
  | "control" | "ctl" -> Ok Control
  | s -> Error (Printf.sprintf "unknown partition scope %S" s)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>model=%s page=%dB line=%dpages cache=%dlines prefetch=%b dirty-first=%b sanitize=%b@ \
     torture: faults=%s shuffle=%b seed=%d@ \
     alloc: small<=%d large>%d arena=%d stripe=%d@ \
     regc: history=%d bypass=%b coalesce=%b@ \
     cost: mem=%.2fns flop=%.2fns server=%a manager=%a diff=%.3fns/B@ \
     layout: %d server(s), %d threads/node, %s@ \
     ft: replication=%d crash=%s lease=%a@ \
     ctl: shards=%d max-threads=%d migrate=%b crash-shard=%s"
    (model_name t.model)
    t.page_bytes t.pages_per_line t.cache_lines t.prefetch
    t.evict_dirty_first t.sanitize
    (Fabric.Faults.level_name t.fault_level)
    t.shuffle t.seed t.small_threshold t.large_threshold
    t.arena_chunk_bytes t.stripe_lines t.update_log_history t.manager_bypass
    t.coalesce_updates
    t.t_mem t.t_flop Desim.Time.pp_span t.server_service Desim.Time.pp_span
    t.manager_service t.diff_apply_ns_per_byte t.memory_servers
    t.threads_per_node t.fabric.Fabric.Profile.name
    t.replication
    (match t.crash_server with
     | None -> "none"
     | Some (srv, at) -> Printf.sprintf "server%d@%dns" srv at)
    Desim.Time.pp_span t.lease_interval
    t.manager_shards t.max_threads t.home_migration
    (match t.crash_shard with
     | None -> "none"
     | Some (shard, at) -> Printf.sprintf "shard%d@%dns" shard at);
  (* Only gray-failure runs mention partitions/stalls, keeping every other
     report byte-identical. *)
  if t.partition_server <> None || t.stall_server <> None then
    Format.fprintf ppf "@ gray: partition=%s stall=%s"
      (match t.partition_server with
       | None -> "none"
       | Some (srv, scope, start, heal) ->
         Printf.sprintf "server%d/%s@[%dns,%dns)" srv (scope_name scope)
           start heal)
      (match t.stall_server with
       | None -> "none"
       | Some (srv, start, heal) ->
         Printf.sprintf "server%d@[%dns,%dns)" srv start heal);
  Format.fprintf ppf "@]"

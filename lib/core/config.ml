type model = Regc | Sc_invalidate

(* Which pairs a partitioned memory server loses. Isolate cuts the victim
   off from everyone (clients stall and park until the heal — no false
   promotion can corrupt anything because nobody reaches the victim
   either). Control cuts only the manager-shard nodes: clients still
   reach the victim while the lease monitor suspects it — the
   zombie-primary case the epoch fence exists for. *)
type partition_scope = Isolate | Control

(* The run's one injected failure (single-failure model): a crash is
   fail-stop from at_ns on; a partition cuts the server's node off per
   scope inside [start_ns, heal_ns) while it keeps executing. *)
type fault =
  | Crash_server of { server : int; at_ns : int }
  | Crash_shard of { shard : int; at_ns : int }
  | Partition_server of {
      server : int;
      scope : partition_scope;
      start_ns : int;
      heal_ns : int;
    }

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
  lease_interval : Desim.Time.span;
  manager_shards : int;
  fault : fault option;
}

let max_threads = 512

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
    lease_interval = Desim.Time.ns 100_000;
    manager_shards = 1;
    fault = None }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let line_bytes t = t.page_bytes * t.pages_per_line

let line_shift t =
  let rec shift n acc = if n <= 1 then acc else shift (n lsr 1) (acc + 1) in
  shift (line_bytes t) 0

(* Prefix of the failure's validation messages. *)
let fault_name = function
  | Crash_server _ -> "crash_server"
  | Crash_shard _ -> "crash_shard"
  | Partition_server _ -> "partition_server"

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
  let* () = check (t.lease_interval >= 1) "lease_interval must be >= 1ns" in
  let* () =
    check (t.manager_shards >= 1) "manager_shards must be >= 1"
  in
  let* () =
    check
      ((not t.manager_bypass) || t.manager_shards = 1)
      "manager_bypass requires manager_shards = 1 (bypass is a \
       single-compute-node optimization)"
  in
  match t.fault with
  | None -> Ok ()
  | Some f ->
    let name = fault_name f in
    let server_in_range server =
      check
        (server >= 0 && server < t.memory_servers)
        (name ^ " index out of range")
    in
    let window start heal =
      check
        (0 <= start && start < heal)
        (name ^ " window must satisfy 0 <= start < heal")
    in
    let* () =
      match f with
      | Crash_server { server; at_ns } ->
        let* () = server_in_range server in
        check (at_ns >= 0) "crash_server instant must be >= 0"
      | Crash_shard { shard; at_ns } ->
        let* () =
          check (t.manager_shards >= 2)
            "crash_shard requires manager_shards >= 2 (a surviving shard \
             must take over)"
        in
        let* () =
          check
            (shard >= 1 && shard < t.manager_shards)
            "crash_shard index out of range (shard 0 hosts allocation and \
             is not killable)"
        in
        check (at_ns >= 0) "crash_shard instant must be >= 0"
      | Partition_server { server; start_ns; heal_ns; _ } ->
        let* () = server_in_range server in
        window start_ns heal_ns
    in
    let* () =
      check (t.model = Regc) (name ^ " is only modeled for the regc engine")
    in
    match f with
    | Partition_server _ ->
      check (t.replication = 1)
        "partition_server requires replication = 1 (promotion under a \
         false suspicion needs a backup to promote)"
    | Crash_server _ | Crash_shard _ -> Ok ()

let model_name = function Regc -> "regc" | Sc_invalidate -> "sc-invalidate"

let scope_name = function Isolate -> "isolate" | Control -> "control"

let fault_to_string = function
  | None -> "none"
  | Some (Crash_server { server; at_ns }) ->
    Printf.sprintf "crash:server%d@%dns" server at_ns
  | Some (Crash_shard { shard; at_ns }) ->
    Printf.sprintf "crash:shard%d@%dns" shard at_ns
  | Some (Partition_server { server; scope; start_ns; heal_ns }) ->
    Printf.sprintf "partition:server%d/%s@[%dns,%dns)" server
      (scope_name scope) start_ns heal_ns

let pp ppf t =
  Format.fprintf ppf
    "@[<v>model=%s page=%dB line=%dpages cache=%dlines prefetch=%b dirty-first=%b sanitize=%b@ \
     torture: faults=%s shuffle=%b seed=%d@ \
     alloc: small<=%d large>%d arena=%d stripe=%d@ \
     regc: history=%d bypass=%b@ \
     cost: mem=%.2fns flop=%.2fns server=%a manager=%a diff=%.3fns/B@ \
     layout: %d server(s), %d threads/node, %s@ \
     ft: replication=%d lease=%a fault=%s@ \
     ctl: shards=%d max-threads=%d@]"
    (model_name t.model)
    t.page_bytes t.pages_per_line t.cache_lines t.prefetch
    t.evict_dirty_first t.sanitize
    (Fabric.Faults.level_name t.fault_level)
    t.shuffle t.seed t.small_threshold t.large_threshold
    t.arena_chunk_bytes t.stripe_lines t.update_log_history t.manager_bypass
    t.t_mem t.t_flop Desim.Time.pp_span t.server_service Desim.Time.pp_span
    t.manager_service t.diff_apply_ns_per_byte t.memory_servers
    t.threads_per_node t.fabric.Fabric.Profile.name
    t.replication Desim.Time.pp_span t.lease_interval
    (fault_to_string t.fault)
    t.manager_shards max_threads

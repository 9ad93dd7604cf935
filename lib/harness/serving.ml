type backend_kind = Smh | Pth

let backend_name = function Smh -> "smh" | Pth -> "pth"

type point = {
  fraction : float;
  rate_rps : float;
  served : int;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  mean_ns : float;
  max_ns : int;
  achieved_rps : float;
  wall_ns : int;
  lost_writes : int;
}

type t = {
  backend : string;
  threads : int;
  replication : bool;
  manager_shards : int;
  crash : bool;
  kv : Workload.Kv.params;
  capacity_rps : float;
  points : point list;
}

let default_fractions = [ 0.25; 0.5; 0.75; 0.9; 1.5 ]

(* Both sides of a replication on/off comparison run with two memory
   servers, so the comparison isolates the mirroring cost itself (the
   bench replication probe does the same). *)
let smh_config ~replication ~manager_shards ~crash ~span_ns =
  let base =
    { Samhita.Config.default with
      Samhita.Config.memory_servers = 2;
      replication;
      manager_shards }
  in
  if crash then
    { base with
      Samhita.Config.fault =
        Some (Crash_server { server = 0; at_ns = span_ns / 2 });
      lease_interval = Desim.Time.ns 20_000 }
  else base

let backend_of ~kind ~replication ~manager_shards ~crash ~span_ns :
  Workload.Backend_sig.backend =
  match kind with
  | Pth -> Workload.Smp_backend.default
  | Smh ->
    Workload.Samhita_backend.make
      ~config:(smh_config ~replication ~manager_shards ~crash ~span_ns) ()

(* Serving span at the offered rate: when to schedule a mid-run crash. *)
let span_ns_of (kv : Workload.Kv.params) =
  let tp = kv.Workload.Kv.traffic in
  int_of_float
    (float_of_int tp.Workload.Traffic.requests
     *. 1e9 /. tp.Workload.Traffic.rate_rps)

let run_kv ~kind ~threads ~replication ~manager_shards ~crash
    (kv : Workload.Kv.params) =
  let b =
    backend_of ~kind ~replication ~manager_shards ~crash
      ~span_ns:(span_ns_of kv)
  in
  Workload.Kv.run b ~threads kv

(* Nearest rank over the exact sorted sample, as perfbench reads kv's
   tail. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let point_of ~fraction ~rate_rps (r : Workload.Kv.result) =
  let lat = r.Workload.Kv.latencies_ns in
  let sorted = Array.copy lat in
  Array.sort Int.compare sorted;
  let sum = Array.fold_left (fun s l -> s +. float_of_int l) 0. lat in
  { fraction;
    rate_rps;
    served = r.Workload.Kv.served;
    p50_ns = nearest_rank sorted 0.5;
    p99_ns = nearest_rank sorted 0.99;
    p999_ns = nearest_rank sorted 0.999;
    mean_ns = sum /. float_of_int (Array.length lat);
    max_ns = sorted.(Array.length sorted - 1);
    achieved_rps =
      float_of_int r.Workload.Kv.served *. 1e9
      /. float_of_int r.Workload.Kv.wall_ns;
    wall_ns = r.Workload.Kv.wall_ns;
    lost_writes = List.length (Workload.Kv.lost_writes r) }

let with_rate (kv : Workload.Kv.params) rate =
  { kv with
    Workload.Kv.traffic =
      { kv.Workload.Kv.traffic with Workload.Traffic.rate_rps = rate } }

let run ?(fractions = default_fractions) ?(manager_shards = 1) ~backend:kind
    ~threads ~replication ~crash (kv : Workload.Kv.params) =
  if threads <= 0 then invalid_arg "Serving.run: threads";
  if manager_shards < 1 then
    invalid_arg "Serving.run: manager_shards must be >= 1";
  if kind = Pth && (replication || crash || manager_shards > 1) then
    invalid_arg
      "Serving.run: replication, crash and manager shards need the smh \
       backend";
  if crash && not replication then
    invalid_arg "Serving.run: a crash is survivable only with replication";
  if fractions = [] then invalid_arg "Serving.run: empty load sweep";
  List.iter
    (fun f ->
       if not (Float.is_finite f) || f <= 0. then
         invalid_arg "Serving.run: load fractions must be positive")
    fractions;
  (* Capacity probe: offered load so far beyond any capacity that every
     request has arrived by the time serving starts — the workers run
     closed-loop, back to back, and throughput is pure service capacity.
     The probe never crashes (a recovery pause would understate
     capacity and shift every sweep point). *)
  let probe_r =
    run_kv ~kind ~threads ~replication ~manager_shards ~crash:false
      (with_rate kv 1e12)
  in
  let capacity_rps =
    float_of_int probe_r.Workload.Kv.served *. 1e9
    /. float_of_int probe_r.Workload.Kv.wall_ns
  in
  let points =
    List.map
      (fun fraction ->
         let rate_rps = fraction *. capacity_rps in
         run_kv ~kind ~threads ~replication ~manager_shards ~crash
           (with_rate kv rate_rps)
         |> point_of ~fraction ~rate_rps)
      fractions
  in
  { backend = backend_name kind;
    threads;
    replication;
    manager_shards;
    crash;
    kv;
    capacity_rps;
    points }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp ppf t =
  let tp = t.kv.Workload.Kv.traffic in
  Format.fprintf ppf
    "== kv serving: %s P=%d keys=%d shards=%d clients=%d requests=%d \
     zipf=%.2f reads=%.2f repl=%d%s%s ==@\n"
    t.backend t.threads tp.Workload.Traffic.keys t.kv.Workload.Kv.shards
    tp.Workload.Traffic.clients tp.Workload.Traffic.requests
    tp.Workload.Traffic.zipf_s tp.Workload.Traffic.read_fraction
    (Bool.to_int t.replication)
    (if t.manager_shards > 1 then
       Printf.sprintf " mshards=%d" t.manager_shards
     else "")
    (if t.crash then " crash" else "");
  Format.fprintf ppf "capacity %.0f req/s (closed-loop probe)@\n"
    t.capacity_rps;
  Format.fprintf ppf
    "%8s %12s %12s %10s %10s %10s %10s %6s@\n"
    "load" "offered" "achieved" "p50" "p99" "p999" "max" "lost";
  List.iter
    (fun p ->
       Format.fprintf ppf
         "%7.0f%% %12.0f %12.0f %10d %10d %10d %10d %6d@\n"
         (p.fraction *. 100.) p.rate_rps p.achieved_rps p.p50_ns p.p99_ns
         p.p999_ns p.max_ns p.lost_writes)
    t.points

(* ------------------------------------------------------------------ *)
(* JSON (hand-rolled: no parser dependency) *)

let to_json t =
  let b = Buffer.create 1024 in
  let tp = t.kv.Workload.Kv.traffic in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"backend\": \"%s\",\n" t.backend;
  Printf.bprintf b "  \"threads\": %d,\n" t.threads;
  Printf.bprintf b "  \"replication\": %d,\n" (Bool.to_int t.replication);
  Printf.bprintf b "  \"manager_shards\": %d,\n" t.manager_shards;
  Printf.bprintf b "  \"crash\": %b,\n" t.crash;
  Printf.bprintf b "  \"keys\": %d,\n" tp.Workload.Traffic.keys;
  Printf.bprintf b "  \"shards\": %d,\n" t.kv.Workload.Kv.shards;
  Printf.bprintf b "  \"clients\": %d,\n" tp.Workload.Traffic.clients;
  Printf.bprintf b "  \"requests\": %d,\n" tp.Workload.Traffic.requests;
  Printf.bprintf b "  \"zipf_s\": %g,\n" tp.Workload.Traffic.zipf_s;
  Printf.bprintf b "  \"read_fraction\": %g,\n"
    tp.Workload.Traffic.read_fraction;
  Printf.bprintf b "  \"seed\": %d,\n" tp.Workload.Traffic.seed;
  Printf.bprintf b "  \"capacity_rps\": %.1f,\n" t.capacity_rps;
  Buffer.add_string b "  \"points\": [";
  List.iteri
    (fun i p ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b "\n    {";
       Printf.bprintf b "\"fraction\": %g, " p.fraction;
       Printf.bprintf b "\"rate_rps\": %.1f, " p.rate_rps;
       Printf.bprintf b "\"achieved_rps\": %.1f, " p.achieved_rps;
       Printf.bprintf b "\"served\": %d, " p.served;
       Printf.bprintf b "\"p50_ns\": %d, " p.p50_ns;
       Printf.bprintf b "\"p99_ns\": %d, " p.p99_ns;
       Printf.bprintf b "\"p999_ns\": %d, " p.p999_ns;
       Printf.bprintf b "\"mean_ns\": %.1f, " p.mean_ns;
       Printf.bprintf b "\"max_ns\": %d, " p.max_ns;
       Printf.bprintf b "\"wall_ns\": %d, " p.wall_ns;
       Printf.bprintf b "\"lost_writes\": %d}" p.lost_writes)
    t.points;
  Buffer.add_string b "\n  ]\n}";
  Buffer.contents b

type event = {
  e_client : int;
  e_key : int;
  e_op : Traffic.op;
  e_version : int;
}

type params = {
  traffic : Traffic.params;
  shards : int;
  service_flops : int;
}

let default_params =
  { traffic =
      { Traffic.clients = 16;
        requests = 2048;
        rate_rps = 500_000.;
        keys = 256;
        zipf_s = 0.9;
        read_fraction = 0.9;
        seed = 42 };
    shards = 4;
    service_flops = 32 }

type result = {
  params : params;
  threads : int;
  wall_ns : int;
  served : int;
  latencies_ns : int array;
  idle_ns : int;
  final_versions : int array;
  expected_versions : int array;
  history : event array;
}

(* Per-shard value stripes are padded to the largest DSM line any
   configuration uses (Kernel_util.isolation_pad) so two shards never
   share a line: a Put under shard lock A must not generate write traffic
   that invalidates shard B's hot keys at another worker. Within a
   stripe, key [k] (with [k mod shards = shard]) lives at slot
   [k / shards]. *)
let stripe_bytes ~keys ~shards =
  let keys_per_shard = (keys + shards - 1) / shards in
  let bytes = keys_per_shard * 8 in
  (bytes + Kernel_util.isolation_pad - 1)
  / Kernel_util.isolation_pad * Kernel_util.isolation_pad

module Make (B : Backend_sig.S) = struct
  let run ?(record_history = false) ~threads (p : params) =
    if threads <= 0 then invalid_arg "Kv.run: threads";
    if p.shards <= 0 then invalid_arg "Kv.run: shards";
    if p.service_flops < 0 then invalid_arg "Kv.run: service_flops";
    let tp = p.traffic in
    let keys = tp.Traffic.keys in
    let requests = Traffic.generate tp in
    (* Partition request indices, not requests, so recorded latencies line
       up with the generated stream by global index. *)
    let assignment = Array.make threads [] in
    Array.iteri
      (fun i r ->
         let w = r.Traffic.client mod threads in
         assignment.(w) <- i :: assignment.(w))
      requests;
    let assignment = Array.map (fun l -> Array.of_list (List.rev l)) assignment in
    let stripe = stripe_bytes ~keys ~shards:p.shards in
    let sys = B.create ~threads in
    let locks = Array.init p.shards (fun _ -> B.mutex sys) in
    let bar = B.barrier sys ~parties:threads in
    let base_addr = ref 0 in
    let latencies = Array.make (Array.length requests) 0 in
    let idle = Array.make threads 0 in
    let histories = Array.make threads [] in
    let final_versions = Array.make keys 0 in
    let slot base k = base + ((k mod p.shards) * stripe) + (k / p.shards * 8) in
    let body t =
      let tid = B.thread_id t in
      if tid = 0 then begin
        let base = B.malloc t ~bytes:(p.shards * stripe) in
        (* First-touch zeroing is ordinary stores; the barrier below
           publishes them, after which every access is under a shard
           lock (region stores — the legal RegC mix). *)
        for k = 0 to keys - 1 do
          B.write_f64 t (slot base k) 0.0
        done;
        base_addr := base
      end;
      B.barrier_wait t bar;
      let base = !base_addr in
      let start = B.now_ns t in
      let idle0 = ref 0 in
      Array.iter
        (fun i ->
           let r = requests.(i) in
           let arrival = start + r.Traffic.arrival_ns in
           (* Open-loop wait: a past arrival is a no-op and the request
              is served late — its latency records the queueing delay. *)
           let before = B.now_ns t in
           B.idle_until t arrival;
           idle0 := !idle0 + max 0 (arrival - before);
           let shard = r.Traffic.key mod p.shards in
           let addr = slot base r.Traffic.key in
           B.lock t locks.(shard);
           B.charge_flops t p.service_flops;
           let version =
             match r.Traffic.op with
             | Traffic.Get -> int_of_float (B.read_f64 t addr)
             | Traffic.Put ->
               let v = int_of_float (B.read_f64 t addr) + 1 in
               B.write_f64 t addr (float_of_int v);
               v
           in
           B.unlock t locks.(shard);
           latencies.(i) <- B.now_ns t - arrival;
           if record_history then
             histories.(tid)
             <- { e_client = r.Traffic.client;
                  e_key = r.Traffic.key;
                  e_op = r.Traffic.op;
                  e_version = version }
                :: histories.(tid))
        assignment.(tid);
      idle.(tid) <- !idle0;
      B.barrier_wait t bar;
      (* Post-run audit: read every key back under its shard lock. *)
      if tid = 0 then
        for shard = 0 to p.shards - 1 do
          B.lock t locks.(shard);
          let k = ref shard in
          while !k < keys do
            final_versions.(!k) <- int_of_float (B.read_f64 t (slot base !k));
            k := !k + p.shards
          done;
          B.unlock t locks.(shard)
        done
    in
    for _i = 1 to threads do
      B.spawn sys body
    done;
    B.run sys;
    let history =
      if record_history then
        Array.concat
          (Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) histories))
      else [||]
    in
    { params = p;
      threads;
      wall_ns = B.elapsed_ns sys;
      served = Array.length requests;
      latencies_ns = latencies;
      idle_ns = Array.fold_left ( + ) 0 idle;
      final_versions;
      expected_versions = Traffic.puts_per_key requests ~keys;
      history }
end

let run ?record_history (backend : Backend_sig.backend) ~threads p =
  let module B = (val backend) in
  let module M = Make (B) in
  M.run ?record_history ~threads p

let lost_writes r =
  let lost = ref [] in
  for k = Array.length r.final_versions - 1 downto 0 do
    if r.final_versions.(k) <> r.expected_versions.(k) then
      lost := (k, r.expected_versions.(k), r.final_versions.(k)) :: !lost
  done;
  !lost

type op = Get | Put

type request = {
  client : int;
  key : int;
  op : op;
  arrival_ns : int;
}

type params = {
  clients : int;
  requests : int;
  rate_rps : float;
  keys : int;
  zipf_s : float;
  read_fraction : float;
  seed : int;
}

let validate p =
  if p.clients <= 0 then invalid_arg "Traffic.generate: clients";
  if p.requests < 0 then invalid_arg "Traffic.generate: requests";
  if not (Float.is_finite p.rate_rps) || p.rate_rps <= 0. then
    invalid_arg "Traffic.generate: rate_rps must be positive";
  if p.keys <= 0 then invalid_arg "Traffic.generate: keys";
  if not (Float.is_finite p.read_fraction)
     || p.read_fraction < 0. || p.read_fraction > 1.
  then invalid_arg "Traffic.generate: read_fraction must be in [0,1]"

let generate p =
  validate p;
  let rng = Desim.Rng.create ~seed:p.seed in
  let zipf = Zipf.create ~n:p.keys ~s:p.zipf_s in
  let mean = 1e9 /. p.rate_rps in
  (* Open-loop: every arrival instant is drawn before any request is
     served, from a Poisson process with the offered rate. Nothing here
     can react to service times — if the servers fall behind, requests
     queue and the recorded latencies show it (the point of open-loop
     measurement; a closed-loop generator would throttle itself and hide
     the collapse). *)
  let t = ref 0. in
  Array.init p.requests (fun _ ->
      t := !t +. Desim.Rng.exponential rng ~mean;
      let client = Desim.Rng.int rng p.clients in
      let key = Zipf.sample zipf rng in
      let op =
        if Desim.Rng.float rng 1.0 < p.read_fraction then Get else Put
      in
      { client; key; op; arrival_ns = int_of_float !t })

let puts_per_key reqs ~keys =
  if keys <= 0 then invalid_arg "Traffic.puts_per_key: keys";
  let counts = Array.make keys 0 in
  Array.iter
    (fun r ->
       if r.op = Put then counts.(r.key) <- counts.(r.key) + 1)
    reqs;
  counts

type t = {
  name : string;
  latency : Desim.Time.span;
  bandwidth : float;  (* bytes per second *)
  resource : Desim.Resource.t;
  mutable bytes : int;
}

let create ?(name = "link") ~latency ~bandwidth_bytes_per_s () =
  if bandwidth_bytes_per_s <= 0. then
    invalid_arg "Link.create: bandwidth must be positive";
  { name;
    latency;
    bandwidth = bandwidth_bytes_per_s;
    resource = Desim.Resource.create ~name ();
    bytes = 0 }

let name t = t.name
let latency t = t.latency

let occupy t ~now ~bytes =
  t.bytes <- t.bytes + bytes;
  let ser = Desim.Time.span_of_rate ~bytes ~bytes_per_s:t.bandwidth in
  let wire_done = Desim.Resource.reserve t.resource ~now ~duration:ser in
  Desim.Time.add wire_done t.latency

let bytes_carried t = t.bytes
let transfers t = Desim.Resource.jobs t.resource
let busy_time t = Desim.Resource.busy_time t.resource

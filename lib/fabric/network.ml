type node = int

type t = {
  engine : Desim.Engine.t;
  profile : Profile.t;
  tx : Link.t array;
  rx : Link.t array;
  faults : Faults.t option;
  mutable messages : int;
  mutable bytes : int;
}

(* Intra-node copies bypass the fabric: charge memcpy bandwidth. *)
let loopback_bandwidth = 20.0e9

let create ?faults engine ~profile ~node_count =
  if node_count <= 0 then invalid_arg "Network.create: node_count";
  let open Profile in
  let mk_tx i =
    Link.create
      ~name:(Printf.sprintf "tx%d" i)
      ~latency:profile.hop_latency
      ~bandwidth_bytes_per_s:profile.bandwidth_bytes_per_s ()
  in
  let mk_rx i =
    (* In a switched fabric the receive port adds a second hop of latency;
       on a direct bus there is only one hop, charged on the tx side. *)
    let latency = if profile.switched then profile.hop_latency else 0 in
    Link.create
      ~name:(Printf.sprintf "rx%d" i)
      ~latency
      ~bandwidth_bytes_per_s:profile.bandwidth_bytes_per_s ()
  in
  { engine;
    profile;
    tx = Array.init node_count mk_tx;
    rx = Array.init node_count mk_rx;
    faults;
    messages = 0;
    bytes = 0 }

let engine t = t.engine
let profile t = t.profile
let faults t = t.faults
let node_count t = Array.length t.tx

let check_node t n =
  if n < 0 || n >= node_count t then invalid_arg "Network: bad node id"

let transfer t ~now ~src ~dst ~bytes =
  check_node t src;
  check_node t dst;
  if bytes < 0 then invalid_arg "Network.transfer: negative size";
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + bytes;
  let wire_bytes = bytes + t.profile.Profile.header_bytes in
  let start = Desim.Time.add now t.profile.Profile.post_overhead in
  if src = dst then
    (* Loopbacks never cross the fabric, so faults do not apply. *)
    let copy =
      Desim.Time.span_of_rate ~bytes ~bytes_per_s:loopback_bandwidth
    in
    Desim.Time.add start copy
  else
    let at_switch = Link.occupy t.tx.(src) ~now:start ~bytes:wire_bytes in
    let arrival = Link.occupy t.rx.(dst) ~now:at_switch ~bytes:wire_bytes in
    match t.faults with
    | None -> arrival
    | Some f -> Faults.perturb f ~src ~dst ~arrival

(* A transfer that may be lost in the fabric. A dropped message still paid
   the post overhead and occupied the injection port (it left the sender
   and died in flight); it never reaches the receive port. Loopbacks and
   fault-free networks always deliver.

   Fail-stop crashes surface here too: a message addressed to a node that
   is dead at the send instant leaves the sender and dies at the silent
   NIC ([`Node_dead dst]); a dead source cannot transmit at all
   ([`Node_dead src], nothing enters the fabric). Deadness is checked at
   the send instant — a message already in flight when its target dies is
   delivered (the bytes were committed to the wire). *)
let try_transfer t ~now ~src ~dst ~bytes =
  match t.faults with
  | Some f
    when src <> dst
         && (Faults.node_dead f ~node:src ~at:now
             || Faults.node_dead f ~node:dst ~at:now) ->
    check_node t src;
    check_node t dst;
    if bytes < 0 then invalid_arg "Network.try_transfer: negative size";
    if Faults.node_dead f ~node:src ~at:now then `Node_dead src
    else begin
      t.messages <- t.messages + 1;
      t.bytes <- t.bytes + bytes;
      let wire_bytes = bytes + t.profile.Profile.header_bytes in
      let start = Desim.Time.add now t.profile.Profile.post_overhead in
      ignore (Link.occupy t.tx.(src) ~now:start ~bytes:wire_bytes
              : Desim.Time.t);
      Faults.note_dead_send f;
      `Node_dead dst
    end
  | Some f when src <> dst
                && Faults.unreachable_peer f ~src ~dst ~at:now <> None ->
    (* A closed partition: the message leaves the sender, occupies the
       injection port, and dies at the wall. Both endpoints are alive, so
       the sender pays exactly what a drop costs — only escalation after
       repeated timeouts distinguishes "slow" from "gone". *)
    check_node t src;
    check_node t dst;
    if bytes < 0 then invalid_arg "Network.try_transfer: negative size";
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes;
    let wire_bytes = bytes + t.profile.Profile.header_bytes in
    let start = Desim.Time.add now t.profile.Profile.post_overhead in
    ignore (Link.occupy t.tx.(src) ~now:start ~bytes:wire_bytes
            : Desim.Time.t);
    Faults.note_unreachable f ~src ~dst ~at:now;
    let victim =
      match Faults.unreachable_peer f ~src ~dst ~at:now with
      | Some v -> v
      | None -> assert false
    in
    `Unreachable victim
  | Some f when src <> dst && Faults.should_drop ~at:now f ~src ~dst ->
    check_node t src;
    check_node t dst;
    if bytes < 0 then invalid_arg "Network.try_transfer: negative size";
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes;
    let wire_bytes = bytes + t.profile.Profile.header_bytes in
    let start = Desim.Time.add now t.profile.Profile.post_overhead in
    ignore (Link.occupy t.tx.(src) ~now:start ~bytes:wire_bytes
            : Desim.Time.t);
    `Dropped
  | _ -> `Delivered (transfer t ~now ~src ~dst ~bytes)

let one_way_estimate t ~bytes =
  let open Profile in
  let p = t.profile in
  let wire_bytes = bytes + p.header_bytes in
  let ser =
    Desim.Time.span_of_rate ~bytes:wire_bytes
      ~bytes_per_s:p.bandwidth_bytes_per_s
  in
  (* Serialization happens at both the tx and rx ports (store-and-forward
     through the switch, or injection + delivery DMA on a direct bus);
     propagation latency is per hop. *)
  let hops = if p.switched then 2 else 1 in
  p.post_overhead + (2 * ser) + (hops * p.hop_latency)

let messages t = t.messages
let bytes_carried t = t.bytes
let tx_link t n = check_node t n; t.tx.(n)
let rx_link t n = check_node t n; t.rx.(n)

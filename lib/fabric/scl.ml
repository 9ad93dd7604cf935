type endpoint = { net : Network.t; node : Network.node }

let endpoint net node = { net; node }
let node e = e.node
let network e = e.net

let request_bytes = 32

let engine e = Network.engine e.net

(* Retransmission policy: the timeout starts at roughly one uncontended
   round trip for the message size and doubles per attempt (capped), the
   classic go-back retry. Faults bound consecutive drops per (src,dst)
   pair, so the loop always terminates. *)
let retry_slack = 2_000 (* ns of timer/completion-queue processing *)
let max_backoff_shift = 4

let retry_timeout net ~bytes ~attempt =
  let rtt = 2 * Network.one_way_estimate net ~bytes + retry_slack in
  rtt lsl min attempt max_backoff_shift

exception Node_dead of Network.node * Desim.Time.t

(* How many retransmissions a sender pays before declaring the peer dead.
   A crashed node looks exactly like a lossy path until the budget is
   exhausted; transient drops are bounded per pair (Faults), so a live
   peer always answers within the budget. *)
let dead_retry_budget = 4

let reliable_transfer net ~now ~src ~dst ~bytes =
  match Network.faults net with
  | None -> Network.transfer net ~now ~src ~dst ~bytes
  | Some f ->
    (* Each backoff carries seeded per-(src,dst,attempt) jitter so
       senders that timed out together (say, against one partitioned
       server) do not retry in lockstep after the heal. *)
    let backoff attempt now =
      Desim.Time.add now
        (retry_timeout net ~bytes ~attempt
         + Faults.retry_jitter f ~src ~dst ~attempt)
    in
    let rec go attempt now =
      match Network.try_transfer net ~now ~src ~dst ~bytes with
      | `Delivered at -> at
      | `Dropped ->
        Faults.note_retry f;
        go (attempt + 1) (backoff attempt now)
      | `Node_dead n | `Unreachable n ->
        (* An unreachable peer is indistinguishable from a dead one on
           the wire: same retry budget, same escalation. The difference
           only shows later — a partitioned victim outlives the window
           and its stale traffic is fenced. *)
        if attempt >= dead_retry_budget then raise (Node_dead (n, now))
        else begin
          Faults.note_retry f;
          go (attempt + 1) (backoff attempt now)
        end
    in
    go 0 now

let serve ?service ?(service_time = 0) ~at () =
  match service with
  | None -> Desim.Time.add at service_time
  | Some r -> Desim.Resource.reserve r ~now:at ~duration:service_time

(* A read round trip whose request enters the fabric now; [on_complete]
   fires at the payload's arrival. Each leg rides [reliable_transfer], so
   a dropped request or reply costs a timeout and a resend. *)
let async_read ?service ?service_time ~src ~dst ~bytes ~on_complete () =
  let now = Desim.Engine.now (engine src) in
  let at_dst =
    reliable_transfer src.net ~now ~src:src.node ~dst:dst.node
      ~bytes:request_bytes
  in
  let served = serve ?service ?service_time ~at:at_dst () in
  let arrival =
    reliable_transfer src.net ~now:served ~src:dst.node ~dst:src.node ~bytes
  in
  Desim.Engine.schedule_at (engine src) arrival (fun () ->
      on_complete arrival)

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

(* Each backoff carries seeded per-(src,dst,attempt) jitter so senders
   that timed out together (say, against one partitioned server) do not
   retry in lockstep after the heal. *)
let backoff net f ~src ~dst ~bytes ~attempt now =
  Desim.Time.add now
    (retry_timeout net ~bytes ~attempt
     + Faults.retry_jitter f ~src ~dst ~attempt)

let rec send_until_delivered net f ~src ~dst ~bytes ~attempt now =
  match Network.try_transfer net ~now ~src ~dst ~bytes with
  | `Delivered at -> at
  | `Dropped ->
    Faults.note_retry f;
    send_until_delivered net f ~src ~dst ~bytes ~attempt:(attempt + 1)
      (backoff net f ~src ~dst ~bytes ~attempt now)
  | `Node_dead n | `Unreachable n ->
    (* An unreachable peer is indistinguishable from a dead one on the
       wire: same retry budget, same escalation. The difference only
       shows later — a partitioned victim outlives the window and its
       stale traffic is fenced. *)
    if attempt >= dead_retry_budget then raise (Node_dead (n, now))
    else begin
      Faults.note_retry f;
      send_until_delivered net f ~src ~dst ~bytes ~attempt:(attempt + 1)
        (backoff net f ~src ~dst ~bytes ~attempt now)
    end

let reliable_transfer net ~now ~src ~dst ~bytes =
  match Network.faults net with
  | None -> Network.transfer net ~now ~src ~dst ~bytes
  | Some f -> send_until_delivered net f ~src ~dst ~bytes ~attempt:0 now

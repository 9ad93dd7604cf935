(* The victim of the partition is server 0 — the primary at time zero.
   Server 1 is its backup, promoted if the detector fires. *)
let victim = 0

type store = {
  value : int;  (* 0 = initial; write i stores i. *)
  version : int;
}

type wstate =
  | Todo
  | Sent of int * int  (* (epoch, target) captured at resolution time *)
  | Acked of int  (* target that served and acknowledged it *)

(* One abstract protocol state. Immutable: every transition builds a
   fresh record, so structural equality/hashing dedups visited states. *)
type state = {
  epoch : int;
  mapping : int;  (* physical server currently primary: 0 or 1 *)
  partition : bool;  (* the window is still open *)
  promoted : bool;
  s0 : store;
  s1 : store;
  writes : wstate list;  (* the client's bounded sequence, in order *)
}

type result = {
  g_scope : Samhita.Config.partition_scope;
  g_fence : bool;
  g_writes : int;
  g_states : int;
  g_transitions : int;
  g_terminals : int;
  g_fenced : int;
  g_defects : (string * string list) list;
}

let max_defects = 16

let store_of t s = if t = victim then s.s0 else s.s1
let with_store t st s =
  if t = victim then { s with s0 = st } else { s with s1 = st }

(* The client is sequential: the active write is the first one not yet
   acknowledged. *)
let active_write s =
  let rec go i = function
    | [] -> None
    | Acked _ :: rest -> go (i + 1) rest
    | (Todo | Sent _) as w :: _ -> Some (i, w)
  in
  go 0 s.writes

let set_write s i w =
  { s with writes = List.mapi (fun j x -> if j = i then w else x) s.writes }

(* A hop is blocked iff the partition window is open and the victim is an
   endpoint — for [Isolate] always (everyone is a peer), for [Control]
   only when the other endpoint is the control plane. Client and servers
   are data-plane endpoints, so under [Control] no data hop blocks: the
   zombie stays reachable and only the epoch fence protects it. *)
let data_hop_blocked ~scope s ~a ~b =
  s.partition && scope = Samhita.Config.Isolate && (a = victim || b = victim)

(* Enabled transitions of [s]: (label, defect option, fenced, s'). The
   defect is attached to the transition that manifests it, so DFS (which
   expands every reachable state's outgoing transitions exactly once)
   detects every distinct (state, transition) violation. *)
let transitions ~scope ~fence s =
  let ts = ref [] in
  let push ?defect ?(fenced = false) label s' =
    ts := (label, defect, fenced, s') :: !ts
  in
  (* Client step. *)
  (match active_write s with
   | None -> ()
   | Some (i, Todo) ->
     (* Resolve: capture the epoch and the mapping it was read under. *)
     push
       (Printf.sprintf "send w%d->s%d@e%d" (i + 1) s.mapping s.epoch)
       (set_write s i (Sent (s.epoch, s.mapping)))
   | Some (i, Sent (e, t)) ->
     if fence && e <> s.epoch then
       (* The reply lands under a moved epoch: fence, re-resolve. This is
          also how an [Isolate]-parked delivery resumes after promotion
          (the failover path re-resolves before re-running). *)
       push ~fenced:true
         (Printf.sprintf "fence w%d (e%d<e%d)" (i + 1) e s.epoch)
         (set_write s i Todo)
     else if data_hop_blocked ~scope s ~a:(-1) ~b:t then
       (* Client->victim delivery parks until heal or promotion. *)
       ()
     else begin
       (* Apply at the captured target, mirror to its backup, ack. *)
       let defect =
         if s.promoted && t <> s.mapping then
           Some
             (Printf.sprintf
                "split-brain: write %d applied at server %d after recovery \
                 deposed it (current primary %d, epoch %d)"
                (i + 1) t s.mapping s.epoch)
         else None
       in
       let st = store_of t s in
       let st' = { value = i + 1; version = st.version + 1 } in
       let s' = with_store t st' s in
       let peer = 1 - t in
       let s' =
         if data_hop_blocked ~scope s ~a:t ~b:peer then s' (* degraded *)
         else with_store peer st' s'
       in
       push ?defect
         (Printf.sprintf "deliver w%d@s%d" (i + 1) t)
         (set_write s' i (Acked t))
     end
   | Some (_, Acked _) -> assert false);
  (* Detector: the false suspicion can land at any point — before, at, or
     after the heal (a lease expiry decided during the window completes
     later) — which is exactly the interleaving family this model
     exhausts. *)
  if not s.promoted then
    push "suspect"
      { s with epoch = s.epoch + 1; mapping = 1 - victim; promoted = true };
  (* The window closes. *)
  if s.partition then push "heal" { s with partition = false };
  !ts

let check_terminal ~writes s =
  let defects = ref [] in
  let primary = store_of s.mapping s in
  if writes > 0 && primary.value <> writes then
    defects :=
      Printf.sprintf
        "lost acked write: terminal primary %d holds value %d but write %d \
         was acknowledged last"
        s.mapping primary.value writes
      :: !defects;
  List.rev !defects

let explore ?(fence = true) ~scope ~writes () =
  if writes < 1 || writes > 4 then
    invalid_arg "Gray.explore: writes must be 1..4";
  let init =
    { epoch = 0;
      mapping = victim;
      partition = true;
      promoted = false;
      s0 = { value = 0; version = 0 };
      s1 = { value = 0; version = 0 };
      writes = List.init writes (fun _ -> Todo) }
  in
  let visited : (state, unit) Hashtbl.t = Hashtbl.create 4096 in
  let n_transitions = ref 0 in
  let n_terminals = ref 0 in
  let n_fenced = ref 0 in
  let defects = ref [] in
  let n_defects = ref 0 in
  let note_defect msg path =
    if !n_defects < max_defects then begin
      defects := (msg, List.rev path) :: !defects;
      incr n_defects
    end
  in
  let stack = ref [ (init, []) ] in
  Hashtbl.replace visited init ();
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (s, path) :: rest ->
      stack := rest;
      let ts = transitions ~scope ~fence s in
      if ts = [] then begin
        incr n_terminals;
        List.iter (fun msg -> note_defect msg path) (check_terminal ~writes s)
      end
      else
        List.iter
          (fun (label, defect, fenced, s') ->
             incr n_transitions;
             if fenced then incr n_fenced;
             let path' = label :: path in
             (match defect with
              | Some msg -> note_defect msg path'
              | None -> ());
             if not (Hashtbl.mem visited s') then begin
               Hashtbl.replace visited s' ();
               stack := (s', path') :: !stack
             end)
          ts
  done;
  { g_scope = scope;
    g_fence = fence;
    g_writes = writes;
    g_states = Hashtbl.length visited;
    g_transitions = !n_transitions;
    g_terminals = !n_terminals;
    g_fenced = !n_fenced;
    g_defects = List.rev !defects }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>graycheck scope=%s fence=%b writes=%d: %d states, %d \
     transitions, %d terminals, %d fenced@,"
    (Samhita.Config.scope_name r.g_scope)
    r.g_fence r.g_writes r.g_states r.g_transitions r.g_terminals r.g_fenced;
  if r.g_defects = [] then Format.fprintf ppf "no invariant violations@]"
  else begin
    Format.fprintf ppf "%d invariant violation(s):@," (List.length r.g_defects);
    List.iter
      (fun (msg, trace) ->
         Format.fprintf ppf "  %s@," msg;
         Format.fprintf ppf "    trace: %s@," (String.concat " ; " trace))
      r.g_defects;
    Format.fprintf ppf "@]"
  end

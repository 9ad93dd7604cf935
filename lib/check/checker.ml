exception Pruned
exception Bad_schedule of string

type opts = {
  kernel : Kernels.t;
  threads : int;
  pages : int;
  crash : bool;
  dpor : bool;
  max_schedules : int;
  quantum : int;
}

let default_opts =
  { kernel = Kernels.Racy;
    threads = 2;
    pages = 1;
    crash = false;
    dpor = true;
    max_schedules = 10_000;
    quantum = 256 }

(* Crash-mode runs cannot rely on queue drain for stall detection: the
   lease monitor re-arms itself every interval while any thread is
   unfinished, so a deadlocked run keeps the queue non-empty forever.
   Bound the run instead and call unfinished-at-horizon a stall. *)
let crash_horizon = Desim.Time.of_ns 5_000_000

let config_for opts =
  (* One thread per node: symmetric fabric paths make concurrent requests
     reach the manager and the servers at identical instants, turning the
     racing orders into explicit same-instant choice points instead of
     accidents of shared-port FCFS serialization. *)
  let base =
    { Samhita.Config.default with Samhita.Config.threads_per_node = 1 }
  in
  if not opts.crash then base
  else
    { base with
      Samhita.Config.memory_servers = 2;
      replication = true;
      lease_interval = Desim.Time.ns 20_000;
      fault = Some (Crash_server { server = 0; at_ns = 30_000 }) }

(* ------------------------------------------------------------------ *)
(* One controlled execution *)

type point = {
  p_time : int;
  p_seqs : int array;  (* candidates, sorted by heap seq *)
  p_chosen : int;  (* index into p_seqs *)
  p_sleep0 : (int * Footprint.t) list;  (* sleep set on arrival *)
}

type exec = {
  e_points : point array;
  e_fps : Footprint.t array;  (* fp of the interval opened by point i *)
  e_clocks : Analysis.Vclock.t array array;
      (* length npoints+1; [i] = per-thread clocks when point i was
         reached, [npoints] = at end of run. *)
  e_defects : (string * string) list;  (* (class, message) *)
  e_deadlock : Deadlock.t option;
  e_digest : int;
}

let schedule_of exec =
  Array.to_list (Array.map (fun p -> p.p_chosen) exec.e_points)

let index_of x a =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) = x then Some i else go (i + 1) in
  go 0

(* Execute the kernel once: follow [prefix], then take the first
   non-sleeping candidate at every further choice point. [branch_sleep]
   is installed on arrival at the last prefix point — the sleep set the
   DFS accumulated from that point's already-explored siblings. *)
let run_once opts ~prefix ~branch_sleep =
  let config = config_for opts in
  let oracle = Torture.Oracle.create ~config () in
  let sys = Samhita.System.create ~config ~threads:opts.threads () in
  (* RegCSan first: its clocks are the happens-before oracle, and it
     subscribes ahead of the memory oracle and the footprint recorder. *)
  let san =
    Analysis.Regcsan.create ~threads:opts.threads
      ~page_bytes:config.Samhita.Config.page_bytes
  in
  Samhita.System.add_probe sys (Analysis.Regcsan.probe san);
  let engine = Samhita.System.engine sys in
  (* Coarsen the clock so events staggered only by port-serialization
     deltas tie — those orders, who reaches the manager first, are the
     schedules worth exploring. *)
  Desim.Engine.set_quantum engine opts.quantum;
  let pre_fp = Footprint.create () in
  let cur = ref pre_fp in
  let points = ref [] and ifps = ref [] and clocks = ref [] in
  let sleep = ref (if prefix = [] then branch_sleep else []) in
  let depth = ref 0 in
  let prefix_arr = Array.of_list prefix in
  let nprefix = Array.length prefix_arr in
  let snapshot () =
    Array.init opts.threads (fun t ->
        Analysis.Regcsan.thread_clock san ~thread:t)
  in
  let chooser ~time ~seqs =
    let d = !depth in
    (* The just-closed interval wakes any sleeping event it depends on. *)
    if d > 0 then begin
      let prev = !cur in
      sleep :=
        List.filter (fun (_, ufp) -> not (Footprint.conflict ufp prev)) !sleep
    end;
    if d = nprefix - 1 then sleep := branch_sleep;
    clocks := snapshot () :: !clocks;
    let k =
      if d < nprefix then begin
        let k = prefix_arr.(d) in
        if k < 0 || k >= Array.length seqs then
          raise
            (Bad_schedule
               (Printf.sprintf
                  "choice %d out of range at point %d (%d candidates)" k d
                  (Array.length seqs)));
        k
      end
      else begin
        let n = Array.length seqs in
        let asleep s = List.exists (fun (u, _) -> u = s) !sleep in
        let rec find i =
          if i >= n then raise Pruned
          else if asleep seqs.(i) then find (i + 1)
          else i
        in
        find 0
      end
    in
    points :=
      { p_time = time;
        p_seqs = Array.copy seqs;
        p_chosen = k;
        p_sleep0 = !sleep }
      :: !points;
    let fp = Footprint.create () in
    ifps := fp :: !ifps;
    cur := fp;
    depth := d + 1;
    k
  in
  (* The footprint recorder subscribes next to the oracle. The
     sanitizer's [Lock_attempt] and [Release] instants add no object the
     [Lock_acquired]/[Unlock] pair does not already name. *)
  let sync obj id ~thread = Footprint.add_sync !cur ~thread obj id in
  let global () = Footprint.set_global !cur in
  Torture.Oracle.attach oracle sys;
  Samhita.System.add_probe sys
    { Samhita.Probe.nothing with
      on_read = (fun ~thread ~time:_ ~addr ~value:_ ->
          Footprint.add_read !cur ~thread ~addr);
      on_write = (fun ~thread ~time:_ ~addr ~region:_ ~value:_ ->
          Footprint.add_write !cur ~thread ~addr);
      on_malloc = (fun ~thread ~time:_ ~addr:_ ~bytes:_ ->
          Footprint.add_thread !cur thread);
      on_free = (fun ~thread ~time:_ ~addr:_ ~bytes:_ ->
          Footprint.add_thread !cur thread);
      on_barrier = (fun ~thread ~time:_ ~barrier ~epoch:_ ~phase:_ ->
          sync Footprint.Barrier barrier ~thread);
      on_sync = (fun ~thread ~time:_ ~op ~id ->
          match op with
          | Samhita.Probe.Lock_attempt | Samhita.Probe.Release -> ()
          | Samhita.Probe.Lock_acquired | Samhita.Probe.Unlock ->
            sync Footprint.Lock id ~thread
          | Samhita.Probe.Cond_signal | Samhita.Probe.Cond_wake ->
            sync Footprint.Cond id ~thread);
      on_crash = (fun ~time:_ ~node:_ ~server:_ -> global ());
      on_recovery = (fun ~time:_ ~failed:_ ~promoted:_ ~replayed:_ ->
          global ());
      on_takeover =
        (fun ~time:_ ~dead:_ ~takeover:_ ~moved:_ ~redriven:_ -> global ()) };
  Desim.Engine.set_chooser engine (Some chooser);
  let check_sum =
    Kernels.build opts.kernel sys ~threads:opts.threads ~pages:opts.pages
  in
  Desim.Engine.set_on_reserve engine
    (Some (fun id -> Footprint.add_resource !cur id));
  let outcome =
    try
      if opts.crash then begin
        Desim.Engine.run_until engine crash_horizon;
        if Samhita.System.finished_threads sys < opts.threads then
          `Stalled "unfinished threads at crash-mode horizon"
        else `Done
      end
      else begin
        Samhita.System.run sys;
        `Done
      end
    with
    | Desim.Engine.Stalled msg -> `Stalled msg
    | Pruned -> `Abandoned
  in
  match outcome with
  | `Abandoned -> `Pruned
  | (`Done | `Stalled _) as outcome ->
    let final = snapshot () in
    let defects = ref [] in
    let deadlock =
      match outcome with
      | `Stalled msg ->
        let dl = Deadlock.analyze sys in
        defects :=
          ( "deadlock",
            Format.asprintf "@[<v>%s@,%a@]" msg Deadlock.pp dl )
          :: !defects;
        Some dl
      | `Done ->
        (match check_sum () with
         | Some msg -> defects := ("checksum", msg) :: !defects
         | None -> ());
        Torture.Oracle.finalize oracle sys;
        None
    in
    List.iter
      (fun v ->
         defects :=
           (v.Torture.Oracle.v_class, v.Torture.Oracle.v_message) :: !defects)
      (Torture.Oracle.violations oracle);
    List.iter
      (fun f ->
         defects :=
           ( Analysis.Regcsan.kind_name f.Analysis.Regcsan.kind,
             Format.asprintf "%a" Analysis.Regcsan.pp_finding f )
           :: !defects)
      (Analysis.Regcsan.findings san);
    `Run
      { e_points = Array.of_list (List.rev !points);
        e_fps = Array.of_list (List.rev !ifps);
        e_clocks = Array.of_list (List.rev (final :: !clocks));
        e_defects = List.rev !defects;
        e_deadlock = deadlock;
        e_digest = Torture.Oracle.digest oracle }

(* ------------------------------------------------------------------ *)
(* Dependence between intervals *)

(* Interval [i] is provably ordered before interval [j] when every thread
   [u] active in [j] had, by the start of [j], acquired a release that
   every thread [t] active in [i] issued after [i] closed. RegCSan ticks a
   thread's own component after publishing each release clock, so [t]'s
   epoch at the close of [i] (say [e]) is first published by its next
   release — [u]'s view of [t] reaches [e] exactly when that later release
   arrived. [e = 0] means [t] has never released: no cross-thread edge
   exists, so stay conservatively dependent (whole-clock [leq] would claim
   ordering vacuously there — two untouched clocks satisfy pointwise <=
   without any synchronization between the threads). *)
let hb_ordered exec i j =
  let ti = Footprint.threads exec.e_fps.(i)
  and tj = Footprint.threads exec.e_fps.(j) in
  ti <> [] && tj <> []
  && List.for_all
       (fun t ->
          let e = Analysis.Vclock.get exec.e_clocks.(i + 1).(t) t in
          e > 0
          && List.for_all
               (fun u -> Analysis.Vclock.get exec.e_clocks.(j).(u) t >= e)
               tj)
       ti

(* Sync-object and facility conflicts are dependencies outright (their
   service order decides timing); word conflicts are excused when the
   happens-before oracle orders the intervals — reordering same-instant
   events cannot flip an HB edge that synchronization established. *)
let dependent exec i j =
  let a = exec.e_fps.(i) and b = exec.e_fps.(j) in
  if Footprint.sync_conflict a b then true
  else if Footprint.conflict a b then not (hb_ordered exec i j)
  else false

(* ------------------------------------------------------------------ *)
(* DFS over schedules *)

type frame = {
  f_prefix : int list;  (* choices before this point *)
  f_seqs : int array;
  f_sleep0 : (int * Footprint.t) list;
  mutable f_tried : (int * Footprint.t) list;  (* (choice, interval fp) *)
  mutable f_todo : int list;
}

type defect = {
  d_class : string;
  d_message : string;
  d_schedule : Schedule.t;
}

type result = {
  r_opts : opts;
  r_schedules : int;  (* complete controlled runs *)
  r_pruned : int;  (* runs abandoned by the sleep set *)
  r_truncated : bool;  (* hit max_schedules before exhausting *)
  r_max_points : int;  (* deepest choice-point count seen *)
  r_defect_runs : int;  (* runs that surfaced at least one defect *)
  r_defects : defect list;
      (* one per class, carrying the shortest schedule seen *)
}

let take n l = List.filteri (fun i _ -> i < n) l

let explore opts =
  let frames : frame list ref = ref [] in
  let runs = ref 0 and pruned = ref 0 and truncated = ref false in
  let max_points = ref 0 and defect_runs = ref 0 in
  let best : (string, defect) Hashtbl.t = Hashtbl.create 8 in
  let note_defects sched defects =
    if defects <> [] then incr defect_runs;
    List.iter
      (fun (cls, msg) ->
         let d = { d_class = cls; d_message = msg; d_schedule = sched } in
         match Hashtbl.find_opt best cls with
         | None -> Hashtbl.replace best cls d
         | Some old ->
           if List.length sched < List.length old.d_schedule then
             Hashtbl.replace best cls d)
      defects
  in
  let add_todo fr k =
    if (not (List.mem_assoc k fr.f_tried)) && not (List.mem k fr.f_todo) then
      fr.f_todo <- fr.f_todo @ [ k ]
  in
  (* Flanagan-Godefroid backtrack sets: for each interval [j], find the
     latest earlier interval [i] whose footprint is dependent with [j]'s
     and revisit point [i] running [j]'s side first. When [j]'s chosen
     event already existed at point [i] (same-instant tie) that exact
     candidate is the alternative; otherwise the event was created later
     and the first step of the chain leading to it is unknown —
     conservatively try every candidate at [i]. *)
  let add_backtracks exec =
    let pts = exec.e_points in
    let fr = Array.of_list !frames in
    let n = min (Array.length pts) (Array.length fr) in
    for j = 1 to n - 1 do
      let rec scan i =
        if i < 0 then ()
        else if dependent exec i j then begin
          let sj = pts.(j).p_seqs.(pts.(j).p_chosen) in
          (match index_of sj pts.(i).p_seqs with
           | Some k -> add_todo fr.(i) k
           | None ->
             for k = 0 to Array.length pts.(i).p_seqs - 1 do
               add_todo fr.(i) k
             done)
        end
        else scan (i - 1)
      in
      scan (j - 1)
    done
  in
  let sync_frames exec ~prefix =
    let pts = exec.e_points in
    let n = Array.length pts in
    let d0 = List.length prefix in
    max_points := max !max_points n;
    let kept = take d0 !frames in
    (if d0 > 0 then begin
       let fr = List.nth kept (d0 - 1) in
       let p = pts.(d0 - 1) in
       if not (List.mem_assoc p.p_chosen fr.f_tried) then
         fr.f_tried <- (p.p_chosen, exec.e_fps.(d0 - 1)) :: fr.f_tried
     end);
    let fresh =
      List.init (n - d0) (fun idx ->
          let d = d0 + idx in
          let p = pts.(d) in
          let f =
            { f_prefix = List.init d (fun i -> pts.(i).p_chosen);
              f_seqs = p.p_seqs;
              f_sleep0 = p.p_sleep0;
              f_tried = [ (p.p_chosen, exec.e_fps.(d)) ];
              f_todo = [] }
          in
          if not opts.dpor then
            for k = 0 to Array.length p.p_seqs - 1 do
              if k <> p.p_chosen then f.f_todo <- f.f_todo @ [ k ]
            done;
          f)
    in
    frames := kept @ fresh
  in
  let do_run ~prefix ~branch_sleep =
    match run_once opts ~prefix ~branch_sleep with
    | `Pruned ->
      incr pruned;
      (* Mark the branch tried (with a universal footprint, so as a
         future sleep entry it wakes immediately and never over-prunes)
         or the backtrack sets would re-add it forever. *)
      (match prefix with
       | [] -> ()
       | _ ->
         let d = List.length prefix - 1 in
         (match List.nth_opt !frames d with
          | Some fr ->
            let k = List.nth prefix d in
            if not (List.mem_assoc k fr.f_tried) then
              fr.f_tried <- (k, Footprint.universal ()) :: fr.f_tried
          | None -> ()))
    | `Run exec ->
      incr runs;
      note_defects (schedule_of exec) exec.e_defects;
      sync_frames exec ~prefix;
      if opts.dpor then add_backtracks exec
  in
  let select () =
    (* deepest frame with pending backtrack candidates *)
    let chosen = ref None in
    List.iteri
      (fun d fr -> if fr.f_todo <> [] then chosen := Some (d, fr))
      !frames;
    !chosen
  in
  do_run ~prefix:[] ~branch_sleep:[];
  let continue = ref true in
  while !continue do
    if !runs + !pruned >= opts.max_schedules then begin
      if select () <> None then truncated := true;
      continue := false
    end
    else
      match select () with
      | None -> continue := false
      | Some (d, fr) ->
        let k = List.hd fr.f_todo in
        fr.f_todo <- List.tl fr.f_todo;
        if not (List.mem_assoc k fr.f_tried) then begin
          frames := take (d + 1) !frames;
          let branch_sleep =
            if opts.dpor then
              fr.f_sleep0
              @ List.map (fun (kk, fp) -> (fr.f_seqs.(kk), fp)) fr.f_tried
            else []
          in
          do_run ~prefix:(fr.f_prefix @ [ k ]) ~branch_sleep
        end
  done;
  let defects =
    Hashtbl.fold (fun _ d acc -> d :: acc) best []
    |> List.sort (fun a b -> String.compare a.d_class b.d_class)
  in
  { r_opts = opts;
    r_schedules = !runs;
    r_pruned = !pruned;
    r_truncated = !truncated;
    r_max_points = !max_points;
    r_defect_runs = !defect_runs;
    r_defects = defects }

(* ------------------------------------------------------------------ *)
(* Replay *)

type replay = {
  rp_points : int;
  rp_defects : (string * string) list;
  rp_digest : int;
}

let replay opts schedule =
  match run_once opts ~prefix:schedule ~branch_sleep:[] with
  | `Pruned -> assert false (* no sleep set installed *)
  | `Run exec ->
    { rp_points = Array.length exec.e_points;
      rp_defects = exec.e_defects;
      rp_digest = exec.e_digest }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>regccheck: kernel=%s threads=%d pages=%d crash=%s mode=%s@,\
     schedules: %d explored, %d pruned, max choice points %d%s@,"
    (Kernels.name r.r_opts.kernel)
    r.r_opts.threads r.r_opts.pages
    (if r.r_opts.crash then "on" else "off")
    (if r.r_opts.dpor then "dpor" else "naive")
    r.r_schedules r.r_pruned r.r_max_points
    (if r.r_truncated then
       Printf.sprintf " (TRUNCATED at --max-schedules %d)"
         r.r_opts.max_schedules
     else "");
  if r.r_defects = [] then
    Format.fprintf ppf "no defects: every explored schedule is clean@]"
  else begin
    Format.fprintf ppf "defects: %d class(es), %d defective schedule(s)"
      (List.length r.r_defects) r.r_defect_runs;
    List.iter
      (fun d ->
         Format.fprintf ppf "@,@[<v2>[%s] counterexample --replay %s@,%s@]"
           d.d_class
           (Schedule.to_string d.d_schedule)
           d.d_message)
      r.r_defects;
    Format.fprintf ppf "@]"
  end

let pp_replay ppf rp =
  Format.fprintf ppf "@[<v>replay: %d choice points, digest %08x@,"
    rp.rp_points (rp.rp_digest land 0xffffffff);
  if rp.rp_defects = [] then Format.fprintf ppf "no defects@]"
  else begin
    Format.fprintf ppf "defects:";
    List.iter
      (fun (cls, msg) -> Format.fprintf ppf "@,@[<v2>[%s]@,%s@]" cls msg)
      rp.rp_defects;
    Format.fprintf ppf "@]"
  end

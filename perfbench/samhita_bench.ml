(* The benchmark BENCHMARK.json declares (see README.md in this directory).

     dune exec ./perfbench/samhita_bench.exe -- --seed 42
         every workload, each in its own child process: an untraced pass
         (end-to-end metrics), then a traced pass (per-layer metrics)
     dune exec ./perfbench/samhita_bench.exe -- --runs 10
         ten untraced runs per workload on seeds 42..51, then the spread
     dune exec ./perfbench/samhita_bench.exe -- \
         --workload kv --seconds 30 --trace 1
         one workload in this process; the last line is the JSON result

   Every metric prints as "<workload> <metric> <value> <unit>". The exit
   code is 1 if any correctness check failed, 2 on a usage error. *)

open Perfbench

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_dir : string;
  runs : int;
}

let usage msg =
  prerr_endline ("samhita_bench: " ^ msg);
  prerr_endline
    "usage: samhita_bench [--workload W] [--seed N] [--seconds S] \
     [--trace 0|1] [--trace-dir DIR] [--runs N]";
  exit 2

let parse args =
  let int_of name v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> usage (Printf.sprintf "%s expects a non-negative integer" name)
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if Workloads.find w = None then
        usage
          (Printf.sprintf "unknown workload %S; try: %s" w
             (String.concat " "
                (List.map (fun w -> w.Workloads.name) Workloads.all)));
      go { o with workload = Some w } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of "--seed" v } rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s >= 0. -> go { o with seconds = s } rest
       | _ -> usage "--seconds expects a non-negative number")
    | "--trace" :: ("0" | "1" as v) :: rest ->
      go { o with trace = v = "1" } rest
    | "--trace-dir" :: d :: rest -> go { o with trace_dir = d } rest
    | "--runs" :: v :: rest -> go { o with runs = int_of "--runs" v } rest
    | a :: _ -> usage (Printf.sprintf "unexpected argument %S" a)
  in
  go
    { workload = None;
      seed = 42;
      seconds = 0.;
      trace = false;
      trace_dir = Filename.concat "_build" "bench-trace";
      runs = 0 }
    args

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted l = List.sort compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(values, n=4) (the "exclusive" method). *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)

(* Repeat [f] while the next repetition (estimated by the last one) still
   fits in [seconds]; at least once. *)
let repeat ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go acc last =
    let elapsed = Unix.gettimeofday () -. t0 in
    if acc <> [] && elapsed +. last > seconds then List.rev acc
    else
      let t = Unix.gettimeofday () in
      let r = f () in
      go (r :: acc) (Unix.gettimeofday () -. t)
  in
  go [] 0.

(* One repetition; its per-layer values are the workload's own plus the
   simulated counters, read before its systems are released. *)
let repetition rep ?tracer () =
  let s = Session.create ?tracer () in
  Session.reset_heap s;
  let extra = rep s in
  let values = extra @ Workloads.counters s in
  Session.release_systems s;
  (s, values)

let checks sessions =
  List.fold_left
    (fun (a, f) (s, _) -> (a + s.Session.checks, f + s.Session.failed))
    (0, 0) sessions

let untraced_pass (w : Workloads.t) o =
  let rep = w.prepare ~seed:o.seed in
  let reps = repeat ~seconds:o.seconds (repetition rep) in
  let med f = median (List.map (fun (s, _) -> f s) reps) in
  let s_of ns = float_of_int ns /. 1e9 in
  ( [ ("wall_s", med (fun s -> s_of s.Session.wall_ns));
      ("setup_s", med (fun s -> s_of s.Session.setup_ns));
      ( "events_per_s",
        med (fun s -> float_of_int s.Session.events /. s_of s.Session.wall_ns)
      );
      ("alloc_mwords", med (fun s -> s.Session.alloc_words /. 1e6));
      ( "peak_heap_mb",
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words
        *. float_of_int (Sys.word_size / 8)
        /. 1e6 ) ],
    checks reps )

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let traced_pass (w : Workloads.t) o =
  let t0 = Unix.gettimeofday () in
  (* Primitives first, on a small heap: a large live heap makes their
     minor collections pay for major slices. *)
  let prims = Primitives.run ~quota_s:0.2 in
  let empty_call_ns = Primitives.empty_call_ns () in
  let rep = w.prepare ~seed:o.seed in
  (* Untraced next: the simulated counters and the overhead baseline. *)
  let ((base, extra) as untraced) = repetition rep () in
  let spans = Spans.create () in
  let att = Attribution.create ~on_blocking:(Spans.add spans) () in
  let tracer = { Session.att; spans } in
  let traced =
    repeat
      ~seconds:(o.seconds -. (Unix.gettimeofday () -. t0))
      (repetition rep ~tracer)
  in
  let wall = List.fold_left (fun a (s, _) -> a + s.Session.wall_ns) 0 traced in
  let share ns = float_of_int ns /. float_of_int wall in
  let open Attribution in
  let per_call l =
    let n = inline_calls att l in
    if n = 0 then 0.
    else (float_of_int (inline att l) /. float_of_int n) -. empty_call_ns
  in
  let traced_wall_s =
    median
      (List.map (fun (s, _) -> float_of_int s.Session.wall_ns /. 1e9) traced)
  in
  let calls f l = float_of_int (f att l) in
  mkdir_p o.trace_dir;
  Spans.write_chrome spans
    ~path:(Filename.concat o.trace_dir (w.name ^ ".json"))
    ~layer_name:(fun i -> name layers.(i));
  ( extra @ prims
    @ [ ("engine.other_share", share (other att));
        ("kernel.share", share (kernel att));
        ("access.inline_calls", calls inline_calls Access);
        ("access.inline_ns", per_call Access);
        ("access.inline_share", share (inline att Access));
        ("access.blocking_calls", calls blocking_calls Access);
        ("access.blocking_share", share (blocking att Access));
        ("sync.inline_calls", calls inline_calls Sync);
        ("sync.inline_share", share (inline att Sync));
        ("sync.blocking_calls", calls blocking_calls Sync);
        ("sync.blocking_share", share (blocking att Sync));
        ("alloc.inline_share", share (inline att Alloc));
        ("alloc.blocking_share", share (blocking att Alloc));
        ("idle.calls", calls inline_calls Idle +. calls blocking_calls Idle);
        ("idle.blocking_share", share (blocking att Idle));
        ("account.inline_share", share (inline att Account));
        ("trace.wall_s", traced_wall_s);
        ( "trace.overhead",
          traced_wall_s /. (float_of_int base.Session.wall_ns /. 1e9) );
        ("trace.attributed_frac", share (total att));
        ("trace.clock_ns", empty_call_ns);
        ("trace.spans", float_of_int (Spans.count spans)) ],
    checks (untraced :: traced) )

let print_result ~workload ~metrics ~catalogue (attempted, failed) =
  List.iter
    (fun (name, _) ->
       if not (List.mem_assoc name catalogue) then
         failwith ("metric not in the catalogue: " ^ name))
    metrics;
  let values =
    List.map
      (fun (name, unit) ->
         let v = Option.value (List.assoc_opt name metrics) ~default:0. in
         if not (Float.is_finite v) then
           failwith (Printf.sprintf "%s: %s is not finite" workload name);
         (name, v, unit))
      catalogue
  in
  List.iter
    (fun (name, v, unit) ->
       Printf.printf "%s %s %.17g %s\n" workload name v unit)
    values;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
             Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
               name v unit)
          values));
  if failed > 0 then exit 1

let run_one (w : Workloads.t) o =
  if o.trace then
    let metrics, checks = traced_pass w o in
    print_result ~workload:w.name ~metrics ~catalogue:Catalogue.per_layer checks
  else
    let metrics, checks = untraced_pass w o in
    print_result ~workload:w.name ~metrics ~catalogue:Catalogue.end_to_end
      checks

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process                             *)

(* Run this executable on one workload; returns its metric lines as
   (metric, value) and whether it succeeded. *)
let child o ~workload ~seed ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed";
       string_of_int seed; "--seconds"; Printf.sprintf "%g" o.seconds;
       "--trace"; (if trace then "1" else "0"); "--trace-dir"; o.trace_dir |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let metrics =
    List.filter_map
      (fun l ->
         match String.split_on_char ' ' l with
         | [ w; name; v; _unit ] when w = workload ->
           Option.map (fun v -> (l, name, v)) (float_of_string_opt v)
         | _ -> None)
      out
  in
  (metrics, status = Unix.WEXITED 0)

let all_workloads o =
  let ok = ref true in
  let pass ~trace =
    List.iter
      (fun (w : Workloads.t) ->
         let metrics, good = child o ~workload:w.name ~seed:o.seed ~trace in
         List.iter (fun (l, _, _) -> print_endline l) metrics;
         if not good then begin
           ok := false;
           Printf.printf "%s FAILED (%s pass)\n%!" w.name
             (if trace then "traced" else "untraced")
         end)
      Workloads.all
  in
  if o.runs = 0 then begin
    pass ~trace:false;
    pass ~trace:true
  end
  else
    List.iter
      (fun (w : Workloads.t) ->
         let runs =
           List.init o.runs (fun i ->
               let metrics, good =
                 child o ~workload:w.name ~seed:(o.seed + i) ~trace:false
               in
               if not good then ok := false;
               metrics)
         in
         List.iter
           (fun (name, unit) ->
              let vs =
                List.concat_map
                  (List.filter_map (fun (_, n, v) ->
                       if n = name then Some v else None))
                  runs
              in
              let med = median vs and q1, q3 = quartiles vs in
              let lo = List.fold_left Float.min infinity vs
              and hi = List.fold_left Float.max neg_infinity vs in
              Printf.printf
                "%s %s median %.6g q1 %.6g q3 %.6g iqr/median %.4f \
                 range/median %.4f %s (n=%d)\n%!"
                w.name name med q1 q3 ((q3 -. q1) /. med)
                ((hi -. lo) /. med) unit (List.length vs))
           Catalogue.end_to_end)
      Workloads.all;
  if not !ok then exit 1

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match o.workload with
  | Some name -> run_one (Option.get (Workloads.find name)) o
  | None -> all_workloads o

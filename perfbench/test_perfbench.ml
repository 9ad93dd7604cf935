(* Tests of the benchmark itself: host-time attribution on synthetic
   crossing sequences, and agreement between the metrics the benchmark can
   print and those BENCHMARK.json declares. *)

open Perfbench

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)

let spans = ref []

let fresh () =
  spans := [];
  Attribution.create
    ~on_blocking:(fun ~layer ~fiber ~start ~stop ->
        spans := (layer, fiber, start, stop) :: !spans)
    ()

let check_sum att ~wall =
  Alcotest.(check int) "buckets sum to the wall" wall (Attribution.total att)

(* Fiber 1 makes an inline access; fiber 1 then blocks in a lock that
   fiber 2's resumption closes; fiber 2 ends; fiber 1 resumes, ends. *)
let test_sequence () =
  let open Attribution in
  let a = fresh () in
  start a ~now:100;
  thread_start a ~now:110 ~fiber:1;
  enter a ~now:130 ~events:7 ~fiber:1 Access;
  exit a ~now:135 ~events:7 ~fiber:1 Access;
  enter a ~now:140 ~events:7 ~fiber:1 Sync;
  thread_start a ~now:160 ~fiber:2;
  enter a ~now:170 ~events:8 ~fiber:2 Sync;
  exit a ~now:200 ~events:9 ~fiber:2 Sync;
  thread_end a ~now:220 ~fiber:2;
  exit a ~now:250 ~events:10 ~fiber:1 Sync;
  thread_end a ~now:260 ~fiber:1;
  finish a ~now:300;
  Alcotest.(check int) "access inline" 5 (inline a Access);
  Alcotest.(check int) "one inline access" 1 (inline_calls a Access);
  (* [140,160) opened by fiber 1's lock entry, closed by fiber 2's start;
     [170,200) opened by fiber 2's entry, closed after events moved. *)
  Alcotest.(check int) "sync blocking" 50 (blocking a Sync);
  Alcotest.(check int) "two blocking sync calls" 2 (blocking_calls a Sync);
  (* [110,130) + [135,140) fiber 1, [160,170) + [200,220) fiber 2,
     [250,260) fiber 1 after resuming. *)
  Alcotest.(check int) "kernel" 65 (kernel a);
  (* [100,110) before the first crossing, [220,250) after fiber 2's end,
     [260,300) after the last crossing. *)
  Alcotest.(check int) "engine other" 80 (other a);
  check_sum a ~wall:200;
  Alcotest.(check (list (pair int (pair int (pair int int)))))
    "blocking spans, newest first"
    [ (index Sync, (1, (140, 250))); (index Sync, (2, (170, 200))) ]
    (List.map (fun (l, f, s, e) -> (l, (f, (s, e)))) !spans)

(* An exit with the event count moved is blocking even when no other
   crossing intervened (the engine ran events of no traced fiber). *)
let test_events_moved () =
  let open Attribution in
  let a = fresh () in
  start a ~now:0;
  thread_start a ~now:0 ~fiber:0;
  enter a ~now:10 ~events:1 ~fiber:0 Idle;
  exit a ~now:40 ~events:3 ~fiber:0 Idle;
  thread_end a ~now:45 ~fiber:0;
  finish a ~now:50;
  Alcotest.(check int) "no inline idle" 0 (inline_calls a Idle);
  Alcotest.(check int) "idle blocking" 30 (blocking a Idle);
  Alcotest.(check int) "kernel" 15 (kernel a);
  Alcotest.(check int) "other" 5 (other a);
  check_sum a ~wall:50

(* Two runs accumulate; time between them is not counted. *)
let test_two_runs () =
  let open Attribution in
  let a = fresh () in
  start a ~now:0;
  finish a ~now:10;
  start a ~now:1000;
  thread_start a ~now:1005 ~fiber:3;
  thread_end a ~now:1025 ~fiber:3;
  finish a ~now:1030;
  Alcotest.(check int) "kernel" 20 (kernel a);
  check_sum a ~wall:40

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

type json =
  | Str of string
  | Num of float
  | Bool of bool
  | Null
  | Arr of json list
  | Obj of (string * json) list

(* Enough JSON for BENCHMARK.json: no unicode escapes. *)
let parse_json s =
  let i = ref 0 in
  let n = String.length s in
  let rec ws () =
    if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; ws ())
  in
  let expect c =
    ws ();
    if !i >= n || s.[!i] <> c then
      failwith (Printf.sprintf "expected %c at %d" c !i);
    incr i
  in
  let rec value () =
    ws ();
    match s.[!i] with
    | '{' ->
      incr i;
      ws ();
      if s.[!i] = '}' then (incr i; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          let acc = (k, v) :: acc in
          if s.[!i] = ',' then (incr i; fields acc)
          else (expect '}'; Obj (List.rev acc))
        in
        fields []
    | '[' ->
      incr i;
      ws ();
      if s.[!i] = ']' then (incr i; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if s.[!i] = ',' then (incr i; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
      let j = !i in
      while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
      Num (float_of_string (String.sub s j (!i - j)))
  and str () =
    expect '"';
    let b = Buffer.create 16 in
    while s.[!i] <> '"' do
      if s.[!i] = '\\' then incr i;
      Buffer.add_char b s.[!i];
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  value ()

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match parse_json s with
  | Obj fields -> fields
  | _ -> failwith "BENCHMARK.json is not an object"

let declared section =
  match List.assoc_opt section (benchmark_json ()) with
  | Some (Arr l) ->
    List.map
      (function
        | Obj f -> (
          match List.assoc_opt "name" f with
          | Some (Str name) -> (name, f)
          | _ -> failwith "metric without a name")
        | _ -> failwith "metric is not an object")
      l
  | _ -> failwith (section ^ " missing")

let valid_name name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let test_catalogue section catalogue ~bound () =
  let decl = declared section in
  let names = List.map fst catalogue in
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " is a valid name") true (valid_name name))
    names;
  List.iter
    (fun (name, unit) ->
       match List.assoc_opt name decl with
       | None -> Alcotest.failf "%s is not declared in %s" name section
       | Some f ->
         Alcotest.(check bool) (name ^ " unit") true
           (List.assoc_opt "unit" f = Some (Str unit));
         Alcotest.(check bool) (name ^ " direction") true
           (match List.assoc_opt "better" f with
            | Some (Str ("lower" | "higher")) -> true
            | _ -> false);
         if bound then
           Alcotest.(check bool) (name ^ " bound") true
             (match List.assoc_opt "bound" f with
              | Some (Num b) -> b > 0. && b <= 0.25
              | _ -> false))
    catalogue;
  List.iter
    (fun (name, _) ->
       Alcotest.(check bool) (name ^ " can be printed") true
         (List.mem_assoc name catalogue))
    decl

let test_unique () =
  let names = List.map fst (Catalogue.end_to_end @ Catalogue.per_layer) in
  Alcotest.(check int) "no name printed twice" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_workloads () =
  let declared =
    match List.assoc_opt "workloads" (benchmark_json ()) with
    | Some (Arr l) ->
      List.map
        (function
          | Obj f -> (
            match List.assoc_opt "name" f with Some (Str n) -> n | _ -> "")
          | _ -> "")
        l
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    declared

let () =
  Alcotest.run "perfbench"
    [ ( "attribution",
        [ Alcotest.test_case "inline, blocking, thread end" `Quick
            test_sequence;
          Alcotest.test_case "events moved" `Quick test_events_moved;
          Alcotest.test_case "two runs" `Quick test_two_runs ] );
      ( "benchmark.json",
        [ Alcotest.test_case "end-to-end declared" `Quick
            (test_catalogue "end_to_end" Catalogue.end_to_end ~bound:true);
          Alcotest.test_case "per-layer declared" `Quick
            (test_catalogue "per_layer" Catalogue.per_layer ~bound:false);
          Alcotest.test_case "names unique" `Quick test_unique;
          Alcotest.test_case "workloads declared" `Quick test_workloads ] ) ]

(* In-memory spans of a traced run and their Chrome trace-event export.

   Blocking calls are kept as flat int columns (no per-span allocation)
   up to [capacity]; later ones are counted in [dropped] but not kept, so
   a long traced run cannot grow the heap without bound. Parents are the
   workload spans (one per kernel run) the blocking calls happen under. *)

type t = {
  capacity : int;
  mutable n : int;
  mutable dropped : int;
  layer : int array;
  fiber : int array;
  start : int array;
  stop : int array;
  parent : int array;
  mutable parents : (string * int * int) list;  (** Newest first. *)
  mutable current : int;  (** Index of the open parent, or -1. *)
  mutable current_name : string;
  mutable current_start : int;
}

let create ?(capacity = 50_000) () =
  { capacity;
    n = 0;
    dropped = 0;
    layer = Array.make capacity 0;
    fiber = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity 0;
    parents = [];
    current = -1;
    current_name = "";
    current_start = 0 }

let add t ~layer ~fiber ~start ~stop =
  if t.n < t.capacity then begin
    let i = t.n in
    t.layer.(i) <- layer;
    t.fiber.(i) <- fiber;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- t.current;
    t.n <- i + 1
  end
  else t.dropped <- t.dropped + 1

let open_parent t ~name ~now =
  t.current <- List.length t.parents;
  t.current_name <- name;
  t.current_start <- now

let close_parent t ~now =
  if t.current >= 0 then begin
    t.parents <- (t.current_name, t.current_start, now) :: t.parents;
    t.current <- -1
  end

let count t = t.n + t.dropped

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first parent's start): parents on track 0, each simulated thread's
   blocking calls on track [thread + 1] with the parent's name in args. *)
let write_chrome t ~path ~layer_name =
  let parents = Array.of_list (List.rev t.parents) in
  let origin =
    if Array.length parents > 0 then (fun (_, s, _) -> s) parents.(0) else 0
  in
  let us ns = float_of_int (ns - origin) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let event ~name ~tid ~start ~stop ~args =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
       \"dur\":%.3f,\"args\":{%s}}"
      name tid (us start) (us stop -. us start) args
  in
  Array.iteri
    (fun i (name, start, stop) ->
       event ~name ~tid:0 ~start ~stop ~args:(Printf.sprintf "\"span\":%d" i))
    parents;
  for i = 0 to t.n - 1 do
    let parent =
      let p = t.parent.(i) in
      if p >= 0 && p < Array.length parents then
        (fun (name, _, _) -> name) parents.(p)
      else ""
    in
    event ~name:(layer_name t.layer.(i)) ~tid:(t.fiber.(i) + 1)
      ~start:t.start.(i) ~stop:t.stop.(i)
      ~args:(Printf.sprintf "\"parent\":\"%s\"" parent)
  done;
  Printf.fprintf oc "],\"otherData\":{\"dropped_spans\":%d}}\n" t.dropped;
  close_out oc

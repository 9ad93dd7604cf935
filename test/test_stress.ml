(* Randomized stress properties across the simulator and the DSM. *)

module T = Samhita.Thread_ctx

(* ------------------------------------------------------------------ *)
(* Engine: random process populations terminate with a consistent clock *)

let prop_engine_random_processes =
  let gen rng =
    let int_range lo hi = QCheck.Gen.int_range lo hi rng in
    let nprocs = int_range 1 10 in
    List.init nprocs (fun _ ->
        List.init (int_range 1 20) (fun _ -> int_range 0 1000))
  in
  QCheck.Test.make ~name:"random process populations drain cleanly"
    ~count:200
    (QCheck.make
       ~print:(fun delays ->
         Printf.sprintf "%d procs" (List.length delays))
       gen)
    (fun delays ->
       let e = Desim.Engine.create () in
       let finished = ref 0 in
       let expected_end =
         List.fold_left
           (fun acc ds -> max acc (List.fold_left ( + ) 0 ds))
           0 delays
       in
       List.iter
         (fun ds ->
            Desim.Engine.spawn e (fun () ->
                List.iter (fun d -> Desim.Engine.delay d) ds;
                incr finished))
         delays;
       Desim.Engine.run e;
       !finished = List.length delays
       && Desim.Time.to_ns (Desim.Engine.now e) = expected_end)

(* ------------------------------------------------------------------ *)
(* Fabric: FIFO links never reorder completions                        *)

let prop_link_fifo =
  QCheck.Test.make ~name:"link completions are FIFO for ordered arrivals"
    ~count:200
    QCheck.(
      list_of_size Gen.(int_range 2 30)
        (pair (int_bound 1000) (int_range 1 10_000)))
    (fun jobs ->
       let l =
         Fabric.Link.create (Desim.Engine.create ())
           ~latency:(Desim.Time.ns 100) ~bandwidth_bytes_per_s:1e9
       in
       (* Arrivals in nondecreasing time order. *)
       let arrivals =
         List.sort compare (List.map fst jobs)
         |> List.map2 (fun (_, b) t -> (t, b)) jobs
       in
       let completions =
         List.map
           (fun (t, bytes) ->
              Desim.Time.to_ns
                (Fabric.Link.occupy l ~now:(Desim.Time.of_ns t) ~bytes))
           arrivals
       in
       let rec nondecreasing = function
         | a :: (b :: _ as r) -> a <= b && nondecreasing r
         | _ -> true
       in
       nondecreasing completions)

(* ------------------------------------------------------------------ *)
(* DSM: random-sized allocations never overlap and all hold data       *)

let prop_allocations_disjoint =
  QCheck.Test.make ~name:"random allocations are disjoint and usable"
    ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 25) (int_range 8 300_000))
    (fun sizes ->
       let ok = ref true in
       let sys = Samhita.System.create ~threads:1 () in
       ignore
         (Samhita.System.spawn sys (fun t ->
              let blocks =
                List.mapi
                  (fun i bytes ->
                     let a = T.malloc t ~bytes in
                     (* Stamp the first and last aligned words. *)
                     T.write_f64 t (a + (a mod 8 * 0)) (float_of_int i);
                     let last = a + ((bytes - 8) / 8 * 8) in
                     if last > a then T.write_f64 t last (float_of_int (-i));
                     (a, bytes, last))
                  sizes
              in
              (* No two blocks overlap. *)
              List.iteri
                (fun i (a, s, _) ->
                   List.iteri
                     (fun j (a', s', _) ->
                        if i < j && a < a' + s' && a' < a + s then ok := false)
                     blocks)
                blocks;
              (* Stamps survived every later allocation and write. *)
              List.iteri
                (fun i (a, _, last) ->
                   if T.read_f64 t a <> float_of_int i then ok := false;
                   if last > a && T.read_f64 t last <> float_of_int (-i) then
                     ok := false)
                blocks)
           : T.t);
       Samhita.System.run sys;
       !ok)

(* ------------------------------------------------------------------ *)
(* Metrics: time accounting is internally consistent                   *)

let prop_metrics_consistent =
  QCheck.Test.make ~name:"wall time covers every thread's accounted time"
    ~count:30
    QCheck.(pair (int_range 1 8) (int_range 1 5))
    (fun (threads, rounds) ->
       let sys = Samhita.System.create ~threads () in
       let bar = Samhita.System.barrier sys ~parties:threads in
       for tid = 0 to threads - 1 do
         ignore
           (Samhita.System.spawn sys (fun t ->
                let a = T.malloc t ~bytes:256 in
                for r = 1 to rounds do
                  T.write_f64 t a (float_of_int (r + tid));
                  T.charge_flops t 500;
                  T.barrier_wait t bar
                done)
             : T.t)
       done;
       Samhita.System.run sys;
       let wall = Desim.Time.to_ns (Samhita.System.elapsed sys) in
       List.for_all
         (fun ctx ->
            let m = Samhita.Metrics.of_ctx ctx in
            m.compute_ns >= 0 && m.sync_ns >= 0
            && m.compute_ns + m.sync_ns + m.alloc_ns <= wall
            && m.barrier_waits = rounds)
         (Samhita.System.threads sys))

let tests =
  [ QCheck_alcotest.to_alcotest prop_engine_random_processes;
    QCheck_alcotest.to_alcotest prop_link_fifo;
    QCheck_alcotest.to_alcotest prop_allocations_disjoint;
    QCheck_alcotest.to_alcotest prop_metrics_consistent ]

let () = Alcotest.run "stress" [ ("stress", tests) ]

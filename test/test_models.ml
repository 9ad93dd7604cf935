(* Model-based property tests: the software cache and the SMP coherence
   state machine are driven with random operation sequences and compared
   against simple reference models. *)

(* ------------------------------------------------------------------ *)
(* Software cache vs. a naive model                                    *)

let cache_cfg = { Samhita.Config.default with cache_lines = 4 }
let layout = Samhita.Layout.of_config cache_cfg
let lb = layout.Samhita.Layout.line_bytes

type cache_op =
  | Insert of int
  | Find of int
  | Invalidate of int
  | Mark of int  (* mark_written page 0 of the line, if cached *)
  | Clean of int

let op_gen rng =
  let line = QCheck.Gen.int_range 0 9 rng in
  match QCheck.Gen.int_range 0 4 rng with
  | 0 -> Insert line
  | 1 -> Find line
  | 2 -> Invalidate line
  | 3 -> Mark line
  | _ -> Clean line

let op_print = function
  | Insert l -> Printf.sprintf "Insert %d" l
  | Find l -> Printf.sprintf "Find %d" l
  | Invalidate l -> Printf.sprintf "Invalidate %d" l
  | Mark l -> Printf.sprintf "Mark %d" l
  | Clean l -> Printf.sprintf "Clean %d" l

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

(* Reference model: set of (line, dirty) with capacity; eviction picks a
   victim by the same documented policy (dirty-first, then least recently
   used), so the models agree exactly on membership. *)
module Model = struct
  type entry = { line : int; mutable dirty : bool; mutable tick : int }

  type t = { mutable entries : entry list; mutable clock : int }

  let create () = { entries = []; clock = 0 }

  let touch t e =
    t.clock <- t.clock + 1;
    e.tick <- t.clock

  let find t line = List.find_opt (fun e -> e.line = line) t.entries

  let insert t line =
    match find t line with
    | Some e -> touch t e
    | None ->
      if List.length t.entries >= cache_cfg.Samhita.Config.cache_lines then begin
        let victim =
          List.fold_left
            (fun best e ->
               match best with
               | None -> Some e
               | Some b ->
                 if e.dirty <> b.dirty then if e.dirty then Some e else Some b
                 else if e.tick < b.tick then Some e
                 else Some b)
            None t.entries
        in
        match victim with
        | Some v ->
          t.entries <- List.filter (fun e -> e.line <> v.line) t.entries
        | None -> ()
      end;
      let e = { line; dirty = false; tick = 0 } in
      touch t e;
      t.entries <- e :: t.entries

  let apply t = function
    | Insert l -> insert t l
    | Find l -> ( match find t l with Some e -> touch t e | None -> ())
    | Invalidate l ->
      t.entries <- List.filter (fun e -> e.line <> l) t.entries
    | Mark l -> ( match find t l with Some e -> e.dirty <- true | None -> ())
    | Clean l -> ( match find t l with Some e -> e.dirty <- false | None -> ())

  let lines t = List.sort compare (List.map (fun e -> e.line) t.entries)

  let dirty_lines t =
    List.sort compare
      (List.filter_map (fun e -> if e.dirty then Some e.line else None)
         t.entries)
end

let apply_real cache op =
  match op with
  | Insert l ->
    if Samhita.Cache.peek cache l = None then
      ignore
        (Samhita.Cache.insert cache ~line:l ~data:(Bytes.make lb '\000')
           ~version:0 ~evict:(fun _ -> ())
         : Samhita.Cache.entry)
    else ignore (Samhita.Cache.find cache l)
  | Find l -> ignore (Samhita.Cache.find cache l)
  | Invalidate l -> Samhita.Cache.invalidate cache l
  | Mark l -> (
      match Samhita.Cache.peek cache l with
      | Some e -> Samhita.Cache.mark_written cache e ~offset:0
      | None -> ())
  | Clean l -> (
      match Samhita.Cache.peek cache l with
      | Some e -> Samhita.Cache.clean cache e ~version:e.Samhita.Cache.version
      | None -> ())

let real_lines cache =
  List.sort compare
    (List.filter_map
       (fun l ->
          match Samhita.Cache.peek cache l with
          | Some _ -> Some l
          | None -> None)
       (List.init 10 Fun.id))

let real_dirty cache =
  List.sort compare
    (List.map
       (fun (e : Samhita.Cache.entry) -> e.Samhita.Cache.line)
       (Samhita.Cache.dirty_entries cache))

let prop_cache_matches_model =
  QCheck.Test.make ~name:"cache membership/dirtiness matches LRU model"
    ~count:500 arb_ops
    (fun ops ->
       let cache = Samhita.Cache.create cache_cfg layout in
       let model = Model.create () in
       List.for_all
         (fun op ->
            apply_real cache op;
            Model.apply model op;
            real_lines cache = Model.lines model
            && real_dirty cache = Model.dirty_lines model
            && Samhita.Cache.size cache
               <= Samhita.Cache.capacity cache)
         ops)

(* ------------------------------------------------------------------ *)
(* SMP coherence vs. a per-line reference automaton                    *)

type coh_op = Read of int * int | Write of int * int  (* thread, line *)

let coh_gen rng =
  let thread = QCheck.Gen.int_range 0 3 rng in
  let line = QCheck.Gen.int_range 0 3 rng in
  if QCheck.Gen.bool rng then Read (thread, line) else Write (thread, line)

let arb_coh =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Read (t, l) -> Printf.sprintf "R t%d l%d" t l
             | Write (t, l) -> Printf.sprintf "W t%d l%d" t l)
           ops))
    QCheck.Gen.(list_size (int_range 1 80) coh_gen)

(* Reference automaton per line: (present bitmask, owner). Mirrors the
   documented model in Smp.Machine. *)
let coh_reference ops =
  let cfg = Smp.Config.default in
  let state = Array.make 4 (0, -1) in
  List.map
    (fun op ->
       match op with
       | Read (t, l) ->
         let present, owner = state.(l) in
         let bit = 1 lsl t in
         if present land bit <> 0 && (owner = t || owner = -1) then begin
           (* hit *)
           cfg.Smp.Config.t_mem
         end
         else begin
           let cost =
             if owner >= 0 && owner <> t then cfg.Smp.Config.t_coherence_miss
             else cfg.Smp.Config.t_cold_miss
           in
           state.(l) <- (present lor bit, -1);
           cost
         end
       | Write (t, l) ->
         let present, owner = state.(l) in
         let bit = 1 lsl t in
         if owner = t then cfg.Smp.Config.t_mem
         else begin
           let others = present land lnot bit in
           let cost =
             if others <> 0 || owner >= 0 then cfg.Smp.Config.t_invalidate
             else if present land bit <> 0 then cfg.Smp.Config.t_mem
             else cfg.Smp.Config.t_cold_miss
           in
           state.(l) <- (bit, t);
           cost
         end)
    ops

let prop_coherence_matches_reference =
  QCheck.Test.make ~name:"SMP coherence costs match the reference automaton"
    ~count:500 arb_coh
    (fun ops ->
       let machine = Smp.Machine.create Smp.Config.default in
       (* Four lines, 64 bytes apart. *)
       let base = Smp.Machine.alloc machine ~bytes:256 ~align:64 in
       let real =
         List.map
           (function
             | Read (t, l) ->
               Smp.Machine.read_cost machine ~thread:t
                 ~addr:(base + (l * 64))
             | Write (t, l) ->
               Smp.Machine.write_cost machine ~thread:t
                 ~addr:(base + (l * 64)))
           ops
       in
       (* The machine starts cold (untouched lines), matching the
          automaton's all-absent initial state except that the very first
          access of each line is a cold miss in both. *)
       real = coh_reference ops)

let tests =
  [ QCheck_alcotest.to_alcotest prop_cache_matches_model;
    QCheck_alcotest.to_alcotest prop_coherence_matches_reference ]

let () = Alcotest.run "models" [ ("model-based", tests) ]

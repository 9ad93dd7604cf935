(* A deliberately buggy two-thread kernel: RegCSan's acceptance workload.

   Each defect class the analyzer reports is seeded exactly once, on its
   own word, with deterministic cross-thread ordering arranged through a
   mutex-protected flag and a condition variable (never through a barrier,
   which would publish the ordinary writes and hide the bugs):

   - word 0: both threads store with no happens-before edge   -> race
   - word 1: ordinary store, read by the peer via a lock edge -> unpublished
   - word 2: ordinary store, then the peer stores it under a
     lock without an intervening barrier                      -> mixed
   - a private block written, freed, then read back           -> invalid-read

   Because it exercises condition variables, this workload is
   Samhita-specific rather than a {!Backend_sig.S} kernel. *)

let run ?(on_create = fun (_ : Samhita.System.t) -> ())
    ?(config = Samhita.Config.default) () =
  let sys = Samhita.System.create ~config ~threads:2 () in
  let san =
    Analysis.Regcsan.create ~threads:2
      ~page_bytes:config.Samhita.Config.page_bytes
  in
  Samhita.System.add_probe sys (Analysis.Regcsan.probe san);
  on_create sys;
  let m = Samhita.System.mutex sys in
  let c = Samhita.System.cond sys in
  let b = Samhita.System.barrier sys ~parties:2 in
  let base = ref 0 in
  let body me ctx =
    let open Samhita.Thread_ctx in
    if me = 0 then base := malloc ctx ~bytes:64;
    barrier_wait ctx b;
    let base = !base in
    let flag = base + 24 in
    (* Seed 1: unordered conflicting stores. *)
    write_f64 ctx base (float_of_int (me + 1));
    if me = 0 then begin
      (* Ordinary stores that no barrier will publish before t1 looks. *)
      write_f64 ctx (base + 8) 42.0;
      write_f64 ctx (base + 16) 1.0;
      mutex_lock ctx m;
      write_i64 ctx flag 1L;
      cond_signal ctx c;
      mutex_unlock ctx m;
      (* Seed 4: use-after-free, private to this thread. *)
      let p = malloc ctx ~bytes:32 in
      write_f64 ctx p 3.0;
      free ctx ~addr:p ~bytes:32;
      ignore (read_f64 ctx p : float)
    end
    else begin
      mutex_lock ctx m;
      while read_i64 ctx flag = 0L do
        cond_wait ctx c m
      done;
      (* Seed 2: lock-ordered read of an ordinary (unpublished) store. *)
      ignore (read_f64 ctx (base + 8) : float);
      (* Seed 3: region store over an unpublished ordinary store. *)
      write_f64 ctx (base + 16) 2.0;
      mutex_unlock ctx m
    end;
    barrier_wait ctx b
  in
  for me = 0 to 1 do
    ignore (Samhita.System.spawn sys (body me) : Samhita.Thread_ctx.t)
  done;
  Samhita.System.run sys;
  (sys, san)

(** {!Backend_sig.S} over the Samhita DSM runtime. *)

(* [on_create] lets callers capture the concrete systems a kernel builds
   (e.g. to print a Metrics.pp_report after the run). *)
let make ?(on_create = fun (_ : Samhita.System.t) -> ())
    ?(config = Samhita.Config.default) () : Backend_sig.backend =
  (module struct
    let name = "samhita"

    type system = Samhita.System.t
    type thread = Samhita.Thread_ctx.t
    type mutex = Samhita.Manager_shard.lock_id
    type barrier = Samhita.Manager_shard.barrier_id

    let create ~threads =
      let sys = Samhita.System.create ~config ~threads () in
      on_create sys;
      sys
    let mutex sys = Samhita.System.mutex sys
    let barrier sys ~parties = Samhita.System.barrier sys ~parties

    let spawn sys body =
      ignore (Samhita.System.spawn sys body : Samhita.Thread_ctx.t)

    let run = Samhita.System.run
    let elapsed_ns sys = Desim.Time.to_ns (Samhita.System.elapsed sys)
    let thread_id = Samhita.Thread_ctx.id
    let malloc t ~bytes = Samhita.Thread_ctx.malloc t ~bytes
    let free t ~addr ~bytes = Samhita.Thread_ctx.free t ~addr ~bytes
    let read_f64 = Samhita.Thread_ctx.read_f64
    let write_f64 = Samhita.Thread_ctx.write_f64
    let charge_flops = Samhita.Thread_ctx.charge_flops

    let charge_mem_ops t n =
      Samhita.Thread_ctx.charge t
        (float_of_int n *. config.Samhita.Config.t_mem)
    let now_ns = Samhita.Thread_ctx.now_ns
    let idle_until = Samhita.Thread_ctx.idle_until
    let lock = Samhita.Thread_ctx.mutex_lock
    let unlock = Samhita.Thread_ctx.mutex_unlock
    let barrier_wait = Samhita.Thread_ctx.barrier_wait
    let compute_ns = Samhita.Thread_ctx.compute_ns
    let sync_ns = Samhita.Thread_ctx.sync_ns
    let misses t = Samhita.Cache.misses (Samhita.Thread_ctx.cache t)
  end)

let default : Backend_sig.backend = make ()

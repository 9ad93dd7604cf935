(* Every metric the benchmark can print, with its unit, in print order.
   BENCHMARK.json declares the same names with their direction and bound
   (the test in this directory checks the two agree).

   Simulated quantities carry simulated units ("sim_ms", "sim_us",
   "req/sim_s"); every other time is host time. Shares are fractions of
   the traced run wall. A per-layer metric a workload does not exercise
   reads 0 there (kv applies no diffs; the torture runner's internals are
   not visible from outside). *)

let end_to_end =
  [ ("wall_s", "s");
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("alloc_mwords", "Mwords");
    ("peak_heap_mb", "MB") ]

let per_layer =
  [ (* engine *)
    ("engine.events", "count");
    ("engine.other_share", "fraction");
    ("heap.push_pop64_ns", "ns/call");
    (* access path *)
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.hit_ratio", "fraction");
    ("cache.invalidations", "count");
    ("cache.evictions", "count");
    ("access.inline_calls", "count");
    ("access.inline_ns", "ns/call");
    ("access.inline_share", "fraction");
    ("access.blocking_calls", "count");
    ("access.blocking_share", "fraction");
    ("cache.read_hit_ns", "ns/call");
    ("cache.write_hit_ns", "ns/call");
    (* diff *)
    ("server.diffs_applied", "count");
    ("diff.make_sparse_ns", "ns/call");
    ("diff.make_dense_ns", "ns/call");
    ("diff.apply_ns", "ns/call");
    ("server.updates_applied", "count");
    ("update.apply_ns", "ns/call");
    (* memory server *)
    ("server.fetches", "count");
    ("server.jobs", "count");
    ("server.util_max", "fraction");
    (* manager *)
    ("manager.jobs", "count");
    ("manager.util", "fraction");
    ("sync.lock_acquires", "count");
    ("sync.barrier_waits", "count");
    ("sync.inline_calls", "count");
    ("sync.inline_share", "fraction");
    ("sync.blocking_calls", "count");
    ("sync.blocking_share", "fraction");
    (* fabric *)
    ("fabric.messages", "count");
    ("fabric.mbytes", "MB");
    ("fabric.link_util_max", "fraction");
    ("faults.delayed", "count");
    ("faults.reordered", "count");
    ("faults.dropped", "count");
    ("faults.retried", "count");
    (* kernel code and the backend boundary *)
    ("kernel.share", "fraction");
    ("alloc.words_per_access", "words");
    ("alloc.inline_share", "fraction");
    ("alloc.blocking_share", "fraction");
    ("idle.calls", "count");
    ("idle.blocking_share", "fraction");
    ("account.inline_share", "fraction");
    (* the modelled system, in simulated time *)
    ("sim.makespan_ms", "sim_ms");
    ("sim.compute_ms", "sim_ms");
    ("sim.sync_ms", "sim_ms");
    ("sim.idle_ms", "sim_ms");
    ("sim.capacity_rps", "req/sim_s");
    ("sim.goodput_rps", "req/sim_s");
    ("sim.p50_us", "sim_us");
    ("sim.p99_us", "sim_us");
    ("sim.p9999_us", "sim_us");
    (* torture *)
    ("torture.seeds", "count");
    ("torture.reads_checked", "count");
    ("torture.plain_seeds_per_s", "1/s");
    ("torture.crash_seeds_per_s", "1/s");
    ("torture.crash_shard_seeds_per_s", "1/s");
    ("torture.partition_seeds_per_s", "1/s");
    ("recovery.promotions", "count");
    ("recovery.takeovers", "count");
    ("detect.false_suspicions", "count");
    ("detect.fenced_messages", "count");
    ("detect.rejoins", "count");
    (* tracing itself *)
    ("trace.wall_s", "s");
    ("trace.overhead", "ratio");
    ("trace.attributed_frac", "fraction");
    ("trace.clock_ns", "ns/call");
    ("trace.spans", "count") ]

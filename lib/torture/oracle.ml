type violation = {
  v_class : string;
  v_message : string;
}

let trace_cap = 64
let max_violations = 32

type t = {
  line_bytes : int;
  (* Word address -> set of values ever published there (home merges). *)
  published : (int, (int64, unit) Hashtbl.t) Hashtbl.t;
  (* (server, line) -> (copy, version) of the line at its last
     publication. *)
  last_line : (int * int, bytes * int) Hashtbl.t;
  (* (thread, word address) -> that thread's last program-order store. *)
  own : (int * int, int64) Hashtbl.t;
  (* Word addresses some thread stored 0L to. Publications record only
     nonzero words, so this is what makes a published zero legal. *)
  zeroed : (int, unit) Hashtbl.t;
  (* Live allocations: base -> size. *)
  live : (int, int) Hashtbl.t;
  (* (barrier, epoch) -> (arrivals, departures). *)
  episodes : (int * int, int ref * int ref) Hashtbl.t;
  (* (barrier, thread) -> last arrive epoch (must strictly increase). *)
  last_arrive : (int * int, int) Hashtbl.t;
  (* Crash/recovery events, in detection order (single-failure model
     means at most one of each today; lists keep the checks general). *)
  mutable crashes_rev : (int * int * int) list;  (* time, node, server *)
  mutable recoveries_rev : (int * int * int * int) list;
      (* time, failed, promoted, replayed *)
  mutable takeovers : int;
  mutable violations_rev : violation list;
  mutable n_violations : int;
  mutable events : int;
  mutable reads_checked : int;
  mutable digest : int;
  trace : string option array;
  mutable trace_next : int;
}

let create ~config () =
  { line_bytes = Samhita.Config.line_bytes config;
    published = Hashtbl.create 4096;
    last_line = Hashtbl.create 256;
    own = Hashtbl.create 4096;
    zeroed = Hashtbl.create 64;
    live = Hashtbl.create 64;
    episodes = Hashtbl.create 64;
    last_arrive = Hashtbl.create 64;
    crashes_rev = [];
    recoveries_rev = [];
    takeovers = 0;
    violations_rev = [];
    n_violations = 0;
    events = 0;
    reads_checked = 0;
    digest = 0;
    trace = Array.make trace_cap None;
    trace_next = 0 }

let violations t = List.rev t.violations_rev
let recoveries t = List.length t.recoveries_rev
let takeovers t = t.takeovers
let events t = t.events
let reads_checked t = t.reads_checked
let digest t = t.digest

let note_violation t ~v_class msg =
  (* Bounded: one corrupted word can fail thousands of reads; the first
     few localize the bug, the rest only bloat the report. *)
  if t.n_violations < max_violations then begin
    t.violations_rev <- { v_class; v_message = msg } :: t.violations_rev;
    t.n_violations <- t.n_violations + 1
  end

let record t fmt =
  Printf.ksprintf
    (fun s ->
       t.trace.(t.trace_next mod trace_cap) <- Some s;
       t.trace_next <- t.trace_next + 1)
    fmt

let trace_tail t =
  let n = min t.trace_next trace_cap in
  List.filter_map
    (fun i -> t.trace.((t.trace_next - n + i) mod trace_cap))
    (List.init n Fun.id)

(* Order-sensitive stream digest: SplitMix-style fold of each event's
   fields. Same seed, same schedule => same digest, bit for bit. *)
let fold t a b = t.digest <- Desim.Rng.hash3 t.digest a b

let hash_bytes b =
  let h = ref 2166136261 in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 16777619 land max_int
  done;
  !h

let word_key v = Int64.to_int v lxor Int64.to_int (Int64.shift_right v 31)

(* ------------------------------------------------------------------ *)
(* Probe callbacks                                                     *)

(* Every access is one 8-byte word; its length still enters the digest
   ([8 lsl 4]) so that digests stay comparable with recorded ones. *)
let word_len = 8 lsl 4

let on_read t ~thread ~time ~addr ~value:v =
  t.events <- t.events + 1;
  fold t 1 (thread lxor (addr lsl 8) lxor word_len lxor time);
  fold t 2 (word_key v);
  t.reads_checked <- t.reads_checked + 1;
  let legal =
    v = 0L
    || (match Hashtbl.find_opt t.own (thread, addr) with
        | Some w -> w = v
        | None -> false)
    || (match Hashtbl.find_opt t.published addr with
        | Some set -> Hashtbl.mem set v
        | None -> false)
  in
  if not legal then begin
    record t "t=%d READ-VIOLATION thread=%d addr=0x%x got=%Lx" time thread
      addr v;
    note_violation t ~v_class:"illegal-read"
      (Printf.sprintf
         "thread %d read 0x%Lx at addr 0x%x (t=%dns): not its own last \
          store, never published at that word, and not the initial zero"
         thread v addr time)
  end

let on_write t ~thread ~time ~addr ~value:v =
  t.events <- t.events + 1;
  fold t 3 (thread lxor (addr lsl 8) lxor word_len lxor time);
  fold t 4 (word_key v);
  Hashtbl.replace t.own (thread, addr) v;
  if v = 0L then Hashtbl.replace t.zeroed addr ()

let on_publish t ~thread ~time ~server ~line ~version ~data =
  t.events <- t.events + 1;
  fold t 5 (thread lxor (server lsl 4) lxor (line lsl 8) lxor version);
  fold t 6 (hash_bytes data lxor time);
  record t "t=%d publish thread=%d server=%d line=%d v=%d" time thread
    server line version;
  (* Split-brain fence check: once recovery has deposed a primary, no
     client may ever again publish through it — the epoch fence must
     reject such round trips before any state mutates. A publication at
     the deposed server strictly after its recovery means two primaries
     served the same stripe. *)
  List.iter
    (fun (rt, failed, _, _) ->
       if failed = server && time > rt then
         note_violation t ~v_class:"split-brain"
           (Printf.sprintf
              "server %d served a publication at t=%dns but was deposed by \
               recovery at t=%dns (zombie primary not fenced)"
              server time rt))
    t.recoveries_rev;
  let base = line * t.line_bytes in
  let words = t.line_bytes / 8 in
  for w = 0 to words - 1 do
    let v = Bytes.get_int64_le data (w * 8) in
    if v <> 0L then begin
      let addr = base + (w * 8) in
      let set =
        match Hashtbl.find_opt t.published addr with
        | Some s -> s
        | None ->
          let s = Hashtbl.create 4 in
          Hashtbl.replace t.published addr s;
          s
      in
      Hashtbl.replace set v ()
    end
  done;
  (* Keep a snapshot (the probe's buffer is the home's live line). *)
  Hashtbl.replace t.last_line (server, line) (Bytes.copy data, version)

let on_malloc t ~thread ~time ~addr ~bytes =
  t.events <- t.events + 1;
  fold t 7 (thread lxor (addr lsl 8) lxor bytes lxor time);
  record t "t=%d malloc thread=%d addr=0x%x bytes=%d" time thread addr bytes;
  Hashtbl.iter
    (fun base size ->
       if addr < base + size && base < addr + bytes then
         note_violation t ~v_class:"alloc-overlap"
           (Printf.sprintf
              "thread %d malloc [0x%x,0x%x) overlaps live block [0x%x,0x%x)"
              thread addr (addr + bytes) base (base + size)))
    t.live;
  Hashtbl.replace t.live addr bytes

let on_free t ~thread ~time ~addr ~bytes =
  t.events <- t.events + 1;
  fold t 8 (thread lxor (addr lsl 8) lxor bytes lxor time);
  record t "t=%d free thread=%d addr=0x%x bytes=%d" time thread addr bytes;
  match Hashtbl.find_opt t.live addr with
  | Some size when size = bytes -> Hashtbl.remove t.live addr
  | Some size ->
    note_violation t ~v_class:"alloc-invalid-free"
      (Printf.sprintf
         "thread %d freed 0x%x with %d bytes but the live block is %d bytes"
         thread addr bytes size)
  | None ->
    note_violation t ~v_class:"alloc-invalid-free"
      (Printf.sprintf "thread %d freed 0x%x which is not a live block"
         thread addr)

let on_barrier t ~thread ~time ~barrier ~epoch ~phase =
  t.events <- t.events + 1;
  let ph = match phase with `Arrive -> 0 | `Depart -> 1 in
  fold t 9 (thread lxor (barrier lsl 4) lxor (epoch lsl 8) lxor ph);
  record t "t=%d barrier-%s thread=%d barrier=%d epoch=%d" time
    (if ph = 0 then "arrive" else "depart")
    thread barrier epoch;
  let arrivals, departures =
    match Hashtbl.find_opt t.episodes (barrier, epoch) with
    | Some c -> c
    | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.replace t.episodes (barrier, epoch) c;
      c
  in
  match phase with
  | `Arrive ->
    incr arrivals;
    (match Hashtbl.find_opt t.last_arrive (barrier, thread) with
     | Some prev when epoch <= prev ->
       note_violation t ~v_class:"barrier-epoch"
         (Printf.sprintf
            "thread %d arrived at barrier %d with epoch %d after epoch %d"
            thread barrier epoch prev)
     | _ -> ());
    Hashtbl.replace t.last_arrive (barrier, thread) epoch
  | `Depart ->
    incr departures;
    (match Hashtbl.find_opt t.last_arrive (barrier, thread) with
     | Some e when e = epoch -> ()
     | Some e ->
       note_violation t ~v_class:"barrier-epoch"
         (Printf.sprintf
            "thread %d departed barrier %d at epoch %d but arrived at %d"
            thread barrier epoch e)
     | None ->
       note_violation t ~v_class:"barrier-epoch"
         (Printf.sprintf
            "thread %d departed barrier %d (epoch %d) without arriving"
            thread barrier epoch))

(* The sanitizer's [Lock_attempt] and [Release] instants carry nothing
   the oracle checks; skipping them keeps the digest and event count. *)
let on_sync t ~thread ~time ~op ~id =
  let tag =
    match op with
    | Samhita.Probe.Lock_attempt | Samhita.Probe.Release -> 0
    | Samhita.Probe.Lock_acquired ->
      record t "t=%d lock-acquired thread=%d lock=%d" time thread id;
      10
    | Samhita.Probe.Unlock ->
      record t "t=%d unlock thread=%d lock=%d" time thread id;
      11
    | Samhita.Probe.Cond_signal -> 12
    | Samhita.Probe.Cond_wake -> 13
  in
  if tag <> 0 then begin
    t.events <- t.events + 1;
    fold t tag (thread lxor (id lsl 8) lxor time)
  end

let on_crash t ~time ~node ~server =
  t.events <- t.events + 1;
  fold t 14 (node lxor (server lsl 8) lxor time);
  record t "t=%d CRASH node=%d server=%d" time node server;
  t.crashes_rev <- (time, node, server) :: t.crashes_rev

let on_recovery t ~time ~failed ~promoted ~replayed =
  t.events <- t.events + 1;
  fold t 15 (failed lxor (promoted lsl 8) lxor (replayed lsl 16) lxor time);
  record t "t=%d RECOVERY failed=%d promoted=%d replayed=%d" time failed
    promoted replayed;
  t.recoveries_rev <- (time, failed, promoted, replayed) :: t.recoveries_rev

(* Trace tail only: a takeover neither folds into the digest nor counts
   as an event, because the torture summary prints the event count and
   the golden table pins it. The run's takeover count reports it. *)
let on_takeover t ~time ~dead ~takeover ~moved ~redriven =
  record t "t=%d TAKEOVER dead=%d takeover=%d moved=%d redriven=%d" time dead
    takeover moved redriven;
  t.takeovers <- t.takeovers + 1

let probe t =
  let ns = Desim.Time.to_ns in
  { Samhita.Probe.on_read = (fun ~thread ~time ~addr ~value ->
        on_read t ~thread ~time:(ns time) ~addr ~value);
    on_write = (fun ~thread ~time ~addr ~region:_ ~value ->
        on_write t ~thread ~time:(ns time) ~addr ~value);
    on_publish = (fun ~thread ~time ~server ~line ~version ~data ->
        on_publish t ~thread ~time:(ns time) ~server ~line ~version ~data);
    on_malloc = (fun ~thread ~time ~addr ~bytes ->
        on_malloc t ~thread ~time:(ns time) ~addr ~bytes);
    on_free = (fun ~thread ~time ~addr ~bytes ->
        on_free t ~thread ~time:(ns time) ~addr ~bytes);
    on_barrier = (fun ~thread ~time ~barrier ~epoch ~phase ->
        on_barrier t ~thread ~time:(ns time) ~barrier ~epoch ~phase);
    on_sync = (fun ~thread ~time ~op ~id ->
        on_sync t ~thread ~time:(ns time) ~op ~id);
    on_crash = (fun ~time ~node ~server ->
        on_crash t ~time:(ns time) ~node ~server);
    on_recovery = (fun ~time ~failed ~promoted ~replayed ->
        on_recovery t ~time:(ns time) ~failed ~promoted ~replayed);
    on_takeover = (fun ~time ~dead ~takeover ~moved ~redriven ->
        on_takeover t ~time:(ns time) ~dead ~takeover ~moved ~redriven) }

let attach t sys = Samhita.System.add_probe sys (probe t)

(* ------------------------------------------------------------------ *)
(* End-of-run invariants                                               *)

let finalize t sys =
  (* Twin/dirty residue: each kernel ends at a consistency point, so every
     cached line must be clean — a leftover dirty bit means a flush path
     forgot to clean (and would re-flush a stale diff later), and a twin
     page on a clean page is one the pool never got back. *)
  List.iter
    (fun ctx ->
       List.iter
         (fun (e : Samhita.Cache.entry) ->
            let twinned =
              Array.fold_left
                (fun n tw -> if Bytes.length tw > 0 then n + 1 else n)
                0 e.Samhita.Cache.twins
            in
            if twinned <> 0 || e.Samhita.Cache.dirty_pages <> 0 then
              note_violation t ~v_class:"twin-leak"
                (Printf.sprintf
                   "thread %d ended with line %d still dirty (twinned \
                    pages=%d dirty_pages=0x%x)"
                   (Samhita.Thread_ctx.id ctx)
                   e.Samhita.Cache.line twinned
                   e.Samhita.Cache.dirty_pages))
         (Samhita.Cache.entries (Samhita.Thread_ctx.cache ctx)))
    (Samhita.System.threads sys);
  (* Home divergence: home lines change only through probed merge paths,
     so each must still equal its last published snapshot (this also
     checks diff application is idempotent with respect to replays the
     retry layer could cause). *)
  let servers = Samhita.System.servers sys in
  let failed_servers =
    List.map (fun (_, _, srv) -> srv) t.crashes_rev
  in
  Hashtbl.iter
    (fun (server, line) (snap, _version) ->
       (* A crashed server's store is frozen mid-protocol: a mirror acked
          by its backup may never have reached it, so only live servers
          must match their last publication. The crashed stripe's fate is
          checked against the promoted replica below. *)
       if not (List.mem server failed_servers) then
         let live = Samhita.Memory_server.line servers.(server) line in
         if not (Bytes.equal live snap) then
           note_violation t ~v_class:"home-divergence"
             (Printf.sprintf
                "server %d line %d diverged from its last observed \
                 publication"
                server line))
    t.last_line;
  (* Post-recovery invariants, per completed recovery:
     - version consistency: the promoted replica must be at least as new
       as every publication acknowledged by the dead primary;
     - durability: no acknowledged write lost — every nonzero word of the
       dead primary's last published snapshot must either survive on the
       promoted replica or have been overwritten by another published
       value. Zero counts as published only at words a thread stored zero
       to (a kernel resetting an accumulator); elsewhere a zero is the
       lost write itself. *)
  List.iter
    (fun (_, failed, promoted, _) ->
       let psrv = servers.(promoted) in
       Hashtbl.iter
         (fun (server, line) (snap, version) ->
            if server = failed then begin
              let pv = Samhita.Memory_server.version psrv line in
              if pv < version then
                note_violation t ~v_class:"stale-promotion"
                  (Printf.sprintf
                     "promoted server %d holds line %d at version %d but \
                      the crashed primary %d acknowledged version %d"
                     promoted line pv failed version);
              let live = Samhita.Memory_server.line psrv line in
              let base = line * t.line_bytes in
              for w = 0 to (t.line_bytes / 8) - 1 do
                let v = Bytes.get_int64_le snap (w * 8) in
                if v <> 0L then begin
                  let cur = Bytes.get_int64_le live (w * 8) in
                  let addr = base + (w * 8) in
                  let legal =
                    cur = v
                    || (cur = 0L && Hashtbl.mem t.zeroed addr)
                    || (match Hashtbl.find_opt t.published addr with
                        | Some set -> Hashtbl.mem set cur
                        | None -> false)
                  in
                  if not legal then
                    note_violation t ~v_class:"lost-acked-write"
                      (Printf.sprintf
                         "line %d word at 0x%x: crashed primary %d had \
                          acknowledged 0x%Lx but promoted server %d holds \
                          0x%Lx (never published)"
                         line addr failed v promoted cur)
                end
              done
            end)
         t.last_line)
    t.recoveries_rev;
  (* Barrier episodes must balance: every released thread departs. *)
  Hashtbl.iter
    (fun (barrier, epoch) (arrivals, departures) ->
       if !arrivals <> !departures then
         note_violation t ~v_class:"barrier-epoch"
           (Printf.sprintf
              "barrier %d epoch %d: %d arrivals but %d departures" barrier
              epoch !arrivals !departures))
    t.episodes

(* ------------------------------------------------------------------ *)
(* KV session guarantees *)

let check_kv_history t (history : Workload.Kv.event array) =
  (* The KV kernel records events in per-worker processing order, and a
     client's requests all run on one worker ([client mod threads]), so a
     linear scan sees every client's operations in program order — which
     is all the session guarantees quantify over. *)
  let last_put : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_seen : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (e : Workload.Kv.event) ->
       let sk = (e.Workload.Kv.e_client, e.Workload.Kv.e_key) in
       let v = e.Workload.Kv.e_version in
       match e.Workload.Kv.e_op with
       | Workload.Traffic.Put ->
         (* The written version is also an observation of the key's
            state: later reads must not travel back behind it. *)
         Hashtbl.replace last_put sk v;
         Hashtbl.replace last_seen sk v
       | Workload.Traffic.Get ->
         (match Hashtbl.find_opt last_put sk with
          | Some w when v < w ->
            note_violation t ~v_class:"kv-read-your-writes"
              (Printf.sprintf
                 "client %d key %d: read version %d after writing version \
                  %d (own acked write invisible)"
                 e.Workload.Kv.e_client e.Workload.Kv.e_key v w)
          | _ -> ());
         (match Hashtbl.find_opt last_seen sk with
          | Some seen when v < seen ->
            note_violation t ~v_class:"kv-monotonic-reads"
              (Printf.sprintf
                 "client %d key %d: read version %d after observing \
                  version %d (state travelled backwards)"
                 e.Workload.Kv.e_client e.Workload.Kv.e_key v seen)
          | _ -> ());
         Hashtbl.replace last_seen sk v)
    history

(* Vector-clock happens-before engine with per-page shadow state at 8-byte
   word granularity. Pages organise the shadow and deduplicate findings;
   conflicts are resolved per word so that RegC's multiple-writer protocol
   (false sharing within a page is fine by design) is not misreported. *)

type kind = Race | Unpublished | Mixed | Invalid_read | Lock_misuse | Lock_order

let kind_name = function
  | Race -> "race"
  | Unpublished -> "unpublished"
  | Mixed -> "mixed"
  | Invalid_read -> "invalid-read"
  | Lock_misuse -> "lock-misuse"
  | Lock_order -> "lock-order"

let kind_rank = function
  | Race -> 0
  | Unpublished -> 1
  | Mixed -> 2
  | Invalid_read -> 3
  | Lock_misuse -> 4
  | Lock_order -> 5

type finding = {
  kind : kind;
  page : int;
  addr : int;
  tid_first : int;
  tid_second : int;
  time_first : Desim.Time.t;
  time_second : Desim.Time.t;
  detail : string;
}

type alloc_state = Unalloc | Alloc | Freed of int * Desim.Time.t

(* Shadow of one 8-byte word. Reads follow the FastTrack discipline: a
   single (tid, clk) epoch while reads stay ordered, promoted to a full
   vector clock once genuinely concurrent readers appear. *)
type cell = {
  mutable w_tid : int;  (* -1: never written *)
  mutable w_clk : int;
  mutable w_time : Desim.Time.t;
  mutable w_lock : int;  (* -1: ordinary write; else region lock id *)
  mutable r_tid : int;  (* -1: no reads; -2: shared (see r_vc) *)
  mutable r_clk : int;
  mutable r_time : Desim.Time.t;
  mutable r_vc : Vclock.t option;
  mutable st : alloc_state;
}

type tstate = {
  vc : Vclock.t;
      (* Full happens-before clock. *)
  pub : Vclock.t;
      (* pub.(u): u's clock up to which u's ordinary writes are guaranteed
         visible to this thread — advanced only by barrier episodes, the
         sole mechanism by which RegC publishes ordinary-region data. *)
  lock_seen : (int, Vclock.t) Hashtbl.t;
      (* Per lock: the lock's release clock as of this thread's latest
         acquire — bounds which region writes the grant chain patched in. *)
  mutable held : int list;
}

type bstate = {
  bvc : Vclock.t;  (* join of participants' clocks at arrival *)
  bpub : Vclock.t;  (* join of participants' pub vectors (transitivity) *)
  parts : bool array;  (* participant flags, indexed by thread id *)
}

type t = {
  n : int;
  page_shift : int;
  threads : tstate array;
  shadow : (int, cell) Hashtbl.t;  (* word index -> cell *)
  locks : (int, Vclock.t) Hashtbl.t;  (* lock -> release clock *)
  barriers : (int * int, bstate) Hashtbl.t;  (* (barrier, epoch) *)
  conds : (int, Vclock.t) Hashtbl.t;  (* cond -> signal clock *)
  seen : (int * int * int * int, unit) Hashtbl.t;  (* dedup keys *)
  (* Lock-order graph: (outer, inner) -> (thread, time) of the first
     acquisition of [inner] while holding [outer]. An edge in both
     directions is an ABBA-inconsistent pair: two threads following the
     two orders concurrently can deadlock even if this run did not. *)
  lock_order : (int * int, int * Desim.Time.t) Hashtbl.t;
  mutable n_lock_order : int;
  mutable findings_rev : finding list;
  mutable n_findings : int;
  mutable n_accesses : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ~threads ~page_bytes =
  if threads <= 0 then invalid_arg "Regcsan.create: threads must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Regcsan.create: page_bytes must be a power of two";
  { n = threads;
    page_shift = log2 page_bytes;
    threads =
      Array.init threads (fun i ->
          let vc = Vclock.create threads in
          (* Clocks start at 1 so that clock 0 means "before every event"
             and a recorded epoch is never mistaken for one. *)
          Vclock.set vc i 1;
          { vc;
            pub = Vclock.create threads;
            lock_seen = Hashtbl.create 8;
            held = [] });
    shadow = Hashtbl.create 4096;
    locks = Hashtbl.create 8;
    barriers = Hashtbl.create 64;
    conds = Hashtbl.create 8;
    seen = Hashtbl.create 64;
    lock_order = Hashtbl.create 16;
    n_lock_order = 0;
    findings_rev = [];
    n_findings = 0;
    n_accesses = 0 }

let ts t thread =
  if thread < 0 || thread >= t.n then
    invalid_arg "Regcsan: thread id out of range";
  t.threads.(thread)

let report t ~kind ~page ~addr ~tid_first ~tid_second ~time_first ~time_second
    ~detail =
  let a = min tid_first tid_second and b = max tid_first tid_second in
  let key = (page, a, b, kind_rank kind) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.findings_rev <-
      { kind; page; addr; tid_first; tid_second; time_first; time_second;
        detail }
      :: t.findings_rev;
    t.n_findings <- t.n_findings + 1
  end

(* ------------------------------------------------------------------ *)
(* Shadow cells                                                        *)

let fresh_cell st =
  { w_tid = -1;
    w_clk = 0;
    w_time = Desim.Time.zero;
    w_lock = -1;
    r_tid = -1;
    r_clk = 0;
    r_time = Desim.Time.zero;
    r_vc = None;
    st }

let cell_of t word st =
  match Hashtbl.find_opt t.shadow word with
  | Some c -> c
  | None ->
    let c = fresh_cell st in
    Hashtbl.replace t.shadow word c;
    c

let word_range ~addr ~len =
  if len <= 0 then invalid_arg "Regcsan: access length must be positive";
  (addr asr 3, (addr + len - 1) asr 3)

let page_of t word = (word lsl 3) asr t.page_shift

(* ------------------------------------------------------------------ *)
(* Allocation events                                                   *)

let on_malloc t ~thread:_ ~time:_ ~addr ~bytes =
  let lo, hi = word_range ~addr ~len:bytes in
  for w = lo to hi do
    match Hashtbl.find_opt t.shadow w with
    | None -> Hashtbl.replace t.shadow w (fresh_cell Alloc)
    | Some c ->
      (* Reuse of a recycled block: history of the previous tenant must
         not leak into the new one. *)
      c.w_tid <- -1;
      c.w_clk <- 0;
      c.w_lock <- -1;
      c.r_tid <- -1;
      c.r_clk <- 0;
      c.r_vc <- None;
      c.st <- Alloc
  done

let on_free t ~thread ~time ~addr ~bytes =
  let lo, hi = word_range ~addr ~len:bytes in
  for w = lo to hi do
    let c = cell_of t w Unalloc in
    c.st <- Freed (thread, time)
  done

(* ------------------------------------------------------------------ *)
(* Reads and writes                                                    *)

let seen_clock st ~lock ~writer =
  match Hashtbl.find_opt st.lock_seen lock with
  | Some v -> Vclock.get v writer
  | None -> 0

(* The read is ordered after the write by happens-before; check that RegC
   actually delivers the written value along that path. *)
let check_visibility t st ~thread ~time ~word (c : cell) =
  let u = c.w_tid in
  if c.w_lock < 0 then begin
    if c.w_clk > Vclock.get st.pub u then
      report t ~kind:Unpublished ~page:(page_of t word) ~addr:(word lsl 3)
        ~tid_first:u ~tid_second:thread ~time_first:c.w_time ~time_second:time
        ~detail:
          (Printf.sprintf
             "ordinary write by t%d reaches t%d without a barrier in \
              between; RegC publishes ordinary writes only at barriers"
             u thread)
  end
  else if c.w_clk > seen_clock st ~lock:c.w_lock ~writer:u then
    report t ~kind:Unpublished ~page:(page_of t word) ~addr:(word lsl 3)
      ~tid_first:u ~tid_second:thread ~time_first:c.w_time ~time_second:time
      ~detail:
        (Printf.sprintf
           "t%d reads data written by t%d inside lock %d's consistency \
            region without having acquired lock %d since"
           thread u c.w_lock c.w_lock)

let on_read t ~thread ~time ~addr =
  let st = ts t thread in
  let w = addr asr 3 in
  t.n_accesses <- t.n_accesses + 1;
  let c = cell_of t w Unalloc in
  (match c.st with
   | Alloc -> ()
   | Unalloc ->
     report t ~kind:Invalid_read ~page:(page_of t w) ~addr:(w lsl 3)
       ~tid_first:thread ~tid_second:thread ~time_first:time
       ~time_second:time
       ~detail:
         (Printf.sprintf "t%d reads a GAS address that was never allocated"
            thread)
   | Freed (ftid, ftime) ->
     report t ~kind:Invalid_read ~page:(page_of t w) ~addr:(w lsl 3)
       ~tid_first:ftid ~tid_second:thread ~time_first:ftime
       ~time_second:time
       ~detail:
         (Printf.sprintf "t%d reads a GAS address freed by t%d" thread ftid));
  if c.w_tid >= 0 && c.w_tid <> thread then begin
    if c.w_clk > Vclock.get st.vc c.w_tid then
      report t ~kind:Race ~page:(page_of t w) ~addr:(w lsl 3)
        ~tid_first:c.w_tid ~tid_second:thread ~time_first:c.w_time
        ~time_second:time
        ~detail:
          (Printf.sprintf
             "read by t%d races with a write by t%d (no happens-before \
              ordering)"
             thread c.w_tid)
    else check_visibility t st ~thread ~time ~word:w c
  end;
  (* Record the read. *)
  (match c.r_tid with
   | -1 ->
     c.r_tid <- thread;
     c.r_clk <- Vclock.get st.vc thread;
     c.r_time <- time
   | rt when rt = thread ->
     c.r_clk <- Vclock.get st.vc thread;
     c.r_time <- time
   | -2 ->
     (match c.r_vc with
      | Some v -> Vclock.set v thread (Vclock.get st.vc thread)
      | None -> assert false);
     c.r_time <- time
   | rt ->
     if c.r_clk <= Vclock.get st.vc rt then begin
       (* Previous reader is ordered before us: keep a single epoch. *)
       c.r_tid <- thread;
       c.r_clk <- Vclock.get st.vc thread;
       c.r_time <- time
     end
     else begin
       let v = Vclock.create t.n in
       Vclock.set v rt c.r_clk;
       Vclock.set v thread (Vclock.get st.vc thread);
       c.r_vc <- Some v;
       c.r_tid <- -2;
       c.r_time <- time
     end)

let on_write t ~thread ~time ~addr ~lock =
  let st = ts t thread in
  let w = addr asr 3 in
  t.n_accesses <- t.n_accesses + 1;
  let c = cell_of t w Unalloc in
  (* Conflicts with the previous write. *)
  if c.w_tid >= 0 && c.w_tid <> thread then begin
    let u = c.w_tid in
    if c.w_clk > Vclock.get st.vc u then
      report t ~kind:Race ~page:(page_of t w) ~addr:(w lsl 3) ~tid_first:u
        ~tid_second:thread ~time_first:c.w_time ~time_second:time
        ~detail:
          (Printf.sprintf
             "write by t%d races with a write by t%d (no happens-before \
              ordering)"
             thread u)
    else if lock >= 0 && c.w_lock < 0 then begin
      (* Region write over an ordinary write: until the ordinary writer
         crosses a barrier its twin still holds the old value, and its
         later page diff would overwrite this region update at the
         home. *)
      if c.w_clk > Vclock.get st.pub u then
        report t ~kind:Mixed ~page:(page_of t w) ~addr:(w lsl 3)
          ~tid_first:u ~tid_second:thread ~time_first:c.w_time
          ~time_second:time
          ~detail:
            (Printf.sprintf
               "t%d writes under lock %d a word t%d wrote outside any \
                region with no barrier in between (mixed region/ordinary \
                writes)"
               thread lock u)
    end
    else if lock < 0 && c.w_lock >= 0 then begin
      if c.w_clk > seen_clock st ~lock:c.w_lock ~writer:u then
        report t ~kind:Mixed ~page:(page_of t w) ~addr:(w lsl 3)
          ~tid_first:u ~tid_second:thread ~time_first:c.w_time
          ~time_second:time
          ~detail:
            (Printf.sprintf
               "t%d writes outside any region a word t%d wrote under \
                lock %d, without having acquired lock %d (mixed \
                region/ordinary writes)"
               thread u c.w_lock c.w_lock)
    end
  end;
  (* Conflicts with concurrent reads. *)
  (match c.r_tid with
   | -1 -> ()
   | -2 ->
     (match c.r_vc with
      | Some v ->
        for i = 0 to t.n - 1 do
          if i <> thread && Vclock.get v i > Vclock.get st.vc i then
            report t ~kind:Race ~page:(page_of t w) ~addr:(w lsl 3)
              ~tid_first:i ~tid_second:thread ~time_first:c.r_time
              ~time_second:time
              ~detail:
                (Printf.sprintf
                   "write by t%d races with a read by t%d (no \
                    happens-before ordering)"
                   thread i)
        done
      | None -> assert false)
   | rt ->
     if rt <> thread && c.r_clk > Vclock.get st.vc rt then
       report t ~kind:Race ~page:(page_of t w) ~addr:(w lsl 3) ~tid_first:rt
         ~tid_second:thread ~time_first:c.r_time ~time_second:time
         ~detail:
           (Printf.sprintf
              "write by t%d races with a read by t%d (no happens-before \
               ordering)"
              thread rt));
  (* Record the write; prior reads are now ordered before it (or already
     reported), so the read set resets. *)
  c.w_tid <- thread;
  c.w_clk <- Vclock.get st.vc thread;
  c.w_time <- time;
  c.w_lock <- lock;
  c.r_tid <- -1;
  c.r_clk <- 0;
  c.r_vc <- None

(* ------------------------------------------------------------------ *)
(* Synchronization edges                                               *)

let lock_clock t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some v -> v
  | None ->
    let v = Vclock.create t.n in
    Hashtbl.replace t.locks lock v;
    v

let on_lock_attempt t ~thread ~time ~lock =
  let st = ts t thread in
  if List.mem lock st.held then
    report t ~kind:Lock_misuse ~page:(-1) ~addr:(-1) ~tid_first:thread
      ~tid_second:thread ~time_first:time ~time_second:time
      ~detail:
        (Printf.sprintf
           "t%d acquires lock %d while already holding it (self-deadlock)"
           thread lock)

let on_lock_acquired t ~thread ~time ~lock =
  let st = ts t thread in
  let rel = lock_clock t lock in
  Vclock.join st.vc rel;
  (* Remember how much of each thread's region history this acquire made
     current (the grant patch covers exactly the lock's release chain). *)
  (match Hashtbl.find_opt st.lock_seen lock with
   | Some v -> Vclock.join v rel
   | None -> Hashtbl.replace st.lock_seen lock (Vclock.copy rel));
  (* Lock-order bookkeeping: acquiring [lock] while holding [outer] adds
     the edge (outer, lock). If the reverse edge already exists the
     program uses the two locks in both nesting orders — an ABBA pair
     that can deadlock under a schedule this run did not take. *)
  List.iter
    (fun outer ->
       if outer <> lock && not (Hashtbl.mem t.lock_order (outer, lock))
       then begin
         Hashtbl.replace t.lock_order (outer, lock) (thread, time);
         match Hashtbl.find_opt t.lock_order (lock, outer) with
         | None -> ()
         | Some (tid0, time0) ->
           t.n_lock_order <- t.n_lock_order + 1;
           let la = min outer lock and lb = max outer lock in
           report t ~kind:Lock_order
             ~page:(-1 - ((la lsl 16) lor lb))
             ~addr:(-1) ~tid_first:tid0 ~tid_second:thread ~time_first:time0
             ~time_second:time
             ~detail:
               (Printf.sprintf
                  "inconsistent lock order: t%d acquires lock %d while \
                   holding lock %d, but t%d acquired lock %d while holding \
                   lock %d (ABBA pair; deadlock possible even though none \
                   manifested)"
                  thread lock outer tid0 outer lock)
       end)
    st.held;
  st.held <- lock :: st.held

let on_unlock t ~thread ~time ~lock =
  let st = ts t thread in
  if not (List.mem lock st.held) then
    report t ~kind:Lock_misuse ~page:(-1) ~addr:(-1) ~tid_first:thread
      ~tid_second:thread ~time_first:time ~time_second:time
      ~detail:
        (Printf.sprintf "t%d releases lock %d which it does not hold" thread
           lock)
  else begin
    st.held <- List.filter (fun l -> l <> lock) st.held;
    Vclock.join (lock_clock t lock) st.vc;
    Vclock.tick st.vc thread
  end

let bstate_of t key =
  match Hashtbl.find_opt t.barriers key with
  | Some b -> b
  | None ->
    let b =
      { bvc = Vclock.create t.n;
        bpub = Vclock.create t.n;
        parts = Array.make t.n false } in
    Hashtbl.replace t.barriers key b;
    b

let on_barrier_arrive t ~thread ~barrier ~epoch =
  let st = ts t thread in
  let b = bstate_of t (barrier, epoch) in
  Vclock.join b.bvc st.vc;
  Vclock.join b.bpub st.pub;
  b.parts.(thread) <- true;
  Vclock.tick st.vc thread

let on_barrier_depart t ~thread ~barrier ~epoch =
  let st = ts t thread in
  match Hashtbl.find_opt t.barriers (barrier, epoch) with
  | None -> ()
  | Some b ->
    Vclock.join st.vc b.bvc;
    (* The episode flushed every participant's ordinary writes and handed
       out write notices: those writes are now published to us, as is
       whatever the participants had already seen published. *)
    Vclock.join st.pub b.bpub;
    for u = 0 to t.n - 1 do
      if b.parts.(u) && Vclock.get b.bvc u > Vclock.get st.pub u
      then Vclock.set st.pub u (Vclock.get b.bvc u)
    done

let cond_clock t cond =
  match Hashtbl.find_opt t.conds cond with
  | Some v -> v
  | None ->
    let v = Vclock.create t.n in
    Hashtbl.replace t.conds cond v;
    v

let on_cond_signal t ~thread ~cond =
  let st = ts t thread in
  Vclock.join (cond_clock t cond) st.vc;
  Vclock.tick st.vc thread

let on_cond_wake t ~thread ~cond =
  let st = ts t thread in
  Vclock.join st.vc (cond_clock t cond)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

let findings t = List.rev t.findings_rev
let findings_count t = t.n_findings
let lock_order_warnings t = t.n_lock_order
let thread_clock t ~thread = Vclock.copy (ts t thread).vc

let pp_finding ppf f =
  if f.kind = Lock_misuse || f.kind = Lock_order then
    Format.fprintf ppf "[%s] at %a: %s" (kind_name f.kind) Desim.Time.pp
      f.time_second f.detail
  else
    Format.fprintf ppf "[%s] page %d addr 0x%x: %s (first access t%d at %a, \
                        second t%d at %a)"
      (kind_name f.kind) f.page f.addr f.detail f.tid_first Desim.Time.pp
      f.time_first f.tid_second Desim.Time.pp f.time_second

let pp_report ppf t =
  Format.fprintf ppf "@[<v>regcsan: %d findings (%d accesses checked, %d \
                      words shadowed)"
    t.n_findings t.n_accesses (Hashtbl.length t.shadow);
  if t.n_lock_order > 0 then
    Format.fprintf ppf "@,  lock-order warnings: %d" t.n_lock_order;
  List.iter (fun f -> Format.fprintf ppf "@,  %a" pp_finding f) (findings t);
  Format.fprintf ppf "@]"

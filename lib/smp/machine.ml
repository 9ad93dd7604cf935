(* Per coherence line: which threads hold a copy (bitmask) and the thread
   holding it modified, or -1. Absent from the table = untouched (cold). *)
type line_state = {
  mutable present : int;
  mutable owner : int;
}

type t = {
  cfg : Config.t;
  mutable data : bytes;
  mutable used : int;
  lines : (int, line_state) Hashtbl.t;
  line_shift : int;
  mutable coherence_misses : int;
  mutable invalidations : int;
  mutable cold_misses : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create (cfg : Config.t) =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error m -> invalid_arg ("Smp.Machine.create: " ^ m));
  { cfg;
    data = Bytes.make (1 lsl 20) '\000';
    used = 0;
    lines = Hashtbl.create 1024;
    line_shift = log2 cfg.Config.coherence_line;
    coherence_misses = 0;
    invalidations = 0;
    cold_misses = 0 }

let grow t needed =
  let size = ref (Bytes.length t.data) in
  while !size < needed do
    size := !size * 2
  done;
  if !size > Bytes.length t.data then begin
    let fresh = Bytes.make !size '\000' in
    Bytes.blit t.data 0 fresh 0 (Bytes.length t.data);
    t.data <- fresh
  end

let alloc t ~bytes ~align =
  if bytes <= 0 then invalid_arg "Smp.Machine.alloc: bytes must be > 0";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Smp.Machine.alloc: align must be a positive power of two";
  let base = (t.used + align - 1) land lnot (align - 1) in
  t.used <- base + bytes;
  grow t t.used;
  base


(* The cost functions return a float field of [cfg] as is, and look the
   line up with [Hashtbl.find] rather than [find_opt], so a hit allocates
   nothing. *)
let read_cost t ~thread ~addr =
  let bit = 1 lsl thread in
  match Hashtbl.find t.lines (addr lsr t.line_shift) with
  | exception Not_found ->
    Hashtbl.replace t.lines (addr lsr t.line_shift)
      { present = bit; owner = -1 };
    t.cold_misses <- t.cold_misses + 1;
    t.cfg.Config.t_cold_miss
  | st ->
    if st.present land bit <> 0 && (st.owner = thread || st.owner = -1) then
      t.cfg.Config.t_mem
    else begin
      (* Copy supplied by the current owner (downgraded to shared) or by
         another sharer/memory. *)
      let cost =
        if st.owner >= 0 && st.owner <> thread then begin
          t.coherence_misses <- t.coherence_misses + 1;
          t.cfg.Config.t_coherence_miss
        end
        else begin
          t.cold_misses <- t.cold_misses + 1;
          t.cfg.Config.t_cold_miss
        end
      in
      st.owner <- -1;
      st.present <- st.present lor bit;
      cost
    end

let write_cost t ~thread ~addr =
  let bit = 1 lsl thread in
  match Hashtbl.find t.lines (addr lsr t.line_shift) with
  | exception Not_found ->
    Hashtbl.replace t.lines (addr lsr t.line_shift)
      { present = bit; owner = thread };
    t.cold_misses <- t.cold_misses + 1;
    t.cfg.Config.t_cold_miss
  | st ->
    if st.owner = thread then t.cfg.Config.t_mem
    else begin
      (* Upgrade: invalidate every other copy. *)
      let others = st.present land lnot bit in
      let cost =
        if others <> 0 || st.owner >= 0 then begin
          t.invalidations <- t.invalidations + 1;
          t.cfg.Config.t_invalidate
        end
        else if st.present land bit <> 0 then t.cfg.Config.t_mem
        else begin
          t.cold_misses <- t.cold_misses + 1;
          t.cfg.Config.t_cold_miss
        end
      in
      st.present <- bit;
      st.owner <- thread;
      cost
    end

let read_i64 t addr = Bytes.get_int64_le t.data addr
let write_i64 t addr v = Bytes.set_int64_le t.data addr v
let read_f64 t addr = Int64.float_of_bits (Bytes.get_int64_le t.data addr)
let write_f64 t addr v = Bytes.set_int64_le t.data addr (Int64.bits_of_float v)

let coherence_misses t = t.coherence_misses
let invalidations t = t.invalidations
let cold_misses t = t.cold_misses

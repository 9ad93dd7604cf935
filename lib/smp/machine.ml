type t = {
  cfg : Config.t;
  mutable data : bytes;
  mutable used : int;
  (* Per coherence line, indexed by line: which threads hold a copy
     (bitmask, 0 = untouched) and the thread holding it modified, or -1.
     Both grow with [data]. *)
  mutable present : int array;
  mutable owner : int array;
  line_shift : int;
  mutable coherence_misses : int;
  mutable invalidations : int;
  mutable cold_misses : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Lines of a [size]-byte store, the last one possibly partial. *)
let lines ~line_shift size = ((size - 1) lsr line_shift) + 1

let create (cfg : Config.t) =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error m -> invalid_arg ("Smp.Machine.create: " ^ m));
  let line_shift = log2 cfg.Config.coherence_line in
  let size = 1 lsl 20 in
  { cfg;
    data = Bytes.make size '\000';
    used = 0;
    present = Array.make (lines ~line_shift size) 0;
    owner = Array.make (lines ~line_shift size) (-1);
    line_shift;
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
    t.data <- fresh;
    let widen a fill =
      let wide = Array.make (lines ~line_shift:t.line_shift !size) fill in
      Array.blit a 0 wide 0 (Array.length a);
      wide
    in
    t.present <- widen t.present 0;
    t.owner <- widen t.owner (-1)
  end

let alloc t ~bytes ~align =
  if bytes <= 0 then invalid_arg "Smp.Machine.alloc: bytes must be > 0";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Smp.Machine.alloc: align must be a positive power of two";
  let base = (t.used + align - 1) land lnot (align - 1) in
  t.used <- base + bytes;
  grow t t.used;
  base


(* The cost functions return a float field of [cfg] as is, so a hit
   allocates nothing. An untouched line (no copy, no owner) takes the
   cold-miss branch of either function. *)
let read_cost t ~thread ~addr =
  let bit = 1 lsl thread and line = addr lsr t.line_shift in
  let present = t.present.(line) and owner = t.owner.(line) in
  if present land bit <> 0 && (owner = thread || owner = -1) then
    t.cfg.Config.t_mem
  else begin
    (* Copy supplied by the current owner (downgraded to shared) or by
       another sharer/memory. *)
    let cost =
      if owner >= 0 && owner <> thread then begin
        t.coherence_misses <- t.coherence_misses + 1;
        t.cfg.Config.t_coherence_miss
      end
      else begin
        t.cold_misses <- t.cold_misses + 1;
        t.cfg.Config.t_cold_miss
      end
    in
    t.owner.(line) <- -1;
    t.present.(line) <- present lor bit;
    cost
  end

let write_cost t ~thread ~addr =
  let bit = 1 lsl thread and line = addr lsr t.line_shift in
  let present = t.present.(line) and owner = t.owner.(line) in
  if owner = thread then t.cfg.Config.t_mem
  else begin
    (* Upgrade: invalidate every other copy. *)
    let cost =
      if present land lnot bit <> 0 || owner >= 0 then begin
        t.invalidations <- t.invalidations + 1;
        t.cfg.Config.t_invalidate
      end
      else if present land bit <> 0 then t.cfg.Config.t_mem
      else begin
        t.cold_misses <- t.cold_misses + 1;
        t.cfg.Config.t_cold_miss
      end
    in
    t.present.(line) <- bit;
    t.owner.(line) <- thread;
    cost
  end

let read_i64 t addr = Bytes.get_int64_le t.data addr
let write_i64 t addr v = Bytes.set_int64_le t.data addr v
let read_f64 t addr = Int64.float_of_bits (Bytes.get_int64_le t.data addr)
let write_f64 t addr v = Bytes.set_int64_le t.data addr (Int64.bits_of_float v)

let coherence_misses t = t.coherence_misses
let invalidations t = t.invalidations
let cold_misses t = t.cold_misses

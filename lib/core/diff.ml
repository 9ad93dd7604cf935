type span = { offset : int; data : bytes }

(* Packed representation: span boundaries live in two int arrays and the
   changed bytes in one concatenated payload buffer, filled in offset
   order. Building it allocates exactly three blocks (plus the record)
   regardless of how many spans the line produced — the span-list layout
   paid a Bytes.sub, a record and two conses per span, which dominated
   Diff.make for fragmented lines (e.g. byte-interleaved false sharing). *)
type t = {
  line : int;
  count : int;  (* number of spans *)
  offs : int array;  (* span offsets within the line, ascending *)
  lens : int array;  (* span lengths, parallel to [offs] *)
  payload : bytes;  (* span bytes, concatenated in offset order *)
}

(* Diffs are byte-exact: a span carries only bytes that actually changed.
   Coalescing across small unchanged gaps would be cheaper on the wire but
   is unsound under the multiple-writer protocol — an unchanged byte equals
   the writer's twin, not necessarily the home's current contents, so
   shipping it can roll back a concurrent writer's disjoint store (e.g.
   byte-interleaved false sharing). Hence any unchanged byte terminates
   the run. *)

(* Short copies skip the C-call overhead of [Bytes.blit]. *)
let small_blit src spos dst dpos len =
  if len <= 16 then
    for k = 0 to len - 1 do
      Bytes.unsafe_set dst (dpos + k) (Bytes.unsafe_get src (spos + k))
    done
  else Bytes.blit src spos dst dpos len

(* Span-boundary scratch reused across calls, grown geometrically and
   never shrunk. Its contents never outlive one call, so sharing it
   between simulations is harmless; it is domain-local only so that a
   caller running simulations on several domains stays safe. [make] and
   [make_paged] never re-enter (they call no user code), so handing out
   the arrays before the scan is safe. *)
type scratch = { mutable offs : int array; mutable lens : int array }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { offs = Array.make 128 0; lens = Array.make 128 0 })

let ensure_scratch n =
  let s = Domain.DLS.get scratch_key in
  let cur = Array.length s.offs in
  if n >= cur then begin
    let cap = ref cur in
    while n >= !cap do
      cap := !cap * 2
    done;
    let offs = Array.make !cap 0 and lens = Array.make !cap 0 in
    Array.blit s.offs 0 offs 0 cur;
    Array.blit s.lens 0 lens 0 cur;
    s.offs <- offs;
    s.lens <- lens
  end;
  s

(* Scan bytes [lo, hi) of [current] — one dirty page — against [twin],
   whose byte 0 stands for byte [base] of the line (0 for a line-sized
   twin, the page's offset for a page twin). Appends the page's runs to
   [offs]/[lens] from index [n] and returns the new count. Runs never
   cross a page boundary (matching the scalar scan, which flushed at
   each region's end).

   The scan compares 8 bytes at a time (a native 64-bit load; the typer
   specializes [<>] at int64 to an unboxed comparison) and narrows to
   byte granularity only inside words that differ or at a run boundary,
   so the recorded runs are byte-for-byte those of the scalar scan. The
   emit sites are spelled out inline rather than shared through local
   closures: with no closure capturing them, the state refs below compile
   to mutable locals (registers), and the caller pre-sizes the arrays to
   the worst case (alternating differ/equal bytes) so emits skip the
   capacity check. Both matter — the closured version measured ~1.6x
   slower on fragmented lines. *)
let scan_page offs lens n ~twin ~base ~current ~lo ~hi =
  let count = ref n in
  let run_start = ref (-1) in
  let word_end = lo + ((hi - lo) land lnot 7) in
  let i = ref lo in
  while !i < word_end do
    (* A differing word falls back to the plain byte loop. Two fancier
       schemes were measured and rejected: an all-bytes-differ fast path
       (has-zero-byte trick on the XOR) taxes the partial-word words every
       numeric kernel produces — a double's mantissa changes, its exponent
       byte does not — and walking the word's bytes out of the XOR image
       with shift-and-mask tests loses to the byte reloads, which hit L1
       and cost less than the extra shifts and branches. *)
    (if Bytes.get_int64_ne twin (!i - base) <> Bytes.get_int64_ne current !i
     then
       for j = !i to !i + 7 do
         if Bytes.unsafe_get twin (j - base) <> Bytes.unsafe_get current j
         then begin
           if !run_start < 0 then run_start := j
         end
         else if !run_start >= 0 then begin
           let k = !count in
           Array.unsafe_set offs k !run_start;
           Array.unsafe_set lens k (j - !run_start);
           count := k + 1;
           run_start := -1
         end
       done
     else if !run_start >= 0 then begin
       let k = !count in
       Array.unsafe_set offs k !run_start;
       Array.unsafe_set lens k (!i - !run_start);
       count := k + 1;
       run_start := -1
     end);
    i := !i + 8
  done;
  for j = word_end to hi - 1 do
    if Bytes.unsafe_get twin (j - base) <> Bytes.unsafe_get current j then begin
      if !run_start < 0 then run_start := j
    end
    else if !run_start >= 0 then begin
      let k = !count in
      Array.unsafe_set offs k !run_start;
      Array.unsafe_set lens k (j - !run_start);
      count := k + 1;
      run_start := -1
    end
  done;
  if !run_start >= 0 then begin
    let k = !count in
    Array.unsafe_set offs k !run_start;
    Array.unsafe_set lens k (hi - !run_start);
    count := k + 1
  end;
  !count

(* Copy the [n] runs recorded in the scratch arrays out into an
   exact-size diff. *)
let pack ~line ~current offs lens n =
  if n = 0 then
    { line; count = 0; offs = [||]; lens = [||]; payload = Bytes.empty }
  else begin
    let offs = Array.sub offs 0 n in
    let lens = Array.sub lens 0 n in
    let total = ref 0 in
    for i = 0 to n - 1 do
      total := !total + Array.unsafe_get lens i
    done;
    let payload = Bytes.create !total in
    let pos = ref 0 in
    for i = 0 to n - 1 do
      let len = Array.unsafe_get lens i in
      small_blit current (Array.unsafe_get offs i) payload !pos len;
      pos := !pos + len
    done;
    { line; count = n; offs; lens; payload }
  end

let check_line ~fn (layout : Layout.t) buf =
  if Bytes.length buf <> layout.Layout.line_bytes then
    invalid_arg (fn ^ ": buffers must be line-sized")

(* One pass over the dirty pages records span boundaries in the scratch
   arrays; [pack] copies the exact-size result out afterwards. *)
let make (layout : Layout.t) ~line ~twin ~current ~dirty_pages =
  check_line ~fn:"Diff.make" layout current;
  check_line ~fn:"Diff.make" layout twin;
  let s = ensure_scratch ((layout.Layout.line_bytes / 2) + 1) in
  let page = layout.Layout.page_bytes in
  let n = ref 0 in
  for p = 0 to layout.Layout.pages_per_line - 1 do
    if dirty_pages land (1 lsl p) <> 0 then
      n :=
        scan_page s.offs s.lens !n ~twin ~base:0 ~current ~lo:(p * page)
          ~hi:((p + 1) * page)
  done;
  pack ~line ~current s.offs s.lens !n

let make_paged (layout : Layout.t) ~line ~twins ~current ~dirty_pages =
  check_line ~fn:"Diff.make_paged" layout current;
  let s = ensure_scratch ((layout.Layout.line_bytes / 2) + 1) in
  let page = layout.Layout.page_bytes in
  let n = ref 0 in
  for p = 0 to layout.Layout.pages_per_line - 1 do
    if dirty_pages land (1 lsl p) <> 0 then begin
      let twin = twins.(p) in
      if Bytes.length twin <> page then
        invalid_arg "Diff.make_paged: a dirty page's twin must be page-sized";
      n :=
        scan_page s.offs s.lens !n ~twin ~base:(p * page) ~current
          ~lo:(p * page) ~hi:((p + 1) * page)
    end
  done;
  pack ~line ~current s.offs s.lens !n

let apply t buf =
  let pos = ref 0 in
  for i = 0 to t.count - 1 do
    let len = Array.unsafe_get t.lens i in
    small_blit t.payload !pos buf (Array.unsafe_get t.offs i) len;
    pos := !pos + len
  done

let is_empty t = t.count = 0
let span_count t = t.count

let payload_bytes t = Bytes.length t.payload

let wire_bytes t = Wire.diff ~spans:t.count ~payload:(payload_bytes t)

let spans (t : t) =
  let rec build i pos acc =
    if i < 0 then acc
    else
      let pos = pos - t.lens.(i) in
      let data = Bytes.sub t.payload pos t.lens.(i) in
      build (i - 1) pos ({ offset = t.offs.(i); data } :: acc)
  in
  build (t.count - 1) (Bytes.length t.payload) []

(* Growable thread-id sets. Sharer and writer sets used to be single-int
   bitmasks, which capped the system at 62 threads; this keeps the same
   dense-bitmap representation and iteration order (ascending thread id)
   but spreads the bits over an int array so the cap is a config knob. *)

let bits_per_word = 63 (* OCaml int: 63 usable bits *)

type t = { mutable words : int array }

let create () = { words = [||] }

let ensure t w =
  let n = Array.length t.words in
  if w >= n then begin
    let words = Array.make (w + 1) 0 in
    Array.blit t.words 0 words 0 n;
    t.words <- words
  end

let add t i =
  if i < 0 then invalid_arg "Tset.add: negative thread id";
  let w = i / bits_per_word and b = i mod bits_per_word in
  ensure t w;
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  if i >= 0 then begin
    let w = i / bits_per_word and b = i mod bits_per_word in
    if w < Array.length t.words then
      t.words.(w) <- t.words.(w) land lnot (1 lsl b)
  end

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let iter f t =
  Array.iteri
    (fun wi w ->
       if w <> 0 then
         for b = 0 to bits_per_word - 1 do
           if w land (1 lsl b) <> 0 then f ((wi * bits_per_word) + b)
         done)
    t.words

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let exists_other t ~self =
  let found = ref false in
  Array.iteri
    (fun wi w ->
       let w =
         if wi = self / bits_per_word then
           w land lnot (1 lsl (self mod bits_per_word))
         else w
       in
       if w <> 0 then found := true)
    t.words;
  !found

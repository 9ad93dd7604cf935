(* Consistent-hash ring assigning control-plane objects (locks, barriers,
   condition variables, pages) to manager shards. Each shard contributes
   [vnodes] virtual points hashed from (salt, shard, replica); a key is
   owned by the first point clockwise from its own hash. Adding or
   removing one shard therefore only moves the keys that fall on the
   segments the changed shard owns (~1/N of the space), which a test pins.

   Everything is derived from Desim.Rng.hash3, so placement is a pure
   function of (salt, shards, vnodes) — no RNG stream is consumed and
   replays are stable by construction. *)

type t = {
  shards : int;
  points : (int * int) array; (* (hash, shard), sorted by hash *)
}

let mask h = h land max_int

let vnodes = 64
let salt = 0x72696e67

let create ~shards =
  if shards < 1 then invalid_arg "Hash_ring.create: shards must be >= 1";
  let points =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and replica = i mod vnodes in
        (mask (Desim.Rng.hash3 salt shard replica), shard))
  in
  Array.sort compare points;
  { shards; points }

let shards t = t.shards

let lookup t key =
  if t.shards = 1 then 0
  else begin
    let h = mask (Desim.Rng.hash3 0x6b6579 key 0x6873) in
    (* First point with hash >= h, wrapping to points.(0). *)
    let n = Array.length t.points in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd t.points.(if !lo = n then 0 else !lo)
  end

(* Consistent-hash ring over replica indices.

   Each replica owns [vnodes] pseudo-random points on a 64-bit ring;
   a request key (the nest's structural digest) routes to the owner of
   the first point at or clockwise-after the key's hash. Health is the
   caller's concern: {!preference} returns every replica in ring order
   and the supervisor takes the first routable one, so a key keeps its
   home replica (and that replica's hot result cache) across the
   failure and recovery of *other* replicas, and only keys homed on a
   dead replica move — the property that makes per-shard caches
   survive chaos. *)

type t = {
  replicas : int;
  points : (int64 * int) array; (* (hash, replica), sorted by hash *)
}

(* FNV-1a 64-bit, finalized with a splitmix64 round: fast, portable,
   and uniform enough for ring placement. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let splitmix_fin z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_key s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  splitmix_fin !h

let create ?(vnodes = 64) ~replicas () =
  if replicas < 1 then invalid_arg "Router.create: replicas < 1";
  if vnodes < 1 then invalid_arg "Router.create: vnodes < 1";
  let points =
    Array.init (replicas * vnodes) (fun i ->
        let r = i / vnodes and v = i mod vnodes in
        (hash_key (Printf.sprintf "replica-%d-vnode-%d" r v), r))
  in
  Array.sort compare points;
  { replicas; points }

(* Index of the first point with hash >= h, wrapping to 0. The
   comparison must be unsigned: Int64 compare is signed, so map both
   operands through an offset flip. *)
let unsigned_ge a b = Int64.unsigned_compare a b >= 0

let first_at_or_after t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let ph, _ = t.points.(mid) in
    if unsigned_ge ph h then hi := mid else lo := mid + 1
  done;
  if !lo >= n then 0 else !lo

let owner t key =
  let _, r = t.points.(first_at_or_after t (hash_key key)) in
  r

let preference t key =
  let n = Array.length t.points in
  let start = first_at_or_after t (hash_key key) in
  let seen = Array.make t.replicas false in
  let order = ref [] in
  let found = ref 0 in
  let i = ref 0 in
  while !found < t.replicas && !i < n do
    let _, r = t.points.((start + !i) mod n) in
    if not seen.(r) then begin
      seen.(r) <- true;
      order := r :: !order;
      incr found
    end;
    incr i
  done;
  (* vnodes guarantee every replica appears, but guard anyway *)
  for r = 0 to t.replicas - 1 do
    if not seen.(r) then order := r :: !order
  done;
  List.rev !order

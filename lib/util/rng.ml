(* The 64-bit splitmix state, kept unboxed in 8 bytes: a mutable
   [int64] record field would box a fresh value on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let state t = Bytes.get_int64_le t 0
let set_state t s = Bytes.set_int64_le t 0 s

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (int64 t)

let derive seed ~stream =
  (* Run the seed and the stream id through the splitmix finalizer
     independently before combining, so that nearby (seed, stream)
     pairs land on decorrelated streams. Pure: derives the same
     generator every time without consuming entropy from anything. *)
  let a = mix (Int64.of_int seed) in
  let b = mix (Int64.logxor (Int64.of_int stream) 0x5851F42D4C957F2DL) in
  of_state (Int64.logxor a b)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int positively. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let uniform t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u1 = uniform t in
    if u1 <= 1e-12 then draw () else u1
  in
  let u1 = draw () in
  let u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  if k > Array.length arr then
    invalid_arg "Rng.sample_without_replacement: k too large";
  let pool = Array.copy arr in
  shuffle t pool;
  Array.sub pool 0 k

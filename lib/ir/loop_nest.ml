type loop_kind = Seq | Parallel | Vector
type loop = { ub : int; kind : loop_kind; origin : int }
type mem_ref = { buf : string; idx : Affine.expr array }

type sexpr =
  | Load of mem_ref
  | Const of float
  | Binop of Linalg.binop * sexpr * sexpr
  | Unop of Linalg.unop * sexpr

type stmt = Store of mem_ref * sexpr

type t = {
  name : string;
  loops : loop array;
  body : stmt list;
  buffers : (string * int array) list;
  inits : (string * float) list;
}

let n_loops t = Array.length t.loops
let trip_counts t = Array.map (fun l -> l.ub) t.loops
let iteration_count t = Array.fold_left (fun acc l -> acc * l.ub) 1 t.loops

let rec shape_in name = function
  | (b, shape) :: rest -> if String.equal b name then shape else shape_in name rest
  | [] -> raise Not_found

let buffer_shape t name = shape_in name t.buffers

let rec refs_of_sexpr acc = function
  | Load r -> r :: acc
  | Const _ -> acc
  | Binop (_, a, b) -> refs_of_sexpr (refs_of_sexpr acc a) b
  | Unop (_, e) -> refs_of_sexpr acc e

let loads_of_body t =
  List.concat_map
    (fun (Store (_, e)) -> List.rev (refs_of_sexpr [] e))
    t.body

let stores_of_body t = List.map (fun (Store (r, _)) -> r) t.body

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = n_loops t in
  let check_ref (r : mem_ref) =
    match List.assoc_opt r.buf t.buffers with
    | None -> err "nest %s: undeclared buffer %s" t.name r.buf
    | Some shape ->
        if Array.length r.idx <> Array.length shape then
          err "nest %s: buffer %s has rank %d, subscript rank %d" t.name
            r.buf (Array.length shape) (Array.length r.idx)
        else begin
          let result = ref (Ok ()) in
          Array.iteri
            (fun d (e : Affine.expr) ->
              if Array.length e.Affine.coeffs <> n then
                result :=
                  err "nest %s: subscript arity %d, expected %d" t.name
                    (Array.length e.Affine.coeffs)
                    n
              else begin
                (* Max/min over the box domain, per coefficient sign. *)
                let hi = ref e.Affine.const and lo = ref e.Affine.const in
                Array.iteri
                  (fun i c ->
                    let extent = t.loops.(i).ub - 1 in
                    if c > 0 then hi := !hi + (c * extent)
                    else lo := !lo + (c * extent))
                  e.Affine.coeffs;
                if !hi >= shape.(d) || !lo < 0 then
                  result :=
                    err "nest %s: buffer %s dim %d subscript range [%d, %d] out of [0, %d)"
                      t.name r.buf d !lo !hi shape.(d)
              end)
            r.idx;
          !result
        end
  in
  let rec first_err = function
    | [] -> Ok ()
    | r :: rest -> ( match check_ref r with Ok () -> first_err rest | e -> e)
  in
  if Array.exists (fun l -> l.ub <= 0) t.loops then
    err "nest %s: non-positive trip count" t.name
  else
    match first_err (stores_of_body t @ loads_of_body t) with
    | Error _ as e -> e
    | Ok () ->
        let undeclared_init =
          List.find_opt
            (fun (b, _) -> not (List.mem_assoc b t.buffers))
            t.inits
        in
        (match undeclared_init with
        | Some (b, _) -> err "nest %s: init of undeclared buffer %s" t.name b
        | None -> Ok ())

(* --- structural digest ----------------------------------------------

   A 126-bit structural fingerprint in O(nest size), with no
   intermediate string: two independently seeded splitmix-style lanes
   absorb one word per scalar of the structure. Compared to printing
   the nest and MD5-ing the text (the previous scheme in lib/serve)
   this skips the whole pretty-printing allocation storm and hashes
   subscript coefficients as words rather than decimal digits. The
   lanes are native 63-bit ints, not [Int64] — boxed int64 arithmetic
   would cost an allocation per operation and this digest runs once per
   accepted transformation on the search hot path.

   The nest [name] is deliberately excluded — the cost model and the
   policy never read it, so renamed copies of a nest share cache
   entries. Buffer names are included: which references alias is
   semantic. Float constants are hashed by their IEEE bit pattern. Every
   variant constructor and every array feeds a distinguishing tag or
   length word first, so structurally different nests cannot collide by
   concatenation ambiguity. *)

(* splitmix64's finalizer with the multiplicands truncated to odd
   63-bit constants (native-int multiplication wraps mod 2^63 and odd
   multiplicands stay bijective). *)
let dig_mix z =
  let z = (z lxor (z lsr 30)) * 0x2f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

type dig = { mutable lane_a : int; mutable lane_b : int }

let dig_create () =
  { lane_a = 0x1e3779b97f4a7c15; lane_b = 0x2545f4914f6cdd1d }

let dig_word d w =
  d.lane_a <- dig_mix ((d.lane_a lxor w) + 0x1e3779b97f4a7c15);
  d.lane_b <- dig_mix ((d.lane_b lxor w) + 0x22b2ae3d27d4eb4f)

let dig_int d (i : int) = dig_word d i

let dig_float d f =
  (* Fold the sign bit (lost by Int64.to_int's 63-bit truncation) back
     into the low bits so e.g. -1.0 and 1.0 stay distinct. *)
  let bits = Int64.bits_of_float f in
  dig_word d
    (Int64.to_int bits lxor Int64.to_int (Int64.shift_right_logical bits 63))

let dig_hex = "0123456789abcdef"

(* Render the two lanes as 32 hex chars without going through Printf
   (the format-string interpreter costs more than the whole hash on
   small nests). *)
let dig_to_hex a b =
  let out = Bytes.create 32 in
  let put off v =
    for i = 0 to 15 do
      Bytes.unsafe_set out (off + i)
        (String.unsafe_get dig_hex ((v lsr (4 * (15 - i))) land 0xf))
    done
  in
  put 0 a;
  put 16 b;
  Bytes.unsafe_to_string out

let dig_string d s =
  let n = String.length s in
  dig_int d n;
  (* 7 bytes per 63-bit word *)
  let i = ref 0 in
  while !i < n do
    let w = ref 0 in
    for j = 0 to 6 do
      let c = if !i + j < n then Char.code (String.unsafe_get s (!i + j)) else 0 in
      w := !w lor (c lsl (8 * j))
    done;
    dig_word d !w;
    i := !i + 7
  done

let digest (t : t) =
  let d = dig_create () in
  let affine (e : Affine.expr) =
    (* Sparse encoding: [arity; nonzero count; (dim, coeff)...; const].
       Post-tiling subscripts have 1-2 nonzero coefficients out of a
       dozen dims, so this absorbs far fewer words than the dense
       array. Still injective: the counts delimit the pair list, and
       equal sparse streams imply equal dense coefficient arrays. *)
    let c = e.Affine.coeffs in
    let nz = ref 0 in
    for j = 0 to Array.length c - 1 do
      if Array.unsafe_get c j <> 0 then incr nz
    done;
    dig_int d (Array.length c);
    dig_int d !nz;
    for j = 0 to Array.length c - 1 do
      let v = Array.unsafe_get c j in
      if v <> 0 then begin
        dig_int d j;
        dig_int d v
      end
    done;
    dig_int d e.Affine.const
  in
  let mem_ref (r : mem_ref) =
    dig_string d r.buf;
    dig_int d (Array.length r.idx);
    Array.iter affine r.idx
  in
  let binop_tag : Linalg.binop -> int = function
    | Linalg.Add -> 0
    | Linalg.Sub -> 1
    | Linalg.Mul -> 2
    | Linalg.Div -> 3
    | Linalg.Max -> 4
  in
  let unop_tag : Linalg.unop -> int = function
    | Linalg.Exp -> 0
    | Linalg.Log -> 1
    | Linalg.Neg -> 2
  in
  let rec sexpr = function
    | Load r ->
        dig_int d 1;
        mem_ref r
    | Const c ->
        dig_int d 2;
        dig_float d c
    | Binop (b, x, y) ->
        dig_int d 3;
        dig_int d (binop_tag b);
        sexpr x;
        sexpr y
    | Unop (u, e) ->
        dig_int d 4;
        dig_int d (unop_tag u);
        sexpr e
  in
  dig_int d (Array.length t.loops);
  Array.iter
    (fun l ->
      dig_int d l.ub;
      dig_int d (match l.kind with Seq -> 0 | Parallel -> 1 | Vector -> 2);
      dig_int d l.origin)
    t.loops;
  dig_int d (List.length t.body);
  List.iter
    (fun (Store (r, e)) ->
      mem_ref r;
      sexpr e)
    t.body;
  dig_int d (List.length t.buffers);
  List.iter
    (fun (b, shape) ->
      dig_string d b;
      dig_int d (Array.length shape);
      Array.iter (dig_int d) shape)
    t.buffers;
  dig_int d (List.length t.inits);
  List.iter
    (fun (b, v) ->
      dig_string d b;
      dig_float d v)
    t.inits;
  dig_to_hex d.lane_a d.lane_b

let map_body_exprs f t =
  let map_ref r = { r with idx = Array.map f r.idx } in
  let rec map_sexpr = function
    | Load r -> Load (map_ref r)
    | Const c -> Const c
    | Binop (b, x, y) -> Binop (b, map_sexpr x, map_sexpr y)
    | Unop (u, e) -> Unop (u, map_sexpr e)
  in
  {
    t with
    body = List.map (fun (Store (r, e)) -> Store (map_ref r, map_sexpr e)) t.body;
  }

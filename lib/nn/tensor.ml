(* Dense float64 tensors on Bigarray storage (c_layout, row-major).

   Two tiers of kernels:

   - allocating ops ([matmul], [add], ...) keep the historical API and
     allocate a fresh result per call;
   - destination-passing [_into] twins write into a caller-supplied
     tensor (usually drawn from a {!Workspace} arena) and allocate
     nothing on the OCaml heap beyond a few words.

   Every kernel pair is bit-identical: the [_into] variant and its
   allocating twin perform the same float operations in the same order,
   and the zero-skipping matmul row kernel keeps the accumulation order
   of the naive triple loop (for each output element the reduction
   index p ascends 0..k-1, added one product at a time), so unrolling
   and skipping are invisible at the bit level for finite operands.
   This is what keeps the jobs=1-vs-N byte-equality, checkpoint-resume
   and serve-determinism contracts intact (docs/performance.md). *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The runtime paces custom-block memory (which Bigarray payloads are)
   as if it were a scarce external resource: with the default
   [custom_major_ratio] (44), once live tensors outweigh a small OCaml
   heap the GC forces near-continuous major collections, and on
   multi-domain runs every forced major is a stop-the-world
   synchronization — measured 2x wall-clock on --jobs 4 training.
   Tensor payloads are plain memory, so pace them like memory. The
   larger minor heap (32 MB/domain, set before any domain spawns)
   spaces out the stop-the-world minor collections that multi-domain
   runs on few cores otherwise spend their time synchronizing on. *)
let () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 4194304;
      custom_major_ratio = 10000;
      custom_minor_ratio = 10000;
      custom_minor_max_size = 65536;
    }

type t = { shape : int array; data : buf }

let uget : buf -> int -> float = Bigarray.Array1.unsafe_get
let uset : buf -> int -> float -> unit = Bigarray.Array1.unsafe_set

let alloc_buf n : buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let product = Array.fold_left ( * ) 1

(* Fresh tensor with unspecified contents (kernels overwrite every
   element before it escapes). *)
let unsafe_create shape = { shape = Array.copy shape; data = alloc_buf (product shape) }

let create shape v =
  if Array.exists (fun d -> d < 0) shape then
    invalid_arg "Tensor.create: negative dimension";
  let t = unsafe_create shape in
  Bigarray.Array1.fill t.data v;
  t

let zeros shape = create shape 0.0
let ones shape = create shape 1.0

let numel t = Bigarray.Array1.dim t.data
let dims t = Array.copy t.shape

let of_array shape data =
  if Array.length data <> product shape then
    invalid_arg "Tensor.of_array: size mismatch";
  let t = unsafe_create shape in
  for i = 0 to Array.length data - 1 do
    uset t.data i (Array.unsafe_get data i)
  done;
  t

let to_array t =
  Array.init (numel t) (fun i -> uget t.data i)

let init shape f =
  let t = unsafe_create shape in
  for i = 0 to numel t - 1 do
    uset t.data i (f i)
  done;
  t

let scalar v = of_array [| 1 |] [| v |]

let blit src dst =
  if numel src <> numel dst then invalid_arg "Tensor.blit: size mismatch";
  Bigarray.Array1.blit src.data dst.data

let copy t =
  let out = unsafe_create t.shape in
  Bigarray.Array1.blit t.data out.data;
  out

let reshape shape t =
  if product shape <> numel t then invalid_arg "Tensor.reshape: size mismatch";
  let out = copy t in
  { out with shape = Array.copy shape }

let get t i = Bigarray.Array1.get t.data i
let set t i v = Bigarray.Array1.set t.data i v
let[@inline always] unsafe_get t i = uget t.data i
let[@inline always] unsafe_set t i v = uset t.data i v

let check_rank2 name t =
  if Array.length t.shape <> 2 then invalid_arg (name ^ ": expected rank 2")

let get2 t i j =
  check_rank2 "Tensor.get2" t;
  Bigarray.Array1.get t.data ((i * t.shape.(1)) + j)

let set2 t i j v =
  check_rank2 "Tensor.set2" t;
  Bigarray.Array1.set t.data ((i * t.shape.(1)) + j) v

(* -- workspace arena ---------------------------------------------------

   A [Workspace.t] owns a pool of Bigarray buffers handed out in call
   order. [reset] rewinds the cursor without freeing, so a steady-state
   caller (one [reset] per inference call, the same [get] sequence every
   time) reuses the same buffers forever: no per-op allocation, no
   minor-heap churn, no major-heap growth. Tensors returned by [get]
   are only valid until the owner's next [reset]. *)

module Workspace = struct
  type nonrec t = {
    mutable slots : buf array;  (* backing buffers, in hand-out order *)
    mutable used : int;  (* cursor into [slots] *)
    mutable grabs : int;  (* total [get] calls (stats) *)
    mutable reallocs : int;  (* [get]s that had to allocate (stats) *)
  }

  let create () = { slots = [||]; used = 0; grabs = 0; reallocs = 0 }
  let reset ws = ws.used <- 0

  let get ws shape =
    let n = product shape in
    ws.grabs <- ws.grabs + 1;
    let slot = ws.used in
    ws.used <- slot + 1;
    if slot >= Array.length ws.slots then begin
      ws.reallocs <- ws.reallocs + 1;
      let buf = alloc_buf n in
      let slots = Array.make (slot + 1) buf in
      Array.blit ws.slots 0 slots 0 (Array.length ws.slots);
      ws.slots <- slots;
      { shape = Array.copy shape; data = buf }
    end
    else begin
      let buf = ws.slots.(slot) in
      let cap = Bigarray.Array1.dim buf in
      if cap = n then { shape = Array.copy shape; data = buf }
      else if cap > n then
        (* Capacity reuse: a prefix view over the pooled buffer, no
           copy. Batch sizes shrink as episodes in a slab finish, so a
           slot sized for the largest batch serves every smaller one. *)
        { shape = Array.copy shape; data = Bigarray.Array1.sub buf 0 n }
      else begin
        ws.reallocs <- ws.reallocs + 1;
        let buf = alloc_buf n in
        ws.slots.(slot) <- buf;
        { shape = Array.copy shape; data = buf }
      end
    end

  let slots ws = Array.length ws.slots
  let reallocs ws = ws.reallocs
  let grabs ws = ws.grabs

  let live_bytes ws =
    Array.fold_left (fun acc b -> acc + (8 * Bigarray.Array1.dim b)) 0 ws.slots
end

(* -- matmul ------------------------------------------------------------

   One row kernel serves the whole matmul family. For row i of A it
   gathers the columns p with A[i,p] <> 0 and adds A[i,p] * B[p,:] into
   the output row over the gathered p in ascending order, four rows of
   B per pass with one chained add per product — the naive i-p-j loop's
   accumulation order with the exact-zero terms left out. The policy's
   matmul inputs are sparse: the observation is ~94% zeros, ReLU
   outputs about half, and the backward's output gradients are zeroed
   by ReLU and the branch indicators.

   Skipping is invisible at the bit level as long as B is finite: a
   skipped term A[i,p] * B[p,j] is an exact +-0.0, every sum starts at
   +0.0 (and so never becomes -0.0), and adding +-0.0 to such a sum
   leaves it unchanged. With an infinite or NaN entry in B the dense
   loop would produce NaN where this kernel keeps the sum. *)

(* Per-domain scratch: the gathered column indices of the current row,
   and the buffers [matmul_transpose_b_addto] stages through. *)
type scratch = { mutable idx : int array; ws : Workspace.t }

let scratch_key = Domain.DLS.new_key (fun () -> { idx = [||]; ws = Workspace.create () })

let scratch k =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.idx < k then s.idx <- Array.make k 0;
  s

(* out[orow .. orow+n) += a[arow .. arow+k) * b, b row-major [k; n].
   Each pass over the output row takes four gathered rows of b and
   updates four adjacent output elements per step: the elements are
   independent, so the interleaving cannot change any element's chain. *)
let row_kernel (a : buf) (b : buf) (out : buf) idx ~arow ~k ~orow ~n =
  let cnt = ref 0 in
  for p = 0 to k - 1 do
    if uget a (arow + p) <> 0.0 then begin
      Array.unsafe_set idx !cnt p;
      incr cnt
    end
  done;
  let cnt = !cnt in
  let c4 = cnt / 4 * 4 and n4 = n / 4 * 4 in
  let q = ref 0 in
  while !q < c4 do
    let p0 = Array.unsafe_get idx !q
    and p1 = Array.unsafe_get idx (!q + 1)
    and p2 = Array.unsafe_get idx (!q + 2)
    and p3 = Array.unsafe_get idx (!q + 3) in
    let av0 = uget a (arow + p0)
    and av1 = uget a (arow + p1)
    and av2 = uget a (arow + p2)
    and av3 = uget a (arow + p3) in
    let b0 = p0 * n and b1 = p1 * n and b2 = p2 * n and b3 = p3 * n in
    let j = ref 0 in
    while !j < n4 do
      let s = orow + !j and t = !j in
      let c0 =
        (((uget out s +. (av0 *. uget b (b0 + t))) +. (av1 *. uget b (b1 + t)))
         +. (av2 *. uget b (b2 + t)))
        +. (av3 *. uget b (b3 + t))
      and c1 =
        (((uget out (s + 1) +. (av0 *. uget b (b0 + t + 1)))
          +. (av1 *. uget b (b1 + t + 1)))
         +. (av2 *. uget b (b2 + t + 1)))
        +. (av3 *. uget b (b3 + t + 1))
      and c2 =
        (((uget out (s + 2) +. (av0 *. uget b (b0 + t + 2)))
          +. (av1 *. uget b (b1 + t + 2)))
         +. (av2 *. uget b (b2 + t + 2)))
        +. (av3 *. uget b (b3 + t + 2))
      and c3 =
        (((uget out (s + 3) +. (av0 *. uget b (b0 + t + 3)))
          +. (av1 *. uget b (b1 + t + 3)))
         +. (av2 *. uget b (b2 + t + 3)))
        +. (av3 *. uget b (b3 + t + 3))
      in
      uset out s c0;
      uset out (s + 1) c1;
      uset out (s + 2) c2;
      uset out (s + 3) c3;
      j := t + 4
    done;
    for j = n4 to n - 1 do
      uset out (orow + j)
        ((((uget out (orow + j) +. (av0 *. uget b (b0 + j)))
           +. (av1 *. uget b (b1 + j)))
          +. (av2 *. uget b (b2 + j)))
        +. (av3 *. uget b (b3 + j)))
    done;
    q := !q + 4
  done;
  for q = c4 to cnt - 1 do
    let p = Array.unsafe_get idx q in
    let av = uget a (arow + p) and brow = p * n in
    for j = 0 to n - 1 do
      uset out (orow + j) (uget out (orow + j) +. (av *. uget b (brow + j)))
    done
  done

let matmul_dims name a b =
  check_rank2 name a;
  check_rank2 name b;
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then invalid_arg (name ^ ": inner dimension mismatch");
  (m, k, n)

let check_dst name dst m n =
  check_rank2 name dst;
  if dst.shape.(0) <> m || dst.shape.(1) <> n then
    invalid_arg (name ^ ": destination shape mismatch")

let matmul_into ~dst a b =
  let m, k, n = matmul_dims "Tensor.matmul_into" a b in
  check_dst "Tensor.matmul_into" dst m n;
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Tensor.matmul_into: dst aliases an operand";
  let ad = a.data and bd = b.data and out = dst.data in
  Bigarray.Array1.fill out 0.0;
  let idx = (scratch k).idx in
  for i = 0 to m - 1 do
    row_kernel ad bd out idx ~arow:(i * k) ~k ~orow:(i * n) ~n
  done;
  dst

let matmul a b =
  let m, _, n = matmul_dims "Tensor.matmul" a b in
  matmul_into ~dst:(unsafe_create [| m; n |]) a b

let transpose_into ~dst t =
  check_rank2 "Tensor.transpose_into" t;
  let m = t.shape.(0) and n = t.shape.(1) in
  check_dst "Tensor.transpose_into" dst n m;
  if dst.data == t.data then invalid_arg "Tensor.transpose_into: dst aliases src";
  let src = t.data and out = dst.data in
  for i = 0 to m - 1 do
    let row = i * n in
    for j = 0 to n - 1 do
      uset out ((j * m) + i) (uget src (row + j))
    done
  done;
  dst

let transpose t =
  check_rank2 "Tensor.transpose" t;
  transpose_into ~dst:(unsafe_create [| t.shape.(1); t.shape.(0) |]) t

let matmul_transpose_a a b = matmul (transpose a) b
let matmul_transpose_b a b = matmul a (transpose b)

(* dst += a * b^T, the [Autodiff.matmul] backward step for dA; a : [m; k]
   is the output gradient, whose zeros the gather skips. Each product row
   is formed from +0.0 in scratch and added to [dst] once, so [dst] ends
   up exactly as if the whole product had been allocated and
   [add_inplace]d. *)
let matmul_transpose_b_addto ~dst a b =
  check_rank2 "Tensor.matmul_transpose_b_addto" a;
  check_rank2 "Tensor.matmul_transpose_b_addto" b;
  let m = a.shape.(0) and k = a.shape.(1) and n = b.shape.(0) in
  if b.shape.(1) <> k then
    invalid_arg "Tensor.matmul_transpose_b_addto: dimension mismatch";
  check_dst "Tensor.matmul_transpose_b_addto" dst m n;
  let s = scratch k in
  Workspace.reset s.ws;
  let bt = (transpose_into ~dst:(Workspace.get s.ws [| k; n |]) b).data in
  let row = (Workspace.get s.ws [| n |]).data in
  let ad = a.data and out = dst.data in
  for i = 0 to m - 1 do
    Bigarray.Array1.fill row 0.0;
    row_kernel ad bt row s.idx ~arow:(i * k) ~k ~orow:0 ~n;
    let orow = i * n in
    for j = 0 to n - 1 do
      uset out (orow + j) (uget out (orow + j) +. uget row j)
    done
  done

(* -- row/column kernels ------------------------------------------------ *)

let slice_cols_into ~dst t ~lo ~hi =
  check_rank2 "Tensor.slice_cols_into" t;
  let m = t.shape.(0) and n = t.shape.(1) in
  if lo < 0 || hi > n || lo >= hi then
    invalid_arg "Tensor.slice_cols_into: bad column range";
  let w = hi - lo in
  check_dst "Tensor.slice_cols_into" dst m w;
  for i = 0 to m - 1 do
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.data ((i * n) + lo) w)
      (Bigarray.Array1.sub dst.data (i * w) w)
  done;
  dst

let slice_cols t ~lo ~hi =
  check_rank2 "Tensor.slice_cols" t;
  let m = t.shape.(0) and n = t.shape.(1) in
  if lo < 0 || hi > n || lo >= hi then
    invalid_arg "Tensor.slice_cols: bad column range";
  slice_cols_into ~dst:(unsafe_create [| m; hi - lo |]) t ~lo ~hi

(* Rows are slices along the leading dimension, [w] elements each: the
   product of the trailing dimensions. *)
let gather_rows_into ~dst t rows =
  if Array.length t.shape = 0 then
    invalid_arg "Tensor.gather_rows_into: expected rank >= 1";
  let m = t.shape.(0) in
  Array.iter
    (fun r ->
      if r < 0 || r >= m then invalid_arg "Tensor.gather_rows_into: row out of range")
    rows;
  let shape = Array.copy t.shape in
  shape.(0) <- Array.length rows;
  if dst.shape <> shape then
    invalid_arg "Tensor.gather_rows_into: destination shape mismatch";
  let w = product (Array.sub shape 1 (Array.length shape - 1)) in
  let src = t.data and out = dst.data in
  Array.iteri
    (fun j r ->
      let s = r * w and o = j * w in
      for c = 0 to w - 1 do
        uset out (o + c) (uget src (s + c))
      done)
    rows;
  dst

let same_shape a b = a.shape = b.shape

let map_into f ~dst t =
  if not (same_shape dst t) then invalid_arg "Tensor.map_into: shape mismatch";
  let src = t.data and out = dst.data in
  for i = 0 to numel t - 1 do
    uset out i (f (uget src i))
  done;
  dst

let map f t = map_into f ~dst:(unsafe_create t.shape) t

let relu_into ~dst t =
  if not (same_shape dst t) then invalid_arg "Tensor.relu_into: shape mismatch";
  let src = t.data and out = dst.data in
  for i = 0 to numel t - 1 do
    let v = uget src i in
    uset out i (if v > 0.0 then v else 0.0)
  done;
  dst

let relu t = relu_into ~dst:(unsafe_create t.shape) t

let map2_into f ~dst a b =
  if not (same_shape a b) then invalid_arg "Tensor.map2: shape mismatch";
  if not (same_shape dst a) then invalid_arg "Tensor.map2_into: shape mismatch";
  let ad = a.data and bd = b.data and out = dst.data in
  for i = 0 to numel a - 1 do
    uset out i (f (uget ad i) (uget bd i))
  done;
  dst

let map2 f a b =
  if not (same_shape a b) then invalid_arg "Tensor.map2: shape mismatch";
  map2_into f ~dst:(unsafe_create a.shape) a b

(* The arithmetic pairs spell out their loops instead of going through
   [map2_into]: an unknown [float -> float -> float] closure call boxes
   three floats per element, and these run over every activation. *)
let binop_check name dst a b =
  if not (same_shape a b) then invalid_arg (name ^ ": shape mismatch");
  if not (same_shape dst a) then invalid_arg (name ^ ": shape mismatch")

let add_into ~dst a b =
  binop_check "Tensor.add_into" dst a b;
  let ad = a.data and bd = b.data and out = dst.data in
  for i = 0 to numel a - 1 do
    uset out i (uget ad i +. uget bd i)
  done;
  dst

let sub_into ~dst a b =
  binop_check "Tensor.sub_into" dst a b;
  let ad = a.data and bd = b.data and out = dst.data in
  for i = 0 to numel a - 1 do
    uset out i (uget ad i -. uget bd i)
  done;
  dst

let mul_into ~dst a b =
  binop_check "Tensor.mul_into" dst a b;
  let ad = a.data and bd = b.data and out = dst.data in
  for i = 0 to numel a - 1 do
    uset out i (uget ad i *. uget bd i)
  done;
  dst

let add a b = add_into ~dst:(unsafe_create a.shape) a b
let sub a b = sub_into ~dst:(unsafe_create a.shape) a b
let mul a b = mul_into ~dst:(unsafe_create a.shape) a b

let scale_into k ~dst t =
  if not (same_shape dst t) then invalid_arg "Tensor.scale_into: shape mismatch";
  let src = t.data and out = dst.data in
  for i = 0 to numel t - 1 do
    uset out i (k *. uget src i)
  done;
  dst

let scale k t = scale_into k ~dst:(unsafe_create t.shape) t

let add_bias_into ~dst x b =
  check_rank2 "Tensor.add_bias_into" x;
  if Array.length b.shape <> 1 || b.shape.(0) <> x.shape.(1) then
    invalid_arg "Tensor.add_bias: bias shape mismatch";
  let m = x.shape.(0) and n = x.shape.(1) in
  check_dst "Tensor.add_bias_into" dst m n;
  let xd = x.data and bd = b.data and out = dst.data in
  for i = 0 to m - 1 do
    let row = i * n in
    for j = 0 to n - 1 do
      uset out (row + j) (uget xd (row + j) +. uget bd j)
    done
  done;
  dst

let add_bias x b =
  check_rank2 "Tensor.add_bias" x;
  if Array.length b.shape <> 1 || b.shape.(0) <> x.shape.(1) then
    invalid_arg "Tensor.add_bias: bias shape mismatch";
  add_bias_into ~dst:(unsafe_create x.shape) x b

(* -- reductions -------------------------------------------------------- *)

let sum t =
  let d = t.data in
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. uget d i
  done;
  !acc

let mean t = sum t /. float_of_int (numel t)

let sum_rows_into ~dst t =
  check_rank2 "Tensor.sum_rows_into" t;
  let m = t.shape.(0) and n = t.shape.(1) in
  if Array.length dst.shape <> 1 || dst.shape.(0) <> m then
    invalid_arg "Tensor.sum_rows_into: destination shape mismatch";
  let src = t.data and out = dst.data in
  for i = 0 to m - 1 do
    let row = i * n in
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. uget src (row + j)
    done;
    uset out i !acc
  done;
  dst

let sum_rows t =
  check_rank2 "Tensor.sum_rows" t;
  sum_rows_into ~dst:(unsafe_create [| t.shape.(0) |]) t

let argmax_row t i =
  check_rank2 "Tensor.argmax_row" t;
  let n = t.shape.(1) in
  let d = t.data in
  let row = i * n in
  let best = ref 0 in
  let best_v = ref (uget d row) in
  for j = 1 to n - 1 do
    let v = uget d (row + j) in
    if v > !best_v then begin
      best := j;
      best_v := v
    end
  done;
  !best

(* -- in-place updates -------------------------------------------------- *)

let add_inplace dst src =
  if not (same_shape dst src) then invalid_arg "Tensor.add_inplace: shape mismatch";
  let d = dst.data and s = src.data in
  for i = 0 to numel dst - 1 do
    uset d i (uget d i +. uget s i)
  done

(* dst += a * b elementwise; one fused traversal of the historical
   "allocate [mul a b], then [add_inplace]" pair, same per-element
   float expression. *)
let add_mul_inplace dst a b =
  if not (same_shape a b) || not (same_shape dst a) then
    invalid_arg "Tensor.add_mul_inplace: shape mismatch";
  let d = dst.data and ad = a.data and bd = b.data in
  for i = 0 to numel dst - 1 do
    uset d i (uget d i +. (uget ad i *. uget bd i))
  done

let fill_inplace t v = Bigarray.Array1.fill t.data v

let scale_inplace t k =
  let d = t.data in
  for i = 0 to numel t - 1 do
    uset d i (uget d i *. k)
  done

let xavier_uniform rng ~fan_in ~fan_out shape =
  let bound = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  init shape (fun _ -> (Util.Rng.uniform rng *. 2.0 *. bound) -. bound)

(* Bit-level equality: NaN payloads compare equal to themselves and
   0.0 <> -0.0, unlike polymorphic [=] on floats (NaN <> NaN, and
   0.0 = -0.0), which silently mis-answered "is this checkpoint the
   same" whenever a weight was NaN. *)
let equal a b =
  same_shape a b
  && begin
       let ad = a.data and bd = b.data in
       let ok = ref true in
       let i = ref 0 in
       let n = numel a in
       while !ok && !i < n do
         if Int64.bits_of_float (uget ad !i) <> Int64.bits_of_float (uget bd !i)
         then ok := false;
         incr i
       done;
       !ok
     end

let approx_equal ?(tol = 1e-9) a b =
  same_shape a b
  && begin
       let ad = a.data and bd = b.data in
       let ok = ref true in
       let i = ref 0 in
       let n = numel a in
       while !ok && !i < n do
         if not (Float.abs (uget ad !i -. uget bd !i) <= tol) then ok := false;
         incr i
       done;
       !ok
     end

let pp ppf t =
  Format.fprintf ppf "tensor[%s]"
    (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)));
  if numel t <= 16 then begin
    Format.fprintf ppf " {";
    for i = 0 to numel t - 1 do
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%g" (uget t.data i)
    done;
    Format.fprintf ppf "}"
  end

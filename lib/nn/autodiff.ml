(* The dev profile compiles the library with [-opaque], which hides
   [Tensor]'s implementation from this module: a cross-module
   [Tensor.unsafe_get] stays a real call that boxes its float result.
   The backward loops below run over every activation element of every
   node, so they fetch the raw buffer once and use the Bigarray
   primitives, which compile to inline loads/stores from any module. *)
let uget (b : Tensor.buf) i : float = Bigarray.Array1.unsafe_get b i
let uset (b : Tensor.buf) i (v : float) = Bigarray.Array1.unsafe_set b i v

module Param = struct
  type t = { name : string; data : Tensor.t; grad : Tensor.t }

  let create name data =
    { name; data; grad = Tensor.zeros (Tensor.dims data) }

  let zero_grad p = Tensor.fill_inplace p.grad 0.0
  let numel p = Tensor.numel p.data
end

(* A node's gradient buffer exists only once a backward step writes
   it. The first writer of a parent's gradient may fill a fresh buffer
   with its result directly ([fresh_grad]); every later writer
   accumulates into it ([acc_grad]). Writing directly equals adding into
   zeros whenever the result holds no -0.0, which [0.0 +. g] and a
   matmul sum (started at +0.0) guarantee. Inference tapes (batched
   sampling, serving) never call [backward], so their nodes never pay
   for a gradient buffer. *)
type grad = Untouched | Buf of Tensor.t

type node = {
  value : Tensor.t;
  mutable grad : grad;
  ws : Tensor.Workspace.t option;  (* the tape's arena, for [grad]'s buffer *)
  needs_grad : bool;
      (* Some parameter leaf lies upstream: true for parameters, false
         for constants, the OR of the parents for ops. [backward] runs
         no step for a node without it, and no step writes such a
         parent's [grad] — so the gradient of a constant (the
         observation, a mask penalty) and of everything computed from
         constants alone is never formed. *)
  back : unit -> unit;  (* reads [grad], writes into parents' *)
}

module Tape = struct
  type t = {
    mutable nodes : node list;
    ws : Tensor.Workspace.t option;
  }

  (* A tape created with [~ws] draws every node value and every
     gradient buffer from the workspace instead of the heap: after the
     first tape over a given network, the op sequence repeats, so every
     buffer is a pooled reuse and a whole forward/backward allocates
     nothing. The workspace is reset here, which invalidates buffers
     handed out to the PREVIOUS tape that used it — callers must
     extract anything they keep (scalars, copies) before creating the
     next tape on the same workspace. Plain [create ()] keeps
     fresh-allocation semantics. *)
  let create ?ws () =
    Option.iter Tensor.Workspace.reset ws;
    { nodes = []; ws }

  let push t node = t.nodes <- node :: t.nodes
  let ws t = t.ws
end

let value n = n.value

(* Scratch for backward steps that stage buffers (the transposed left
   operand and the product of the matmul's dB step). Reset once per
   [backward]; the hand-out sequence is the reverse tape order, which
   is stable for a fixed network, so after the first minibatch every
   [get] reuses a pooled buffer. Per-domain, never shared. *)
let bw_ws_key = Domain.DLS.new_key Tensor.Workspace.create
let bw_ws () = Domain.DLS.get bw_ws_key

(* Value buffer for an op that overwrites every element. *)
let alloc tape shape =
  match tape.Tape.ws with
  | None -> Tensor.zeros shape
  | Some ws -> Tensor.Workspace.get ws shape

(* [n]'s gradient buffer for a first writer, which must overwrite every
   element: a workspace slot holds stale data from the previous tape. *)
let fresh_grad n =
  let g =
    match n.ws with
    | None -> Tensor.zeros n.value.Tensor.shape
    | Some ws -> Tensor.Workspace.get ws n.value.Tensor.shape
  in
  n.grad <- Buf g;
  g

(* [n]'s gradient buffer for a writer that adds into it: zeros on first
   touch. *)
let acc_grad n =
  match n.grad with
  | Buf g -> g
  | Untouched ->
      let g = fresh_grad n in
      Tensor.fill_inplace g 0.0;
      g

let grad = acc_grad

let mk tape ~needs_grad value back_of =
  let rec node =
    {
      value;
      grad = Untouched;
      ws = tape.Tape.ws;
      needs_grad;
      back = (fun () -> back_of node);
    }
  in
  Tape.push tape node;
  node

(* Ops of one parent run their backward step only when that parent
   needs a gradient, so the step need not check. *)
let mk1 tape a value back_of = mk tape ~needs_grad:a.needs_grad value back_of

let mk2 tape a b value back_of =
  mk tape ~needs_grad:(a.needs_grad || b.needs_grad) value back_of

let of_param tape (p : Param.t) =
  mk tape ~needs_grad:true p.Param.data (fun node ->
      Tensor.add_inplace p.Param.grad (acc_grad node))

let const tape t = mk tape ~needs_grad:false t (fun _ -> ())

let matmul tape a b =
  let value =
    Tensor.matmul_into
      ~dst:(alloc tape [| a.value.Tensor.shape.(0); b.value.Tensor.shape.(1) |])
      a.value b.value
  in
  mk2 tape a b value (fun node ->
      (* dA = dC * B^T ; dB = A^T * dC, both on the zero-skipping row
         kernel: dA gathers the zeros of dC's rows, dB those of A's
         columns, which it reads as rows of A^T. The transposed operand
         is staged in the backward workspace. The first writer of a
         parent's gradient forms the product in that buffer; a later
         one stages it and adds. Neither half allocates in steady
         state. *)
      let g = acc_grad node and ws = bw_ws () in
      if a.needs_grad then begin
        match a.grad with
        | Untouched ->
            let shape = b.value.Tensor.shape in
            let bt =
              Tensor.transpose_into
                ~dst:(Tensor.Workspace.get ws [| shape.(1); shape.(0) |])
                b.value
            in
            ignore (Tensor.matmul_into ~dst:(fresh_grad a) g bt)
        | Buf ag -> Tensor.matmul_transpose_b_addto ~dst:ag g b.value
      end;
      if b.needs_grad then begin
        let shape = a.value.Tensor.shape in
        let at =
          Tensor.transpose_into
            ~dst:(Tensor.Workspace.get ws [| shape.(1); shape.(0) |])
            a.value
        in
        match b.grad with
        | Untouched -> ignore (Tensor.matmul_into ~dst:(fresh_grad b) at g)
        | Buf bg ->
            let db = Tensor.Workspace.get ws (Tensor.dims b.value) in
            Tensor.add_inplace bg (Tensor.matmul_into ~dst:db at g)
      end)

let add tape a b =
  let value = Tensor.add_into ~dst:(alloc tape (Tensor.dims a.value)) a.value b.value in
  mk2 tape a b value (fun node ->
      let g = acc_grad node in
      if a.needs_grad then Tensor.add_inplace (acc_grad a) g;
      if b.needs_grad then Tensor.add_inplace (acc_grad b) g)

let sub tape a b =
  let value = Tensor.sub_into ~dst:(alloc tape (Tensor.dims a.value)) a.value b.value in
  mk2 tape a b value (fun node ->
      let g = acc_grad node in
      if a.needs_grad then Tensor.add_inplace (acc_grad a) g;
      if b.needs_grad then begin
        let bg = (acc_grad b).Tensor.data and gd = g.Tensor.data in
        for i = 0 to Tensor.numel g - 1 do
          uset bg i (uget bg i -. uget gd i)
        done
      end)

let mul tape a b =
  let value = Tensor.mul_into ~dst:(alloc tape (Tensor.dims a.value)) a.value b.value in
  mk2 tape a b value (fun node ->
      let g = acc_grad node in
      if a.needs_grad then Tensor.add_mul_inplace (acc_grad a) g b.value;
      if b.needs_grad then Tensor.add_mul_inplace (acc_grad b) g a.value)

let add_bias tape x b =
  let value =
    Tensor.add_bias_into ~dst:(alloc tape (Tensor.dims x.value)) x.value b.value
  in
  mk2 tape x b value (fun node ->
      let g = acc_grad node in
      if x.needs_grad then Tensor.add_inplace (acc_grad x) g;
      if b.needs_grad then begin
        let m = x.value.Tensor.shape.(0) and n = x.value.Tensor.shape.(1) in
        let bg = (acc_grad b).Tensor.data and gd = g.Tensor.data in
        for i = 0 to m - 1 do
          let row = i * n in
          for j = 0 to n - 1 do
            uset bg j (uget bg j +. uget gd (row + j))
          done
        done
      end)

let unary tape a ~f ~df =
  (* df receives (input value, output gradient) elementwise *)
  let value = Tensor.map_into f ~dst:(alloc tape (Tensor.dims a.value)) a.value in
  mk1 tape a value (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      let av = a.value.Tensor.data in
      for i = 0 to Tensor.numel a.value - 1 do
        uset ag i (uget ag i +. df (uget av i) (uget gd i))
      done)

(* [relu] and [exp_] run over every activation in a training step, so
   they bypass [unary]: calling a [float -> float -> float] closure per
   element boxes three floats per call — measured as the bulk of a
   backward pass's minor allocation. Direct loops keep the identical
   arithmetic with zero boxing. As the first writer of its input's
   gradient, [relu]'s backward picks between 0.0 and [0.0 +. g]
   through [sel], like [Tensor.relu_into]'s forward: a branch on the
   input's sign mispredicts about half the time. *)
let relu tape a =
  let value = Tensor.relu_into ~dst:(alloc tape (Tensor.dims a.value)) a.value in
  mk1 tape a value (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let av = a.value.Tensor.data in
      match a.grad with
      | Untouched ->
          let ag = (fresh_grad a).Tensor.data in
          let sel = [| 0.0; 0.0 |] in
          for i = 0 to Tensor.numel a.value - 1 do
            Array.unsafe_set sel 1 (0.0 +. uget gd i);
            uset ag i (Array.unsafe_get sel (Bool.to_int (uget av i > 0.0)))
          done
      | Buf ag ->
          let ag = ag.Tensor.data in
          for i = 0 to Tensor.numel a.value - 1 do
            if uget av i > 0.0 then uset ag i (uget ag i +. uget gd i)
          done)

let exp_ tape a =
  let value = alloc tape (Tensor.dims a.value) in
  let vd = value.Tensor.data and avd = a.value.Tensor.data in
  for i = 0 to Tensor.numel a.value - 1 do
    uset vd i (exp (uget avd i))
  done;
  mk1 tape a value (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      let av = a.value.Tensor.data in
      for i = 0 to Tensor.numel a.value - 1 do
        uset ag i (uget ag i +. (uget gd i *. exp (uget av i)))
      done)
let neg tape a = unary tape a ~f:(fun x -> -.x) ~df:(fun _ g -> -.g)
let scale tape k a = unary tape a ~f:(fun x -> k *. x) ~df:(fun _ g -> k *. g)
let square tape a = unary tape a ~f:(fun x -> x *. x) ~df:(fun x g -> 2.0 *. x *. g)

let clamp tape ~lo ~hi a =
  unary tape a
    ~f:(fun x -> Float.min hi (Float.max lo x))
    ~df:(fun x g -> if x >= lo && x <= hi then g else 0.0)

let min_ tape a b =
  let value =
    Tensor.map2_into Float.min ~dst:(alloc tape (Tensor.dims a.value)) a.value b.value
  in
  mk2 tape a b value (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let av = a.value.Tensor.data and bv = b.value.Tensor.data in
      if a.needs_grad then begin
        let ag = (acc_grad a).Tensor.data in
        for i = 0 to Tensor.numel a.value - 1 do
          if uget av i <= uget bv i then uset ag i (uget ag i +. uget gd i)
        done
      end;
      if b.needs_grad then begin
        let bg = (acc_grad b).Tensor.data in
        for i = 0 to Tensor.numel a.value - 1 do
          if not (uget av i <= uget bv i) then uset bg i (uget bg i +. uget gd i)
        done
      end)

let log_softmax tape a =
  let x = a.value in
  if Array.length x.Tensor.shape <> 2 then
    invalid_arg "Autodiff.log_softmax: expected rank 2";
  let m = x.Tensor.shape.(0) and n = x.Tensor.shape.(1) in
  let out = alloc tape [| m; n |] in
  let xd = x.Tensor.data and od = out.Tensor.data in
  for i = 0 to m - 1 do
    let row = i * n in
    let row_max = ref neg_infinity in
    for j = 0 to n - 1 do
      row_max := Float.max !row_max (uget xd (row + j))
    done;
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      sum := !sum +. exp (uget xd (row + j) -. !row_max)
    done;
    let log_z = !row_max +. log !sum in
    for j = 0 to n - 1 do
      uset od (row + j) (uget xd (row + j) -. log_z)
    done
  done;
  mk1 tape a out (fun node ->
      (* dx_ij = g_ij - softmax_ij * sum_j g_ij *)
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      let v = node.value.Tensor.data in
      for i = 0 to m - 1 do
        let row = i * n in
        let gsum = ref 0.0 in
        for j = 0 to n - 1 do
          gsum := !gsum +. uget gd (row + j)
        done;
        for j = 0 to n - 1 do
          let p = exp (uget v (row + j)) in
          uset ag (row + j) (uget ag (row + j) +. uget gd (row + j) -. (p *. !gsum))
        done
      done)

let gather_cols tape a cols =
  let x = a.value in
  if Array.length x.Tensor.shape <> 2 then
    invalid_arg "Autodiff.gather_cols: expected rank 2";
  let m = x.Tensor.shape.(0) in
  if Array.length cols <> m then
    invalid_arg "Autodiff.gather_cols: one column index per row required";
  let out = alloc tape [| m |] in
  for i = 0 to m - 1 do
    Tensor.set out i (Tensor.get2 x i cols.(i))
  done;
  mk1 tape a out (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      let n = x.Tensor.shape.(1) in
      for i = 0 to m - 1 do
        let idx = (i * n) + cols.(i) in
        uset ag idx (uget ag idx +. uget gd i)
      done)

let slice_cols tape a ~lo ~hi =
  let x = a.value in
  if Array.length x.Tensor.shape <> 2 then
    invalid_arg "Autodiff.slice_cols: expected rank 2";
  let m = x.Tensor.shape.(0) and n = x.Tensor.shape.(1) in
  if lo < 0 || hi > n || lo >= hi then
    invalid_arg "Autodiff.slice_cols: bad range";
  let w = hi - lo in
  let out = Tensor.slice_cols_into ~dst:(alloc tape [| m; w |]) x ~lo ~hi in
  mk1 tape a out (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      for i = 0 to m - 1 do
        let arow = (i * n) + lo and grow = i * w in
        for j = 0 to w - 1 do
          uset ag (arow + j) (uget ag (arow + j) +. uget gd (grow + j))
        done
      done)

(* Row ops index the leading dimension; a row is the [w] contiguous
   elements the trailing dimensions span. *)
let row_width name shape =
  if Array.length shape = 0 then invalid_arg (name ^ ": expected rank >= 1");
  Array.fold_left ( * ) 1 (Array.sub shape 1 (Array.length shape - 1))

(* dst[di .. di+w) += src[si .. si+w) *)
let add_row dst di src si w =
  for c = 0 to w - 1 do
    uset dst (di + c) (uget dst (di + c) +. uget src (si + c))
  done

let gather_rows tape a rows =
  let shape = Tensor.dims a.value in
  let w = row_width "Autodiff.gather_rows" shape in
  shape.(0) <- Array.length rows;
  let value = Tensor.gather_rows_into ~dst:(alloc tape shape) a.value rows in
  mk1 tape a value (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      Array.iteri (fun j r -> add_row ag (r * w) gd (j * w) w) rows)

let scatter_rows tape a rows ~n =
  let shape = Tensor.dims a.value in
  let w = row_width "Autodiff.scatter_rows" shape in
  if Array.length rows <> shape.(0) then
    invalid_arg "Autodiff.scatter_rows: one row index per input row required";
  Array.iter
    (fun r ->
      if r < 0 || r >= n then invalid_arg "Autodiff.scatter_rows: row out of range")
    rows;
  shape.(0) <- n;
  let value = alloc tape shape in
  Tensor.fill_inplace value 0.0;
  let vd = value.Tensor.data and xd = a.value.Tensor.data in
  Array.iteri (fun j r -> add_row vd (r * w) xd (j * w) w) rows;
  mk1 tape a value (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      Array.iteri (fun j r -> add_row ag (j * w) gd (r * w) w) rows)

let reshape tape a shape =
  let x = a.value in
  if Array.exists (fun d -> d < 0) shape
     || Array.fold_left ( * ) 1 shape <> Tensor.numel x
  then invalid_arg "Autodiff.reshape: size mismatch";
  (* A view of [a]'s buffer: a node's value is read-only while its tape
     lives. *)
  let value = { x with Tensor.shape = Array.copy shape } in
  mk1 tape a value (fun node ->
      add_row (acc_grad a).Tensor.data 0 (acc_grad node).Tensor.data 0
        (Tensor.numel x))

let sum_rows tape a =
  let x = a.value in
  if Array.length x.Tensor.shape <> 2 then
    invalid_arg "Autodiff.sum_rows: expected rank 2";
  let m = x.Tensor.shape.(0) and n = x.Tensor.shape.(1) in
  let value = Tensor.sum_rows_into ~dst:(alloc tape [| m |]) x in
  mk1 tape a value (fun node ->
      let gd = (acc_grad node).Tensor.data in
      let ag = (acc_grad a).Tensor.data in
      for i = 0 to m - 1 do
        let gi = uget gd i in
        let row = i * n in
        for j = 0 to n - 1 do
          uset ag (row + j) (uget ag (row + j) +. gi)
        done
      done)

let sum_all tape a =
  let value = alloc tape [| 1 |] in
  Tensor.set value 0 (Tensor.sum a.value);
  mk1 tape a value (fun node ->
      let g = Tensor.get (acc_grad node) 0 in
      let ag = (acc_grad a).Tensor.data in
      for i = 0 to Tensor.numel a.value - 1 do
        uset ag i (uget ag i +. g)
      done)

let mean_all tape a =
  let n = Tensor.numel a.value in
  scale tape (1.0 /. float_of_int n) (sum_all tape a)

let backward (tape : Tape.t) node =
  if Tensor.numel node.value <> 1 then
    invalid_arg "Autodiff.backward: loss must be a scalar";
  Tensor.Workspace.reset (bw_ws ());
  Tensor.fill_inplace (acc_grad node) 1.0;
  List.iter (fun n -> if n.needs_grad then n.back ()) tape.Tape.nodes

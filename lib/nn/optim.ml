(* The dev profile compiles the library with [-opaque], which hides
   [Tensor]'s implementation from this module: a cross-module
   [Tensor.unsafe_get] stays a real call that boxes its float result.
   The loops below touch every parameter element every step, so they
   fetch the raw buffer once and use the Bigarray primitives, which
   compile to inline loads/stores from any module. *)
let uget (b : Tensor.buf) i : float = Bigarray.Array1.unsafe_get b i
let uset (b : Tensor.buf) i (v : float) = Bigarray.Array1.unsafe_set b i v

(* Adam's hyperparameters (Kingma & Ba's defaults). *)
let beta1 = 0.9
let beta2 = 0.999
let eps = 1e-8

type t = {
  params : Autodiff.Param.t array;
  lr : float;
  m : Tensor.t array;  (* first moments *)
  v : Tensor.t array;  (* second moments *)
  mutable t : int;  (* steps taken *)
}

let adam ~lr params =
  let params = Array.of_list params in
  let moments () =
    Array.map (fun p -> Tensor.zeros (Tensor.dims p.Autodiff.Param.data)) params
  in
  { params; lr; m = moments (); v = moments (); t = 0 }

(* A plain loop, not [Array.iter]: a closure capturing [sq] would box
   the accumulator on every gradient element. *)
let grad_norm params =
  let sq = ref 0.0 in
  for k = 0 to Array.length params - 1 do
    let gd = params.(k).Autodiff.Param.grad.Tensor.data in
    for i = 0 to Bigarray.Array1.dim gd - 1 do
      let g = uget gd i in
      sq := !sq +. (g *. g)
    done
  done;
  sqrt !sq

(* One read pass for the norm, then one sweep that per element scales
   the gradient by the clip factor in a register, applies the update
   and stores +0.0 back, so the next [backward] accumulates from zero.
   The bits equal those of clipping in place ([g *. (max_norm /. norm)])
   and then stepping as separate passes; unclipped, [g *. 1.0] is [g]. *)
let step ?max_grad_norm opt =
  let norm = grad_norm opt.params in
  let k =
    match max_grad_norm with
    | Some max_norm when norm > max_norm && norm > 0.0 -> max_norm /. norm
    | _ -> 1.0
  in
  let lr = opt.lr in
  opt.t <- opt.t + 1;
  let t = float_of_int opt.t in
  let c1 = 1.0 -. beta1 and c2 = 1.0 -. beta2 in
  let bc1 = 1.0 -. (beta1 ** t) in
  let bc2 = 1.0 -. (beta2 ** t) in
  for p = 0 to Array.length opt.params - 1 do
    let param = opt.params.(p) in
    let md = opt.m.(p).Tensor.data and vd = opt.v.(p).Tensor.data in
    let d = param.Autodiff.Param.data.Tensor.data
    and gd = param.Autodiff.Param.grad.Tensor.data in
    for i = 0 to Bigarray.Array1.dim d - 1 do
      let g = uget gd i *. k in
      let mi = (beta1 *. uget md i) +. (c1 *. g) in
      let vi = (beta2 *. uget vd i) +. (c2 *. g *. g) in
      uset md i mi;
      uset vd i vi;
      uset d i (uget d i -. (lr *. (mi /. bc1) /. (sqrt (vi /. bc2) +. eps)));
      uset gd i 0.0
    done
  done;
  norm

let zero_grad opt = Array.iter Autodiff.Param.zero_grad opt.params

(* Adam moments (and the step counter, boxed as a 1-element tensor) as
   named parameters, so checkpoints reuse the Serialize records. *)
let state_params opt step_tensor =
  let wrap prefix arr =
    Array.to_list
      (Array.mapi
         (fun i (p : Autodiff.Param.t) ->
           Autodiff.Param.create (prefix ^ p.Autodiff.Param.name) arr.(i))
         opt.params)
  in
  Autodiff.Param.create "adam.step" step_tensor
  :: (wrap "adam.m." opt.m @ wrap "adam.v." opt.v)

let write_state oc opt =
  let step_tensor = Tensor.of_array [| 1 |] [| float_of_int opt.t |] in
  Serialize.write oc (state_params opt step_tensor)

(* The step counter is stored as a float: anything but a finite,
   non-negative integer would feed NaN or a negative power into the
   bias corrections of the next step. *)
let read_state next opt =
  let step_tensor = Tensor.of_array [| 1 |] [| 0.0 |] in
  match Serialize.read next (state_params opt step_tensor) with
  | Error _ as e -> e
  | Ok () ->
      let s = Tensor.get step_tensor 0 in
      if Float.is_integer s && s >= 0.0 && s < float_of_int max_int then begin
        opt.t <- int_of_float s;
        Ok ()
      end
      else Error (Printf.sprintf "bad adam.step %h: not a non-negative integer" s)

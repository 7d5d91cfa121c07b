(* The dev profile compiles the library with [-opaque], which hides
   [Tensor]'s implementation from this module: a cross-module
   [Tensor.unsafe_get] stays a real call that boxes its float result.
   The loops below touch every parameter element every step, so they
   fetch the raw buffer once and use the Bigarray primitives, which
   compile to inline loads/stores from any module. *)
let uget (b : Tensor.buf) i : float = Bigarray.Array1.unsafe_get b i
let uset (b : Tensor.buf) i (v : float) = Bigarray.Array1.unsafe_set b i v

type algo =
  | Sgd
  | Adam of {
      beta1 : float;
      beta2 : float;
      eps : float;
      m : Tensor.t array;
      v : Tensor.t array;
      mutable t : int;
    }

type t = {
  params : Autodiff.Param.t array;
  lr : float;
  algo : algo;
}

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr params =
  let params = Array.of_list params in
  {
    params;
    lr;
    algo =
      Adam
        {
          beta1;
          beta2;
          eps;
          m = Array.map (fun p -> Tensor.zeros (Tensor.dims p.Autodiff.Param.data)) params;
          v = Array.map (fun p -> Tensor.zeros (Tensor.dims p.Autodiff.Param.data)) params;
          t = 0;
        };
  }

let sgd ~lr params = { params = Array.of_list params; lr; algo = Sgd }

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
  (match opt.algo with
  | Sgd ->
      for p = 0 to Array.length opt.params - 1 do
        let param = opt.params.(p) in
        let d = param.Autodiff.Param.data.Tensor.data
        and gd = param.Autodiff.Param.grad.Tensor.data in
        for i = 0 to Bigarray.Array1.dim d - 1 do
          uset d i (uget d i -. (lr *. (uget gd i *. k)));
          uset gd i 0.0
        done
      done
  | Adam a ->
      a.t <- a.t + 1;
      let t = float_of_int a.t in
      let b1 = a.beta1 and b2 = a.beta2 and eps = a.eps in
      let c1 = 1.0 -. b1 and c2 = 1.0 -. b2 in
      let bc1 = 1.0 -. (b1 ** t) in
      let bc2 = 1.0 -. (b2 ** t) in
      for p = 0 to Array.length opt.params - 1 do
        let param = opt.params.(p) in
        let md = a.m.(p).Tensor.data and vd = a.v.(p).Tensor.data in
        let d = param.Autodiff.Param.data.Tensor.data
        and gd = param.Autodiff.Param.grad.Tensor.data in
        for i = 0 to Bigarray.Array1.dim d - 1 do
          let g = uget gd i *. k in
          let mi = (b1 *. uget md i) +. (c1 *. g) in
          let vi = (b2 *. uget vd i) +. (c2 *. g *. g) in
          uset md i mi;
          uset vd i vi;
          uset d i (uget d i -. (lr *. (mi /. bc1) /. (sqrt (vi /. bc2) +. eps)));
          uset gd i 0.0
        done
      done);
  norm

let zero_grad opt = Array.iter Autodiff.Param.zero_grad opt.params

(* Adam moments (and the step counter, boxed as a 1-element tensor) as
   named parameters, so checkpoints reuse the Serialize format. *)
let state_params opt step_tensor =
  match opt.algo with
  | Sgd -> []
  | Adam a ->
      let wrap prefix arr =
        Array.to_list
          (Array.mapi
             (fun i (p : Autodiff.Param.t) ->
               Autodiff.Param.create (prefix ^ p.Autodiff.Param.name) arr.(i))
             opt.params)
      in
      Autodiff.Param.create "adam.step" step_tensor
      :: (wrap "adam.m." a.m @ wrap "adam.v." a.v)

let save opt path =
  let step_tensor =
    Tensor.of_array [| 1 |]
      [| (match opt.algo with Sgd -> 0.0 | Adam a -> float_of_int a.t) |]
  in
  Serialize.save_params path (state_params opt step_tensor)

(* The step counter is stored as a float: anything but a finite,
   non-negative integer would feed NaN or a negative power into the
   bias corrections of the next step. *)
let load opt path =
  let step_tensor = Tensor.of_array [| 1 |] [| 0.0 |] in
  match Serialize.load_params path (state_params opt step_tensor) with
  | Error _ as e -> e
  | Ok () -> (
      match opt.algo with
      | Sgd -> Ok ()
      | Adam a ->
          let s = Tensor.get step_tensor 0 in
          if Float.is_integer s && s >= 0.0 && s < float_of_int max_int then begin
            a.t <- int_of_float s;
            Ok ()
          end
          else Error (Printf.sprintf "bad adam.step %h: not a non-negative integer" s))

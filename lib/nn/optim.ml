(* Without flambda a cross-module [Tensor.unsafe_get] is a real call
   that boxes its float result. The loops below touch every parameter
   element every step, so they fetch the raw buffer once and use the
   Bigarray primitives, which compile to inline loads/stores from any
   module. *)
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
  mutable lr : float;
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

let step opt =
  match opt.algo with
  | Sgd ->
      Array.iter
        (fun (p : Autodiff.Param.t) ->
          let d = p.data.Tensor.data and g = p.grad.Tensor.data in
          for i = 0 to Tensor.numel p.data - 1 do
            uset d i (uget d i -. (opt.lr *. uget g i))
          done)
        opt.params
  | Adam a ->
      a.t <- a.t + 1;
      let t = float_of_int a.t in
      let bc1 = 1.0 -. (a.beta1 ** t) in
      let bc2 = 1.0 -. (a.beta2 ** t) in
      Array.iteri
        (fun k (p : Autodiff.Param.t) ->
          let md = a.m.(k).Tensor.data and vd = a.v.(k).Tensor.data in
          let d = p.data.Tensor.data and gd = p.grad.Tensor.data in
          for i = 0 to Tensor.numel p.data - 1 do
            let g = uget gd i in
            let mi = (a.beta1 *. uget md i) +. ((1.0 -. a.beta1) *. g) in
            let vi = (a.beta2 *. uget vd i) +. ((1.0 -. a.beta2) *. g *. g) in
            uset md i mi;
            uset vd i vi;
            let m_hat = mi /. bc1 in
            let v_hat = vi /. bc2 in
            uset d i (uget d i -. (opt.lr *. m_hat /. (sqrt v_hat +. a.eps)))
          done)
        opt.params

let zero_grad opt = Array.iter Autodiff.Param.zero_grad opt.params

let set_lr opt lr = opt.lr <- lr

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

let load opt path =
  let step_tensor = Tensor.of_array [| 1 |] [| 0.0 |] in
  match Serialize.load_params path (state_params opt step_tensor) with
  | Error _ as e -> e
  | Ok () ->
      (match opt.algo with
      | Sgd -> ()
      | Adam a -> a.t <- int_of_float (Tensor.get step_tensor 0));
      Ok ()

let clip_grad_norm opt max_norm =
  (* A plain loop, not [Array.iter]: a closure capturing [sq] would box
     the accumulator on every gradient element. *)
  let sq = ref 0.0 in
  for k = 0 to Array.length opt.params - 1 do
    let gd = opt.params.(k).Autodiff.Param.grad.Tensor.data in
    for i = 0 to Bigarray.Array1.dim gd - 1 do
      let g = uget gd i in
      sq := !sq +. (g *. g)
    done
  done;
  let norm = sqrt !sq in
  if norm > max_norm && norm > 0.0 then begin
    let k = max_norm /. norm in
    Array.iter (fun (p : Autodiff.Param.t) -> Tensor.scale_inplace p.grad k) opt.params
  end;
  norm

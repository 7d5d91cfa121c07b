(* The reference optimizer: [Optim] as separate passes, the way it ran
   before the one-sweep step — [zero_grad] before backward, a
   [clip_grad_norm] pass that scales the gradients in place, then a
   [step] that reads them again, with Adam's constants recomputed per
   parameter. Written for clarity, not speed. [Optim.step
   ~max_grad_norm] must leave the same weights and write the same
   [save] bytes (test_nn.ml, "optimizer step matches the multi-pass
   reference"). *)

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

type t = { params : Autodiff.Param.t array; lr : float; algo : algo }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr params =
  let params = Array.of_list params in
  let zeros () =
    Array.map (fun p -> Tensor.zeros (Tensor.dims p.Autodiff.Param.data)) params
  in
  { params; lr; algo = Adam { beta1; beta2; eps; m = zeros (); v = zeros (); t = 0 } }

let sgd ~lr params = { params = Array.of_list params; lr; algo = Sgd }

let zero_grad opt = Array.iter Autodiff.Param.zero_grad opt.params

let clip_grad_norm opt max_norm =
  let sq = ref 0.0 in
  Array.iter
    (fun (p : Autodiff.Param.t) ->
      Array.iter (fun g -> sq := !sq +. (g *. g)) (Tensor.to_array p.grad))
    opt.params;
  let norm = sqrt !sq in
  if norm > max_norm && norm > 0.0 then begin
    let k = max_norm /. norm in
    Array.iter (fun (p : Autodiff.Param.t) -> Tensor.scale_inplace p.grad k) opt.params
  end;
  norm

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

(* The checkpoint layout [Optim.save] writes: the step counter as a
   1-element tensor, then the first and second moments per parameter. *)
let save opt path =
  let state =
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
        Autodiff.Param.create "adam.step" (Tensor.scalar (float_of_int a.t))
        :: (wrap "adam.m." a.m @ wrap "adam.v." a.v)
  in
  Serialize.save_params path state

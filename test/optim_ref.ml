(* The reference optimizer: [Optim] as separate passes, the way it ran
   before the one-sweep step — [zero_grad] before backward, a
   [clip_grad_norm] pass that scales the gradients in place, then a
   [step] that reads them again, with Adam's constants recomputed per
   parameter. Written for clarity, not speed. [Optim.step
   ~max_grad_norm] must leave the same weights and write the same
   [write_state] bytes (test_nn.ml, "optimizer step matches the multi-pass
   reference"). *)

let uget (b : Tensor.buf) i : float = Bigarray.Array1.unsafe_get b i
let uset (b : Tensor.buf) i (v : float) = Bigarray.Array1.unsafe_set b i v

let beta1 = 0.9
let beta2 = 0.999
let eps = 1e-8

type t = {
  params : Autodiff.Param.t array;
  lr : float;
  m : Tensor.t array;
  v : Tensor.t array;
  mutable t : int;
}

let adam ~lr params =
  let params = Array.of_list params in
  let zeros () =
    Array.map (fun p -> Tensor.zeros (Tensor.dims p.Autodiff.Param.data)) params
  in
  { params; lr; m = zeros (); v = zeros (); t = 0 }

let zero_grad opt = Array.iter Autodiff.Param.zero_grad opt.params

let clip_grad_norm opt max_norm =
  let sq = ref 0.0 in
  Array.iter
    (fun (p : Autodiff.Param.t) ->
      Array.iter (fun g -> sq := !sq +. (g *. g)) (Test_helpers.tensor_to_array p.grad))
    opt.params;
  let norm = sqrt !sq in
  if norm > max_norm && norm > 0.0 then begin
    let k = max_norm /. norm in
    Array.iter
      (fun (p : Autodiff.Param.t) ->
        let g = p.grad.Tensor.data in
        for i = 0 to Tensor.numel p.grad - 1 do
          uset g i (uget g i *. k)
        done)
      opt.params
  end;
  norm

let step opt =
  opt.t <- opt.t + 1;
  let t = float_of_int opt.t in
  let bc1 = 1.0 -. (beta1 ** t) in
  let bc2 = 1.0 -. (beta2 ** t) in
  Array.iteri
    (fun k (p : Autodiff.Param.t) ->
      let md = opt.m.(k).Tensor.data and vd = opt.v.(k).Tensor.data in
      let d = p.data.Tensor.data and gd = p.grad.Tensor.data in
      for i = 0 to Tensor.numel p.data - 1 do
        let g = uget gd i in
        let mi = (beta1 *. uget md i) +. ((1.0 -. beta1) *. g) in
        let vi = (beta2 *. uget vd i) +. ((1.0 -. beta2) *. g *. g) in
        uset md i mi;
        uset vd i vi;
        let m_hat = mi /. bc1 in
        let v_hat = vi /. bc2 in
        uset d i (uget d i -. (opt.lr *. m_hat /. (sqrt v_hat +. eps)))
      done)
    opt.params

(* The checkpoint section [Optim.write_state] writes: the step counter
   as a 1-element tensor, then the first and second moments per
   parameter. *)
let write_state oc opt =
  let wrap prefix arr =
    Array.to_list
      (Array.mapi
         (fun i (p : Autodiff.Param.t) ->
           Autodiff.Param.create (prefix ^ p.Autodiff.Param.name) arr.(i))
         opt.params)
  in
  Serialize.write oc
    (Autodiff.Param.create "adam.step" (Tensor.of_array [| 1 |] [| float_of_int opt.t |])
    :: (wrap "adam.m." opt.m @ wrap "adam.v." opt.v))

let mask_penalty = -1e9

(* The Bigarray primitives, not [Tensor.unsafe_get] and the like: the
   dev profile compiles the library with [-opaque], which keeps those
   cross-module calls real calls that box each float. The loops below
   run once per element of every masked row, so they fetch the raw
   buffer once and load and store inline. *)
let uget (b : Tensor.buf) i : float = Bigarray.Array1.unsafe_get b i
let uset (b : Tensor.buf) i (v : float) = Bigarray.Array1.unsafe_set b i v

let masked_log_probs tape logits ~mask =
  let v = Autodiff.value logits in
  if Array.length v.Tensor.shape <> 2 then
    invalid_arg "Distributions.masked_log_probs: expected rank 2";
  let m = v.Tensor.shape.(0) and k = v.Tensor.shape.(1) in
  if Array.length mask <> m then
    invalid_arg "Distributions.masked_log_probs: one mask row per batch row";
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Distributions.masked_log_probs: mask arity mismatch";
      if not (Array.exists (fun b -> b) row) then
        invalid_arg "Distributions.masked_log_probs: empty action mask")
    mask;
  let penalty =
    match Autodiff.Tape.ws tape with
    | None -> Tensor.zeros [| m; k |]
    | Some ws ->
        let t = Tensor.Workspace.get ws [| m; k |] in
        Tensor.fill_inplace t 0.0;
        t
  in
  let pdata = penalty.Tensor.data in
  for i = 0 to m - 1 do
    let row = i * k and mrow = mask.(i) in
    for j = 0 to k - 1 do
      if not (Array.unsafe_get mrow j) then uset pdata (row + j) mask_penalty
    done
  done;
  let masked = Autodiff.add tape logits (Autodiff.const tape penalty) in
  Autodiff.log_softmax tape masked

let masked_log_probs_values ?ws logits ~mask =
  if Array.length logits.Tensor.shape <> 2 then
    invalid_arg "Distributions.masked_log_probs: expected rank 2";
  let m = logits.Tensor.shape.(0) and k = logits.Tensor.shape.(1) in
  if Array.length mask <> m then
    invalid_arg "Distributions.masked_log_probs: one mask row per batch row";
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Distributions.masked_log_probs: mask arity mismatch";
      if not (Array.exists (fun b -> b) row) then
        invalid_arg "Distributions.masked_log_probs: empty action mask")
    mask;
  (* Same numerics as the tape path: add the penalty, then the row-wise
     max-shift log-softmax of [Autodiff.log_softmax], in the same
     accumulation order, so batched inference log-probs are bit-equal to
     the training-time values. The masked logit row is staged once in a
     scratch buffer (it is a pure function of the inputs, so reading the
     staged value three times equals recomputing it three times). *)
  let out =
    match ws with
    | Some ws -> Tensor.Workspace.get ws [| m; k |]
    | None -> Tensor.zeros [| m; k |]
  in
  let masked = Array.make k 0.0 in
  let ldata = logits.Tensor.data and odata = out.Tensor.data in
  for i = 0 to m - 1 do
    let row = i * k and mrow = mask.(i) in
    for j = 0 to k - 1 do
      Array.unsafe_set masked j
        (uget ldata (row + j)
        +. if Array.unsafe_get mrow j then 0.0 else mask_penalty)
    done;
    let row_max = ref neg_infinity in
    for j = 0 to k - 1 do
      row_max := Float.max !row_max (Array.unsafe_get masked j)
    done;
    let sum = ref 0.0 in
    for j = 0 to k - 1 do
      sum := !sum +. exp (Array.unsafe_get masked j -. !row_max)
    done;
    let log_z = !row_max +. log !sum in
    for j = 0 to k - 1 do
      uset odata (row + j) (Array.unsafe_get masked j -. log_z)
    done
  done;
  out

let sample rng log_probs row =
  let k = log_probs.Tensor.shape.(1) in
  let base = row * k in
  let data = log_probs.Tensor.data in
  let u = Util.Rng.uniform rng in
  let acc = ref 0.0 in
  let chosen = ref (k - 1) in
  (try
     for j = 0 to k - 1 do
       acc := !acc +. exp (uget data (base + j));
       if u < !acc then begin
         chosen := j;
         raise Exit
       end
     done
   with Exit -> ());
  !chosen

let sample_tempered rng log_probs row ~temperature =
  if temperature <= 0.0 then
    invalid_arg "Distributions.sample_tempered: temperature must be positive";
  let k = log_probs.Tensor.shape.(1) in
  let base = row * k in
  let data = log_probs.Tensor.data in
  (* renormalize exp(lp / T) with a max-shift for stability *)
  let row_max = ref neg_infinity in
  for j = 0 to k - 1 do
    row_max := Float.max !row_max (uget data (base + j) /. temperature)
  done;
  let z = ref 0.0 in
  let weights = Array.make k 0.0 in
  for j = 0 to k - 1 do
    let w = exp ((uget data (base + j) /. temperature) -. !row_max) in
    weights.(j) <- w;
    z := !z +. w
  done;
  let u = Util.Rng.uniform rng *. !z in
  let acc = ref 0.0 in
  let chosen = ref (k - 1) in
  (try
     for j = 0 to k - 1 do
       acc := !acc +. weights.(j);
       if u < !acc then begin
         chosen := j;
         raise Exit
       end
     done
   with Exit -> ());
  !chosen

let argmax log_probs row = Tensor.argmax_row log_probs row

let log_prob_of tape log_probs actions =
  Autodiff.gather_cols tape log_probs actions

let entropy tape log_probs =
  (* H = -sum_j p_j log p_j with p = exp(log p). *)
  let p = Autodiff.exp_ tape log_probs in
  Autodiff.neg tape (Autodiff.sum_rows tape (Autodiff.mul tape p log_probs))

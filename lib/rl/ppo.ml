type config = {
  learning_rate : float;
  batch_size : int;
  minibatch_size : int;
  entropy_coef : float;
}

let default_config =
  { learning_rate = 1e-3; batch_size = 64; minibatch_size = 64; entropy_coef = 0.01 }

(* The paper's remaining hyperparameters (§5.1.3, DESIGN.md §1). *)
let clip_range = 0.2
let gamma = 0.99
let gae_lambda = 0.95
let epochs = 4
let value_coef = 0.5
let max_grad_norm = 0.5

type evaluation = {
  log_prob : Autodiff.node;
  entropy : Autodiff.node;
  value : Autodiff.node;
}

type 'sample policy = {
  evaluate : Autodiff.Tape.t -> 'sample array -> evaluation;
  params : Autodiff.Param.t list;
}

type 'sample transition = {
  sample : 'sample;
  reward : float;
  value : float;
  log_prob : float;
  terminal : bool;
}

type stats = {
  policy_loss : float;
  value_loss : float;
  entropy_mean : float;
  approx_kl : float;
  clip_fraction : float;
  grad_norm : float;
}

(* Arena behind the per-minibatch tapes: the op sequence repeats every
   minibatch (same network), so after the first one a whole
   evaluate/backward cycle runs without allocating. Reset by
   [Tape.create]; all stats escape as scalars before the next reset.
   Per-domain, though updates only ever run on the main domain. *)
let tape_ws_key = Domain.DLS.new_key Tensor.Workspace.create

let update config policy optimizer transitions ~rng =
  let n = Array.length transitions in
  if n = 0 then invalid_arg "Ppo.update: empty batch";
  let gae_steps =
    Array.map
      (fun (t : _ transition) ->
        { Gae.reward = t.reward; value = t.value; terminal = t.terminal })
      transitions
  in
  let advantages, returns =
    Gae.advantages ~gamma ~lambda:gae_lambda gae_steps
  in
  let advantages = Gae.normalize advantages in
  let indices = Array.init n (fun i -> i) in
  (* [Optim.step] leaves the gradients zeroed for the next minibatch;
     only the first one needs a clean start. *)
  Optim.zero_grad optimizer;
  let stat_policy = ref 0.0
  and stat_value = ref 0.0
  and stat_entropy = ref 0.0
  and stat_kl = ref 0.0
  and stat_clip = ref 0.0
  and stat_gnorm = ref 0.0
  and stat_count = ref 0 in
  for _epoch = 1 to epochs do
    Util.Rng.shuffle rng indices;
    let pos = ref 0 in
    while !pos < n do
      let size = min config.minibatch_size (n - !pos) in
      let batch_idx = Array.sub indices !pos size in
      pos := !pos + size;
      let samples =
        Array.map (fun i -> transitions.(i).sample) batch_idx
      in
      let old_logp =
        Tensor.init [| size |] (fun j -> transitions.(batch_idx.(j)).log_prob)
      in
      let adv = Tensor.init [| size |] (fun j -> advantages.(batch_idx.(j))) in
      let ret = Tensor.init [| size |] (fun j -> returns.(batch_idx.(j))) in
      let tape = Autodiff.Tape.create ~ws:(Domain.DLS.get tape_ws_key) () in
      let ev = policy.evaluate tape samples in
      (* ratio = exp(logp - old_logp) *)
      let diff = Autodiff.sub tape ev.log_prob (Autodiff.const tape old_logp) in
      let ratio = Autodiff.exp_ tape diff in
      let adv_node = Autodiff.const tape adv in
      let unclipped = Autodiff.mul tape ratio adv_node in
      let clipped =
        Autodiff.mul tape
          (Autodiff.clamp tape ~lo:(1.0 -. clip_range) ~hi:(1.0 +. clip_range) ratio)
          adv_node
      in
      let surrogate = Autodiff.min_ tape unclipped clipped in
      let policy_loss =
        Autodiff.neg tape (Autodiff.mean_all tape surrogate)
      in
      let value_err = Autodiff.sub tape ev.value (Autodiff.const tape ret) in
      let value_loss = Autodiff.mean_all tape (Autodiff.square tape value_err) in
      let entropy_mean = Autodiff.mean_all tape ev.entropy in
      let loss =
        Autodiff.sub tape
          (Autodiff.add tape policy_loss
             (Autodiff.scale tape value_coef value_loss))
          (Autodiff.scale tape config.entropy_coef entropy_mean)
      in
      Autodiff.backward tape loss;
      let gnorm = Optim.step ~max_grad_norm optimizer in
      (* statistics *)
      let ratio_v = Autodiff.value ratio in
      let kl = ref 0.0 and clipfrac = ref 0 in
      for i = 0 to size - 1 do
        let r = Tensor.unsafe_get ratio_v i in
        (* approx KL: (r - 1) - log r *)
        kl := !kl +. (r -. 1.0 -. log (Float.max r 1e-12));
        if Float.abs (r -. 1.0) > clip_range then incr clipfrac
      done;
      stat_policy := !stat_policy +. Tensor.get (Autodiff.value policy_loss) 0;
      stat_value := !stat_value +. Tensor.get (Autodiff.value value_loss) 0;
      stat_entropy := !stat_entropy +. Tensor.get (Autodiff.value entropy_mean) 0;
      stat_kl := !stat_kl +. (!kl /. float_of_int size);
      stat_clip := !stat_clip +. (float_of_int !clipfrac /. float_of_int size);
      stat_gnorm := !stat_gnorm +. gnorm;
      incr stat_count
    done
  done;
  let c = float_of_int (max 1 !stat_count) in
  {
    policy_loss = !stat_policy /. c;
    value_loss = !stat_value /. c;
    entropy_mean = !stat_entropy /. c;
    approx_kl = !stat_kl /. c;
    clip_fraction = !stat_clip /. c;
    grad_norm = !stat_gnorm /. c;
  }

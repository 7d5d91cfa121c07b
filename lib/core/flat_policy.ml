type sample = { f_obs : float array; f_choice : int; f_mask : bool array }

type t = {
  menu : Action_space.simple_item array;
  backbone : Layers.mlp;
  head : Layers.mlp;
  value_net : Layers.mlp;
}

let create ?(hidden = 512) ?(backbone_layers = 4) rng (cfg : Env_config.t)
    ~n_loops =
  let obs_dim = Env_config.obs_dim cfg in
  let menu = Action_space.simple_menu cfg ~n_loops in
  let k = Array.length menu in
  {
    menu;
    backbone =
      Layers.mlp rng
        ~dims:(obs_dim :: List.init backbone_layers (fun _ -> hidden))
        "flat_backbone";
    head = Layers.mlp rng ~dims:[ hidden; hidden; k ] "flat_head";
    value_net =
      Layers.mlp rng
        ~dims:(obs_dim :: List.init backbone_layers (fun _ -> hidden) @ [ 1 ])
        "flat_value";
  }

let menu t = t.menu

let params t =
  Layers.mlp_params t.backbone
  @ Layers.mlp_params t.head
  @ Layers.mlp_params t.value_net

let obs_tensor_of_rows = Policy.obs_tensor_of_rows

let forward tape t obs_tensor =
  let obs = Autodiff.const tape obs_tensor in
  let feat = Autodiff.relu tape (Layers.forward_mlp tape t.backbone obs) in
  let logits = Layers.forward_mlp tape t.head feat in
  let value = Layers.forward_mlp tape t.value_net obs in
  (logits, value)

(* Per-domain workspace for the tape-free paths; reset per call, every
   escaping result extracted as a scalar before return (see Policy). *)
let ws_key = Domain.DLS.new_key Tensor.Workspace.create

(* Tape-free sampling: row [i] draws its menu index from [rngs.(i)].
   Row-independent kernels make a batched call bit-equal to singleton
   calls (see Policy). *)
let act_batch rngs t ~obs ~masks =
  let b = Array.length obs in
  if Array.length rngs <> b || Array.length masks <> b then
    invalid_arg "Flat_policy.act_batch: obs/masks/rngs length mismatch";
  let ws = Domain.DLS.get ws_key in
  Tensor.Workspace.reset ws;
  let obs_t = obs_tensor_of_rows ~ws obs in
  let out = Layers.forward_batch ~ws t.backbone obs_t in
  let logits = Layers.forward_batch ~ws t.head (Tensor.relu_into ~dst:out out) in
  let mask = Array.map Policy.safe_row masks in
  let lp = Distributions.masked_log_probs_values ~ws logits ~mask in
  let values = Layers.forward_batch ~ws t.value_net obs_t in
  Array.init b (fun i ->
      let c = Distributions.sample rngs.(i) lp i in
      (c, Tensor.get2 lp i c, Tensor.get2 values i 0))

let evaluate t tape (samples : sample array) =
  let b = Array.length samples in
  let obs =
    obs_tensor_of_rows
      ?ws:(Autodiff.Tape.ws tape)
      (Array.map (fun s -> s.f_obs) samples)
  in
  let logits, value = forward tape t obs in
  let mask = Array.map (fun s -> Policy.safe_row s.f_mask) samples in
  let lp = Distributions.masked_log_probs tape logits ~mask in
  let log_prob =
    Distributions.log_prob_of tape lp (Array.map (fun s -> s.f_choice) samples)
  in
  let entropy = Distributions.entropy tape lp in
  let value = Autodiff.gather_cols tape value (Array.make b 0) in
  { Ppo.log_prob; entropy; value }

let ppo_policy t =
  { Ppo.evaluate = (fun tape samples -> evaluate t tape samples); params = params t }

type sample = {
  s_obs : float array;
  s_action : Action_space.hierarchical;
  s_masks : Action_space.masks;
}

(* A branch of the hierarchy (paper §4.2): the transformation that
   selects it, its head, and the [segments] distributions its output
   row splits into — a tile size per loop for tiling and
   parallelization, one swap for interchange. [seg_masks] and [choices]
   read a row's per-segment masks and stored choices; [action] builds
   the action from the chosen segments. *)
type branch = {
  transform : int;
  head : Layers.mlp;
  segments : int;
  seg_masks : Action_space.masks -> bool array array;
  choices : Action_space.hierarchical -> int array;
  action : int array -> Action_space.hierarchical;
}

type t = {
  cfg : Env_config.t;
  backbone : Layers.mlp;
  t_head : Layers.mlp;
  branches : branch list;  (* tiling, parallelization, interchange *)
  value_net : Layers.mlp;
}

let create ?(hidden = 512) ?(backbone_layers = 4) rng (cfg : Env_config.t) =
  let n = cfg.Env_config.n_max in
  let dims = Env_config.obs_dim cfg :: List.init backbone_layers (fun _ -> hidden) in
  let head out name = Layers.mlp rng ~dims:[ hidden; hidden; out ] name in
  let tiling transform name seg_masks =
    let head = head (n * Env_config.n_tile_choices cfg) name in
    let action cs = { Action_space.transform; tile_choices = cs; swap_choice = 0 } in
    let choices a = a.Action_space.tile_choices in
    { transform; head; segments = n; seg_masks; choices; action }
  in
  (* [rng] draws the value net's weights first and the backbone's last,
     the order every existing checkpoint was seeded in. *)
  let value_net = Layers.mlp rng ~dims:(dims @ [ 1 ]) "value_net" in
  let swap =
    let transform = Action_space.t_interchange in
    let action cs =
      { Action_space.transform; tile_choices = Array.make n 0; swap_choice = cs.(0) }
    in
    let seg_masks ms = [| ms.Action_space.swap_mask |] in
    let choices a = [| a.Action_space.swap_choice |] in
    let head = head n "interchange_head" in
    { transform; head; segments = 1; seg_masks; choices; action }
  in
  let par =
    tiling Action_space.t_parallelize "parallel_head" (fun ms -> ms.Action_space.par_mask)
  in
  let tile =
    tiling Action_space.t_tile "tiling_head" (fun ms -> ms.Action_space.tile_mask)
  in
  let t_head = head Env_config.n_transformations "transform_head" in
  let backbone = Layers.mlp rng ~dims "backbone" in
  { cfg; backbone; t_head; branches = [ tile; par; swap ]; value_net }

let params t =
  List.concat_map Layers.mlp_params
    ((t.backbone :: t.t_head :: List.map (fun br -> br.head) t.branches)
    @ [ t.value_net ])

let param_count t = Layers.param_count (params t)

(* A mask row that is safe to feed to log-softmax: force index 0 on
   when everything is masked. *)
let safe_row row =
  if Array.exists (fun b -> b) row then row
  else begin
    let r = Array.copy row in
    r.(0) <- true;
    r
  end

let obs_tensor_of_rows ?ws rows =
  let b = Array.length rows in
  let d = Array.length rows.(0) in
  let t =
    match ws with
    | Some ws -> Tensor.Workspace.get ws [| b; d |]
    | None -> Tensor.zeros [| b; d |]
  in
  for i = 0 to b - 1 do
    let row = rows.(i) in
    if Array.length row <> d then
      invalid_arg "Policy.obs_tensor_of_rows: ragged observation rows";
    let base = i * d in
    (* The Bigarray primitive, not a [Tensor] setter: under the dev
       profile's [-opaque] a cross-module call boxes each float it
       stores. *)
    let data = t.Tensor.data in
    for j = 0 to d - 1 do
      Bigarray.Array1.unsafe_set data (base + j) (Array.unsafe_get row j)
    done
  done;
  t

(* -- branch-gathered heads --

   The joint log-probability of an action is the transformation's plus
   the chosen branch's, so a branch head runs only on the rows that
   chose it: their backbone features are gathered in ascending row
   order, and the head's [segments] distributions per row are read as
   one [rows * segments; width] log-softmax, row [j * segments + l]
   being segment [l] of gathered row [j]. Sampling, greedy decoding and
   the PPO update share this layout. The bytes equal those of running
   every head on every row: a row outside a branch only ever added an
   exact +-0.0 to a sum (docs/performance.md, "Branch-gathered
   heads"). *)

let rows_taking transform tis =
  List.filter (fun i -> tis.(i) = transform) (List.init (Array.length tis) Fun.id)
  |> Array.of_list

let segment_masks br rows masks_of =
  let s = br.segments in
  Array.init (Array.length rows * s) (fun r ->
      safe_row (br.seg_masks (masks_of rows.(r / s))).(r mod s))

let evaluate t tape (samples : sample array) =
  let b = Array.length samples in
  let obs =
    obs_tensor_of_rows ?ws:(Autodiff.Tape.ws tape) (Array.map (fun s -> s.s_obs) samples)
  in
  let obs = Autodiff.const tape obs in
  let feat = Autodiff.relu tape (Layers.forward_mlp tape t.backbone obs) in
  (* The chosen log-probabilities go on the tape before the entropy:
     both add into [lp]'s gradient, in reverse tape order, so this
     order is part of the trained bytes. *)
  let score logits ~mask ~choices =
    let lp = Distributions.masked_log_probs tape logits ~mask in
    let chosen = Distributions.log_prob_of tape lp choices in
    let ent = Distributions.entropy tape lp in
    (chosen, ent)
  in
  let tis = Array.map (fun s -> s.s_action.Action_space.transform) samples in
  let t_mask = Array.map (fun s -> safe_row s.s_masks.Action_space.t_mask) samples in
  let joint = score (Layers.forward_mlp tape t.t_head feat) ~mask:t_mask ~choices:tis in
  let add_branch (log_prob, entropy) br =
    let rows = rows_taking br.transform tis in
    let k = Array.length rows and s = br.segments in
    if k = 0 then (log_prob, entropy)
    else begin
      let feat_k = Autodiff.gather_rows tape feat rows in
      let logits = Layers.forward_mlp tape br.head feat_k in
      let width = (Autodiff.value logits).Tensor.shape.(1) / s in
      let choices =
        Array.init (k * s) (fun r ->
            (br.choices samples.(rows.(r / s)).s_action).(r mod s))
      in
      let chosen, ent =
        score
          (Autodiff.reshape tape logits [| k * s; width |])
          ~mask:(segment_masks br rows (fun i -> samples.(i).s_masks))
          ~choices
      in
      (* each row's segment sum, put back at the row's batch position *)
      let per_row x =
        let sums = Autodiff.sum_rows tape (Autodiff.reshape tape x [| k; s |]) in
        Autodiff.scatter_rows tape sums rows ~n:b
      in
      let log_prob = Autodiff.add tape log_prob (per_row chosen) in
      (log_prob, Autodiff.add tape entropy (per_row ent))
    end
  in
  let log_prob, entropy = List.fold_left add_branch joint t.branches in
  let value = Autodiff.reshape tape (Layers.forward_mlp tape t.value_net obs) [| b |] in
  { Ppo.log_prob; entropy; value }

let ppo_policy t =
  { Ppo.evaluate = (fun tape samples -> evaluate t tape samples); params = params t }

let save t path = Serialize.save_params path (params t)
let load t path = Serialize.load_params path (params t)

(* -- batched, tape-free inference --

   The rollout engine and the server advance a slab of episodes in
   lockstep and ask for all their next actions at once; stacking the
   observations into one matrix amortizes the forward pass. Every
   kernel here is row-independent with the single-row accumulation
   order, and row [i] decides its transformation, then its branch's
   segments in order, drawing only from its own rng — so a batched call
   is bit-equal to singleton calls on each row, whichever rows share
   the batch.

   Intermediates live in a per-domain workspace, reset at the top of
   each call; every escaping result is extracted as a scalar first. *)

let ws_key = Domain.DLS.new_key Tensor.Workspace.create

(* The one tape-free routine: [pick i lp r] decides row [i] of the batch
   from row [r] of the masked log-probs [lp] — a draw from row [i]'s
   rng, or the argmax. Returns the actions, their joint
   log-probabilities and, when [value], the value estimates. *)
let decide t ~obs ~masks ~pick ~value =
  let b = Array.length obs in
  if Array.length masks <> b then invalid_arg "Policy: obs/masks length mismatch";
  let ws = Domain.DLS.get ws_key in
  Tensor.Workspace.reset ws;
  let obs_t = obs_tensor_of_rows ~ws obs in
  let out = Layers.forward_batch ~ws t.backbone obs_t in
  (* With at least one backbone layer, [out] is a workspace activation,
     not the observation matrix: the in-place ReLU cannot clobber it. *)
  assert (t.backbone.Layers.layers <> []);
  let feat = Tensor.relu_into ~dst:out out in
  let t_mask = Array.map (fun ms -> safe_row ms.Action_space.t_mask) masks in
  let t_logits = Layers.forward_batch ~ws t.t_head feat in
  let t_lp = Distributions.masked_log_probs_values ~ws t_logits ~mask:t_mask in
  let tis = Array.init b (fun i -> pick i t_lp i) in
  let logps = Array.init b (fun i -> Tensor.get2 t_lp i tis.(i)) in
  let n = t.cfg.Env_config.n_max in
  let actions =
    Array.map
      (fun transform ->
        { Action_space.transform; tile_choices = Array.make n 0; swap_choice = 0 })
      tis
  in
  let decide_branch br =
    let rows = rows_taking br.transform tis in
    let k = Array.length rows and s = br.segments in
    if k > 0 then begin
      let dst = Tensor.Workspace.get ws [| k; feat.Tensor.shape.(1) |] in
      let feat_k = Tensor.gather_rows_into ~dst feat rows in
      let logits = Layers.forward_batch ~ws br.head feat_k in
      (* the [k; segments * width] output viewed as [k * segments; width] *)
      let width = logits.Tensor.shape.(1) / s in
      let logits = { logits with Tensor.shape = [| k * s; width |] } in
      let mask = segment_masks br rows (fun i -> masks.(i)) in
      let lp = Distributions.masked_log_probs_values ~ws logits ~mask in
      Array.iteri
        (fun j i ->
          let cs = Array.make s 0 in
          for l = 0 to s - 1 do
            let r = (j * s) + l in
            cs.(l) <- pick i lp r;
            logps.(i) <- logps.(i) +. Tensor.get2 lp r cs.(l)
          done;
          actions.(i) <- br.action cs)
        rows
    end
  in
  List.iter decide_branch t.branches;
  let values =
    if not value then [||]
    else begin
      let v = Layers.forward_batch ~ws t.value_net obs_t in
      Array.init b (fun i -> Tensor.get2 v i 0)
    end
  in
  (actions, logps, values)

let act_batch ?(temperature = 1.0) rngs t ~obs ~masks =
  if Array.length rngs <> Array.length obs then
    invalid_arg "Policy.act_batch: obs/rngs length mismatch";
  let draw i lp r =
    if temperature = 1.0 then Distributions.sample rngs.(i) lp r
    else Distributions.sample_tempered rngs.(i) lp r ~temperature
  in
  let actions, logps, values = decide t ~obs ~masks ~pick:draw ~value:true in
  Array.mapi (fun i a -> (a, logps.(i), values.(i))) actions

let act ?temperature rng t ~obs ~masks =
  (act_batch ?temperature [| rng |] t ~obs:[| obs |] ~masks:[| masks |]).(0)

(* Greedy serving never runs the value net. *)
let act_greedy_batch t ~obs ~masks =
  let argmax _ lp r = Distributions.argmax lp r in
  let actions, _, _ = decide t ~obs ~masks ~pick:argmax ~value:false in
  actions

let act_greedy t ~obs ~masks =
  (act_greedy_batch t ~obs:[| obs |] ~masks:[| masks |]).(0)

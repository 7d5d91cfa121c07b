(* Multi-action policy network: action validity, log-prob consistency
   between sampling and batch re-evaluation, and the flat ablation
   policy. *)

let cfg = Env_config.default

let test_action_within_masks () =
  let rng = Util.Rng.create 31 in
  let policy = Policy.create ~hidden:16 ~backbone_layers:2 rng cfg in
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let obs = Observation.extract cfg st in
  let masks = Action_space.masks cfg st in
  for _ = 1 to 100 do
    let action, _, _ = Policy.act rng policy ~obs ~masks in
    Alcotest.(check bool) "transform allowed" true
      masks.Action_space.t_mask.(action.Action_space.transform);
    if action.Action_space.transform = Action_space.t_tile then
      Array.iteri
        (fun l c ->
          Alcotest.(check bool) "tile choice masked" true
            masks.Action_space.tile_mask.(l).(c))
        action.Action_space.tile_choices;
    if action.Action_space.transform = Action_space.t_parallelize then
      Array.iteri
        (fun l c ->
          Alcotest.(check bool) "par choice masked" true
            masks.Action_space.par_mask.(l).(c))
        action.Action_space.tile_choices;
    if action.Action_space.transform = Action_space.t_interchange then
      Alcotest.(check bool) "swap masked" true
        masks.Action_space.swap_mask.(action.Action_space.swap_choice)
  done

(* A mixed batch: distinct real env states and the actions [act_batch]
   samples for them, with rows in every branch. *)
let mixed_samples policy =
  let states = Test_helpers.policy_states cfg policy in
  let obs = Array.map fst states and masks = Array.map snd states in
  let rngs = Array.mapi (fun i _ -> Util.Rng.create (500 + i)) states in
  let acted = Policy.act_batch rngs policy ~obs ~masks in
  let samples =
    Array.mapi
      (fun i (action, _, _) ->
        { Policy.s_obs = obs.(i); s_action = action; s_masks = masks.(i) })
      acted
  in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Action_space.transformation_label t ^ " rows present")
        true
        (Array.exists (fun s -> s.Policy.s_action.Action_space.transform = t) samples))
    [ Action_space.t_tile; Action_space.t_parallelize; Action_space.t_interchange ];
  (samples, acted)

let test_logp_matches_evaluate () =
  (* The log-prob and value [act_batch] returns must match the ones
     [evaluate] recomputes for the same (obs, action, masks), on a mixed
     batch. Not bitwise: [act] adds the per-loop terms to the
     transformation's log-prob one at a time, [evaluate] adds their
     sum. *)
  let rng = Util.Rng.create 32 in
  let policy = Policy.create ~hidden:16 ~backbone_layers:2 rng cfg in
  let samples, acted = mixed_samples policy in
  Alcotest.(check bool) "at least 16 rows" true (Array.length samples >= 16);
  let tape = Autodiff.Tape.create () in
  let ev = (Policy.ppo_policy policy).Ppo.evaluate tape samples in
  Array.iteri
    (fun i (_, logp, value) ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "row %d log prob consistent" i)
        logp
        (Tensor.get (Autodiff.value ev.Ppo.log_prob) i);
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "row %d value consistent" i)
        value
        (Tensor.get (Autodiff.value ev.Ppo.value) i))
    acted

(* The indicator formulation [Policy.evaluate] had before its branch
   heads were gathered, rebuilt from [Policy.params]: every head runs on
   every row, each loop's tile distribution is a column slice, and a
   branch's terms enter through a 0/1 indicator per row. *)
let indicator_evaluate ~backbone_layers params tape (samples : Policy.sample array) =
  let rec mlp k ps =
    if k = 0 then ([], ps)
    else
      match ps with
      | w :: b :: rest ->
          let layers, rest = mlp (k - 1) rest in
          ({ Layers.w; b } :: layers, rest)
      | _ -> invalid_arg "indicator_evaluate: parameter list too short"
  in
  let take k ps =
    let layers, rest = mlp k ps in
    ({ Layers.layers }, rest)
  in
  let backbone, ps = take backbone_layers params in
  let t_head, ps = take 2 ps in
  let tile_head, ps = take 2 ps in
  let par_head, ps = take 2 ps in
  let swap_head, ps = take 2 ps in
  let value_net, _ = take (backbone_layers + 1) ps in
  let n = cfg.Env_config.n_max and m = Env_config.n_tile_choices cfg in
  let b = Array.length samples in
  let obs =
    Autodiff.const tape
      (Policy.obs_tensor_of_rows (Array.map (fun s -> s.Policy.s_obs) samples))
  in
  let feat = Autodiff.relu tape (Layers.forward_mlp tape backbone obs) in
  let h_t = Layers.forward_mlp tape t_head feat in
  let h_tile = Layers.forward_mlp tape tile_head feat in
  let h_par = Layers.forward_mlp tape par_head feat in
  let h_swap = Layers.forward_mlp tape swap_head feat in
  let h_value = Layers.forward_mlp tape value_net obs in
  let masks_of f = Array.map (fun s -> f s.Policy.s_masks) samples in
  let action_of f = Array.map (fun s -> f s.Policy.s_action) samples in
  let t_lp =
    Distributions.masked_log_probs tape h_t
      ~mask:(masks_of (fun ms -> Policy.safe_row ms.Action_space.t_mask))
  in
  let logp_t =
    Distributions.log_prob_of tape t_lp (action_of (fun a -> a.Action_space.transform))
  in
  let ent_t = Distributions.entropy tape t_lp in
  let tiling head loop_masks =
    let lp_acc = ref None and ent_acc = ref None in
    let acc r x =
      r := Some (match !r with None -> x | Some a -> Autodiff.add tape a x)
    in
    for l = 0 to n - 1 do
      let logits = Autodiff.slice_cols tape head ~lo:(l * m) ~hi:((l + 1) * m) in
      let lp =
        Distributions.masked_log_probs tape logits
          ~mask:(Array.map (fun ms -> Policy.safe_row ms.(l)) loop_masks)
      in
      let chosen =
        Distributions.log_prob_of tape lp
          (action_of (fun a -> a.Action_space.tile_choices.(l)))
      in
      let ent = Distributions.entropy tape lp in
      acc lp_acc chosen;
      acc ent_acc ent
    done;
    (Option.get !lp_acc, Option.get !ent_acc)
  in
  let tile_lp, tile_ent = tiling h_tile (masks_of (fun ms -> ms.Action_space.tile_mask)) in
  let par_lp, par_ent = tiling h_par (masks_of (fun ms -> ms.Action_space.par_mask)) in
  let swap_all =
    Distributions.masked_log_probs tape h_swap
      ~mask:(masks_of (fun ms -> Policy.safe_row ms.Action_space.swap_mask))
  in
  let swap_lp =
    Distributions.log_prob_of tape swap_all
      (action_of (fun a ->
           let c = a.Action_space.swap_choice in
           if c >= 0 && c < n then c else 0))
  in
  let swap_ent = Distributions.entropy tape swap_all in
  let indicator k =
    Autodiff.const tape
      (Tensor.init [| b |] (fun i ->
           if samples.(i).Policy.s_action.Action_space.transform = k then 1.0 else 0.0))
  in
  let ind_tile = indicator Action_space.t_tile in
  let ind_par = indicator Action_space.t_parallelize in
  let ind_swap = indicator Action_space.t_interchange in
  let combine base tile par swap =
    let x = Autodiff.add tape base (Autodiff.mul tape ind_tile tile) in
    let x = Autodiff.add tape x (Autodiff.mul tape ind_par par) in
    Autodiff.add tape x (Autodiff.mul tape ind_swap swap)
  in
  let log_prob = combine logp_t tile_lp par_lp swap_lp in
  let entropy = combine ent_t tile_ent par_ent swap_ent in
  let value = Autodiff.gather_cols tape h_value (Array.make b 0) in
  { Ppo.log_prob; entropy; value }

(* [Ppo.update]'s loss, with old log-probs off by up to +-0.5 so that
   some ratios clip and their rows' gradients are exactly +-0.0. *)
let ppo_loss tape (ev : Ppo.evaluation) ~old_logp ~adv ~ret =
  let ratio =
    Autodiff.exp_ tape (Autodiff.sub tape ev.Ppo.log_prob (Autodiff.const tape old_logp))
  in
  let a = Autodiff.const tape adv in
  let clipped = Autodiff.mul tape (Autodiff.clamp tape ~lo:0.8 ~hi:1.2 ratio) a in
  let surrogate = Autodiff.min_ tape (Autodiff.mul tape ratio a) clipped in
  let policy_loss = Autodiff.neg tape (Autodiff.mean_all tape surrogate) in
  let value_err = Autodiff.sub tape ev.Ppo.value (Autodiff.const tape ret) in
  let value_loss = Autodiff.mean_all tape (Autodiff.square tape value_err) in
  Autodiff.sub tape
    (Autodiff.add tape policy_loss (Autodiff.scale tape 0.5 value_loss))
    (Autodiff.scale tape 0.01 (Autodiff.mean_all tape ev.Ppo.entropy))

let test_evaluate_matches_indicator_reference () =
  (* Gathering each branch's rows must not change a bit of what the
     indicator formulation computes: log-probs, entropies, values and
     every parameter gradient of a PPO loss. (A row entropy of exactly
     zero may carry either sign of zero, docs/performance.md; the
     check below that no row here has one keeps this test exact.) *)
  let backbone_layers = 2 in
  let policy =
    Policy.create ~hidden:16 ~backbone_layers (Util.Rng.create 39) cfg
  in
  let params = Policy.params policy in
  let samples, acted = mixed_samples policy in
  let rows_taking t =
    List.filter
      (fun i -> samples.(i).Policy.s_action.Action_space.transform = t)
      (List.init (Array.length samples) Fun.id)
  in
  let tile_rows = rows_taking Action_space.t_tile in
  Alcotest.(check bool) "two tiling rows" true (List.length tile_rows >= 2);
  let run evaluate rows =
    let rng = Util.Rng.create 40 in
    let b = List.length rows in
    let rows = Array.of_list rows in
    let old_logp =
      Tensor.init [| b |] (fun j ->
          let _, logp, _ = acted.(rows.(j)) in
          logp +. Util.Rng.uniform rng -. 0.5)
    in
    let adv = Tensor.init [| b |] (fun _ -> Util.Rng.gaussian rng) in
    let ret = Tensor.init [| b |] (fun _ -> Util.Rng.gaussian rng) in
    List.iter Autodiff.Param.zero_grad params;
    let tape = Autodiff.Tape.create () in
    let ev = evaluate tape (Array.map (fun i -> samples.(i)) rows) in
    Autodiff.backward tape (ppo_loss tape ev ~old_logp ~adv ~ret);
    ( List.map
        (fun n -> Test_helpers.copy_tensor (Autodiff.value n))
        [ ev.Ppo.log_prob; ev.Ppo.entropy; ev.Ppo.value ],
      List.map (fun p -> Test_helpers.copy_tensor p.Autodiff.Param.grad) params )
  in
  let check_batch label rows =
    let values, grads = run (Policy.ppo_policy policy).Ppo.evaluate rows in
    let values', grads' = run (indicator_evaluate ~backbone_layers params) rows in
    Alcotest.(check bool) (label ^ ": every row entropy positive") true
      (Array.for_all (fun e -> e > 0.0) (Test_helpers.tensor_to_array (List.nth values 1)));
    List.iter2
      (fun name (v, v') ->
        Alcotest.(check bool) (label ^ ": " ^ name ^ " bitwise") true (Test_helpers.tensor_equal v v'))
      [ "log_prob"; "entropy"; "value" ]
      (List.combine values values');
    List.iteri
      (fun i (g, g') ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s grad bitwise" label (List.nth params i).Autodiff.Param.name)
          true (Test_helpers.tensor_equal g g'))
      (List.combine grads grads');
    Alcotest.(check bool) (label ^ ": some gradient formed") true
      (List.exists
         (fun g -> Array.exists (fun v -> v <> 0.0) (Test_helpers.tensor_to_array g))
         grads)
  in
  let all = List.init (Array.length samples) Fun.id in
  check_batch "every branch" all;
  check_batch "no interchange rows"
    (List.filter (fun i -> not (List.mem i (rows_taking Action_space.t_interchange))) all);
  check_batch "all tiling" tile_rows;
  check_batch "single row" [ List.hd tile_rows ]

let test_greedy_deterministic () =
  let rng = Util.Rng.create 33 in
  let policy = Policy.create ~hidden:16 ~backbone_layers:2 rng cfg in
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let obs = Observation.extract cfg st in
  let masks = Action_space.masks cfg st in
  let a1 = Policy.act_greedy policy ~obs ~masks in
  let a2 = Policy.act_greedy policy ~obs ~masks in
  Alcotest.(check bool) "same action" true (a1 = a2)

let test_entropy_positive () =
  let rng = Util.Rng.create 34 in
  let policy = Policy.create ~hidden:16 ~backbone_layers:2 rng cfg in
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let obs = Observation.extract cfg st in
  let masks = Action_space.masks cfg st in
  let action, _, _ = Policy.act rng policy ~obs ~masks in
  let tape = Autodiff.Tape.create () in
  let ev =
    (Policy.ppo_policy policy).Ppo.evaluate tape
      [| { Policy.s_obs = obs; s_action = action; s_masks = masks } |]
  in
  Alcotest.(check bool) "entropy > 0" true
    (Tensor.get (Autodiff.value ev.Ppo.entropy) 0 > 0.0)

let test_param_count_scales () =
  let rng = Util.Rng.create 35 in
  let small = Policy.create ~hidden:8 ~backbone_layers:1 rng cfg in
  let large = Policy.create ~hidden:64 ~backbone_layers:2 rng cfg in
  Alcotest.(check bool) "more params" true
    (Policy.param_count large > Policy.param_count small)

let test_paper_sized_network () =
  (* The default (512x4 backbone) builds and has millions of params. *)
  let rng = Util.Rng.create 36 in
  let policy = Policy.create rng cfg in
  Alcotest.(check bool) "at least 1M params" true (Policy.param_count policy > 1_000_000)

let test_flat_policy_act_and_evaluate () =
  let rng = Util.Rng.create 37 in
  let policy = Flat_policy.create ~hidden:16 ~backbone_layers:2 rng cfg ~n_loops:3 in
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let obs = Observation.extract cfg st in
  let menu = Flat_policy.menu policy in
  let mask =
    Action_space.simple_mask ?ctx:(Action_space.legality_of cfg st) st menu
  in
  let choice, logp, _ =
    (Flat_policy.act_batch [| rng |] policy ~obs:[| obs |] ~masks:[| mask |]).(0)
  in
  Alcotest.(check bool) "choice masked" true mask.(choice);
  let tape = Autodiff.Tape.create () in
  let ev =
    (Flat_policy.ppo_policy policy).Ppo.evaluate tape
      [| { Flat_policy.f_obs = obs; f_choice = choice; f_mask = mask } |]
  in
  Alcotest.(check (float 1e-6)) "logp consistent" logp
    (Tensor.get (Autodiff.value ev.Ppo.log_prob) 0)

let test_flat_greedy_masked () =
  let rng = Util.Rng.create 38 in
  let policy = Flat_policy.create ~hidden:16 ~backbone_layers:1 rng cfg ~n_loops:3 in
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let obs = Observation.extract cfg st in
  let mask =
    Action_space.simple_mask ?ctx:(Action_space.legality_of cfg st) st
      (Flat_policy.menu policy)
  in
  (* A mask that admits one entry leaves the sampler one choice. *)
  let last = ref (-1) in
  Array.iteri (fun i ok -> if ok then last := i) mask;
  let only = Array.mapi (fun i _ -> i = !last) mask in
  let picks =
    Flat_policy.act_batch
      (Array.init 4 (fun _ -> Util.Rng.split rng))
      policy ~obs:(Array.make 4 obs) ~masks:[| mask; only; mask; only |]
  in
  Array.iteri
    (fun i (c, _, _) ->
      Alcotest.(check bool) (Printf.sprintf "row %d masked" i) true mask.(c))
    picks;
  let c1, _, _ = picks.(1) and c3, _, _ = picks.(3) in
  Alcotest.(check int) "single admitted entry chosen" !last c1;
  Alcotest.(check int) "single admitted entry chosen (row 3)" !last c3

let suite =
  [
    Alcotest.test_case "actions within masks" `Quick test_action_within_masks;
    Alcotest.test_case "logp matches evaluate" `Quick test_logp_matches_evaluate;
    Alcotest.test_case "evaluate = indicator reference" `Quick
      test_evaluate_matches_indicator_reference;
    Alcotest.test_case "greedy deterministic" `Quick test_greedy_deterministic;
    Alcotest.test_case "entropy positive" `Quick test_entropy_positive;
    Alcotest.test_case "param count scales" `Quick test_param_count_scales;
    Alcotest.test_case "paper-sized network" `Quick test_paper_sized_network;
    Alcotest.test_case "flat policy act/evaluate" `Quick test_flat_policy_act_and_evaluate;
    Alcotest.test_case "flat greedy masked" `Quick test_flat_greedy_masked;
  ]

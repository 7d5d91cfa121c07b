(* GAE and PPO core. *)

let step r v t = { Gae.reward = r; value = v; terminal = t }

let test_gae_single_step () =
  (* One terminal step: advantage = r - V(s). *)
  let adv, ret = Gae.advantages ~gamma:0.99 ~lambda:0.95 [| step 2.0 0.5 true |] in
  Alcotest.(check (float 1e-9)) "advantage" 1.5 adv.(0);
  Alcotest.(check (float 1e-9)) "return" 2.0 ret.(0)

let test_gae_two_step_episode () =
  (* r0=0, r1=1, V=(0.5, 0.5), gamma=1, lambda=1:
     delta1 = 1 - 0.5 = 0.5 ; delta0 = 0 + 0.5 - 0.5 = 0
     adv0 = delta0 + delta1 = 0.5 ; adv1 = 0.5 *)
  let adv, _ =
    Gae.advantages ~gamma:1.0 ~lambda:1.0 [| step 0.0 0.5 false; step 1.0 0.5 true |]
  in
  Alcotest.(check (float 1e-9)) "adv0" 0.5 adv.(0);
  Alcotest.(check (float 1e-9)) "adv1" 0.5 adv.(1)

let test_gae_terminal_resets () =
  (* Two one-step episodes: the second's reward must not leak into the
     first's advantage. *)
  let adv, _ =
    Gae.advantages ~gamma:0.99 ~lambda:0.95 [| step 1.0 0.0 true; step 100.0 0.0 true |]
  in
  Alcotest.(check (float 1e-9)) "episode 1 isolated" 1.0 adv.(0);
  Alcotest.(check (float 1e-9)) "episode 2" 100.0 adv.(1)

let test_gae_gamma_discounting () =
  let adv, _ =
    Gae.advantages ~gamma:0.5 ~lambda:1.0 [| step 0.0 0.0 false; step 8.0 0.0 true |]
  in
  (* delta1 = 8; delta0 = 0 + 0.5*0 - 0 = 0; adv0 = 0 + 0.5*8 = 4 *)
  Alcotest.(check (float 1e-9)) "discounted" 4.0 adv.(0)

let test_gae_lambda_zero_is_td () =
  (* lambda = 0: advantage = one-step TD error. *)
  let adv, _ =
    Gae.advantages ~gamma:0.9 ~lambda:0.0
      [| step 1.0 2.0 false; step 0.0 3.0 true |]
  in
  Alcotest.(check (float 1e-9)) "td error" (1.0 +. (0.9 *. 3.0) -. 2.0) adv.(0)

let test_normalize () =
  let out = Gae.normalize [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "mean 0" 0.0 (Array.fold_left ( +. ) 0.0 out /. 3.0);
  let var = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 out /. 3.0 in
  Alcotest.(check (float 1e-6)) "unit variance" 1.0 var

let test_normalize_empty () =
  Alcotest.(check int) "empty ok" 0 (Array.length (Gae.normalize [||]))

(* A tiny 2-armed bandit: PPO must learn to prefer the rewarding arm. *)

type bandit_sample = { b_obs : Tensor.t; b_action : int }

let bandit_policy mlp =
  {
    Ppo.evaluate =
      (fun tape samples ->
        let b = Array.length samples in
        let obs =
          Tensor.init [| b; 2 |] (fun i ->
              Tensor.get samples.(i / 2).b_obs (i mod 2))
        in
        let out = Layers.forward_mlp tape mlp (Autodiff.const tape obs) in
        (* columns 0-1: logits; column 2: value *)
        let logits = Autodiff.slice_cols tape out ~lo:0 ~hi:2 in
        let lp = Autodiff.log_softmax tape logits in
        let log_prob =
          Autodiff.gather_cols tape lp (Array.map (fun s -> s.b_action) samples)
        in
        let entropy =
          Autodiff.neg tape
            (Autodiff.sum_rows tape (Autodiff.mul tape (Autodiff.exp_ tape lp) lp))
        in
        let value =
          Autodiff.gather_cols tape
            (Autodiff.slice_cols tape out ~lo:2 ~hi:3)
            (Array.make b 0)
        in
        { Ppo.log_prob; entropy; value });
    params = Layers.mlp_params mlp;
  }

let test_ppo_learns_bandit () =
  let rng = Util.Rng.create 4242 in
  let mlp = Layers.mlp rng ~dims:[ 2; 16; 3 ] "bandit" in
  let policy = bandit_policy mlp in
  let config =
    {
      Ppo.default_config with
      Ppo.batch_size = 64;
      minibatch_size = 32;
      learning_rate = 3e-3;
    }
  in
  let optimizer = Optim.adam ~lr:config.Ppo.learning_rate (Layers.mlp_params mlp) in
  let obs = Tensor.of_array [| 2 |] [| 1.0; 0.0 |] in
  let prob_arm1 () =
    let tape = Autodiff.Tape.create () in
    let out =
      Layers.forward_mlp tape mlp
        (Autodiff.const tape (Tensor.of_array [| 1; 2 |] [| 1.0; 0.0 |]))
    in
    let lp = Autodiff.log_softmax tape (Autodiff.slice_cols tape out ~lo:0 ~hi:2) in
    exp (Tensor.get2 (Autodiff.value lp) 0 1)
  in
  for _iter = 1 to 30 do
    let transitions =
      Array.init config.Ppo.batch_size (fun _ ->
          let p1 = prob_arm1 () in
          let a = if Util.Rng.uniform rng < p1 then 1 else 0 in
          let reward = if a = 1 then 1.0 else 0.0 in
          let lp = log (Float.max 1e-9 (if a = 1 then p1 else 1.0 -. p1)) in
          {
            Ppo.sample = { b_obs = obs; b_action = a };
            reward;
            value = 0.0;
            log_prob = lp;
            terminal = true;
          })
    in
    ignore (Ppo.update config policy optimizer transitions ~rng)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "prefers rewarding arm (p=%.3f)" (prob_arm1 ()))
    true
    (prob_arm1 () > 0.8)

let test_ppo_stats_finite () =
  let rng = Util.Rng.create 5 in
  let mlp = Layers.mlp rng ~dims:[ 2; 8; 3 ] "s" in
  let policy = bandit_policy mlp in
  let optimizer = Optim.adam ~lr:1e-3 (Layers.mlp_params mlp) in
  let obs = Tensor.of_array [| 2 |] [| 0.5; 0.5 |] in
  let transitions =
    Array.init 16 (fun i ->
        {
          Ppo.sample = { b_obs = obs; b_action = i mod 2 };
          reward = float_of_int (i mod 3);
          value = 0.1;
          log_prob = log 0.5;
          terminal = i mod 4 = 3;
        })
  in
  let stats =
    Ppo.update
      { Ppo.default_config with Ppo.batch_size = 16; minibatch_size = 8 }
      policy optimizer transitions ~rng
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v))
    [
      ("policy_loss", stats.Ppo.policy_loss);
      ("value_loss", stats.Ppo.value_loss);
      ("entropy", stats.Ppo.entropy_mean);
      ("kl", stats.Ppo.approx_kl);
      ("clip_fraction", stats.Ppo.clip_fraction);
      ("grad_norm", stats.Ppo.grad_norm);
    ]

let test_ppo_rejects_empty () =
  let rng = Util.Rng.create 5 in
  let mlp = Layers.mlp rng ~dims:[ 2; 4; 3 ] "e" in
  let policy = bandit_policy mlp in
  let optimizer = Optim.adam ~lr:1e-3 (Layers.mlp_params mlp) in
  Alcotest.(check bool) "raises" true
    (match Ppo.update Ppo.default_config policy optimizer [||] ~rng with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_default_config_matches_paper () =
  let c = Ppo.default_config in
  Alcotest.(check (float 1e-12)) "lr" 1e-3 c.Ppo.learning_rate;
  Alcotest.(check int) "batch" 64 c.Ppo.batch_size;
  Alcotest.(check (float 1e-12)) "entropy coef" 0.01 c.Ppo.entropy_coef

let qcheck_gae_zero_rewards_zero_value =
  QCheck.Test.make ~name:"gae of zero rewards and values is zero" ~count:50
    QCheck.(int_range 1 30)
    (fun n ->
      let steps = Array.init n (fun i -> step 0.0 0.0 (i = n - 1)) in
      let adv, ret = Gae.advantages ~gamma:0.99 ~lambda:0.95 steps in
      Array.for_all (fun a -> a = 0.0) adv && Array.for_all (fun r -> r = 0.0) ret)

let suite =
  [
    Alcotest.test_case "gae single step" `Quick test_gae_single_step;
    Alcotest.test_case "gae two steps" `Quick test_gae_two_step_episode;
    Alcotest.test_case "gae terminal resets" `Quick test_gae_terminal_resets;
    Alcotest.test_case "gae gamma discount" `Quick test_gae_gamma_discounting;
    Alcotest.test_case "gae lambda 0 is TD" `Quick test_gae_lambda_zero_is_td;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "normalize empty" `Quick test_normalize_empty;
    Alcotest.test_case "ppo learns bandit" `Slow test_ppo_learns_bandit;
    Alcotest.test_case "ppo stats finite" `Quick test_ppo_stats_finite;
    Alcotest.test_case "ppo rejects empty" `Quick test_ppo_rejects_empty;
    Alcotest.test_case "paper hyperparameters" `Quick test_default_config_matches_paper;
    QCheck_alcotest.to_alcotest qcheck_gae_zero_rewards_zero_value;
  ]

(* Shared configuration and helpers for the experiment harness. *)

type config = {
  seed : int;
  hidden : int;  (* policy width; the paper uses 512 *)
  train_iterations : int;  (* paper: 1000 *)
  ablation_iterations : int;  (* figures 7/8 *)
  autosched_budget : int;
  rl_inference_trials : int;  (* sampled rollouts kept at eval time *)
  fig6_episodes : int;
  entropy_coef : float;
  (* paper: 0.01. The simulated reward is deterministic, which removes
     the measurement noise that keeps exploration alive on real
     hardware; 0.03 compensates (see EXPERIMENTS.md). *)
}

let default =
  {
    seed = 2026;
    hidden = 128;
    train_iterations = 400;
    ablation_iterations = 50;
    autosched_budget = 1500;
    rl_inference_trials = 24;
    fig6_episodes = 600;
    entropy_coef = 0.03;
  }

let quick =
  {
    default with
    hidden = 48;
    train_iterations = 15;
    ablation_iterations = 10;
    autosched_budget = 400;
    rl_inference_trials = 6;
    fig6_episodes = 150;
    entropy_coef = 0.03;
  }

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* The shared trained agent (hierarchical space, Final reward), reused
   by fig5 and fig6. *)
type trained = { env : Env.t; policy : Policy.t; train_seconds : float }

let train_agent (c : config) ~ops =
  let cfg = Env_config.default in
  let env = Env.create cfg in
  let rng = Util.Rng.create c.seed in
  let policy = Policy.create ~hidden:c.hidden ~backbone_layers:2 rng cfg in
  Printf.printf
    "training agent: %d iterations x %d steps, hidden %d (%d parameters), %d train ops\n%!"
    c.train_iterations Ppo.default_config.Ppo.batch_size c.hidden
    (Policy.param_count policy) (Array.length ops);
  let t0 = Unix.gettimeofday () in
  let config =
    {
      Trainer.default_config with
      Trainer.ppo = { Ppo.default_config with Ppo.entropy_coef = c.entropy_coef };
      iterations = c.train_iterations;
      seed = c.seed;
    }
  in
  let _ =
    Trainer.train config env policy ~ops ~callback:(fun s ->
        if s.Trainer.iteration mod 10 = 0 || s.Trainer.iteration = 1 then
          Printf.printf
            "  iter %4d | return %7.3f | geomean episode speedup %9.2fx\n%!"
            s.Trainer.iteration s.Trainer.mean_episode_return
            s.Trainer.mean_final_speedup)
  in
  let train_seconds = Unix.gettimeofday () -. t0 in
  Printf.printf "  trained in %.1f s wall-clock\n%!" train_seconds;
  { env; policy; train_seconds }

(* Best schedule the trained agent proposes for an op: greedy rollout
   plus a few stochastic samples (inference-time exploration). *)
let rl_best rng (t : trained) (c : config) op =
  let sched_g, speed_g = Trainer.greedy_rollout t.env t.policy op in
  let sched_s, speed_s =
    Trainer.sampled_best rng t.env t.policy op ~trials:c.rl_inference_trials
  in
  if speed_g >= speed_s then (sched_g, speed_g) else (sched_s, speed_s)

let geomean = Util.Stats.geomean
let mean = Util.Stats.mean

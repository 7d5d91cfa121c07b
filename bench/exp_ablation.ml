(* Extension ablations (beyond the paper's figures):

   1. search strategies at equal evaluation budget — exhaustive (the
      paper's baseline), beam search (the Halide/Tiramisu-style search
      the paper positions itself against), and sampling from the trained
      RL agent;
   2. the learned cost model of §6.1 (future work), here the surrogate
      that staged search uses: how well it ranks states of unseen ops,
      and the measurement time it amortizes;
   3. the unrolling extension (§6.1): effect on scalar reductions. *)

let strategies (c : Bench_common.config) (trained : Bench_common.trained) =
  Bench_common.subheading
    "Search strategies at equal evaluation budget (speedup over base)";
  let ev = Env.evaluator trained.Bench_common.env in
  let rng = Util.Rng.create (c.Bench_common.seed + 9) in
  Printf.printf "%-34s %8s %12s %12s %12s\n" "operation" "budget" "exhaustive"
    "beam" "RL sampling";
  List.iter
    (fun op ->
      let beam = Beam_search.search ev op in
      let budget = beam.Beam_search.explored in
      let exhaustive =
        Auto_scheduler.search
          ~config:
            {
              Auto_scheduler.default_config with
              Auto_scheduler.max_schedules = budget;
            }
          ev op
      in
      let _, rl =
        Trainer.sampled_best rng trained.Bench_common.env
          trained.Bench_common.policy op ~trials:budget
      in
      Printf.printf "%-34s %8d %12.1f %12.1f %12.1f\n%!" op.Linalg.op_name budget
        exhaustive.Auto_scheduler.best_speedup beam.Beam_search.best_speedup rl)
    [
      Linalg.matmul ~m:1024 ~n:1024 ~k:1024 ();
      Linalg.conv2d
        { Linalg.batch = 1; in_h = 56; in_w = 56; channels = 64; kernel_h = 3;
          kernel_w = 3; filters = 128; stride = 1 };
      Linalg.batch_matmul ~b:8 ~m:256 ~n:256 ~k:256 ();
      Linalg.maxpool
        { Linalg.p_batch = 1; p_in_h = 112; p_in_w = 112; p_channels = 64;
          p_kernel = 2; p_stride = 2 };
    ]

(* One exact search per op with the evaluator's measurement tap on, as
   [surrogate collect] runs them; returns each op's logged states. *)
let collect_per_op ~budget ops =
  let ev = Evaluator.create () in
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
  in
  Array.map
    (fun op ->
      let log = Surrogate.Dataset_log.create () in
      Surrogate.Dataset_log.attach log ev;
      ignore (Auto_scheduler.search ~config ev op);
      Surrogate.Dataset_log.detach ev;
      Surrogate.Dataset_log.entries log)
    ops

let learned_cost (c : Bench_common.config) =
  Bench_common.subheading "Learned cost model (paper §6.1): the surrogate";
  let cfg = Env_config.default in
  let split = Generator.generate ~seed:c.Bench_common.seed () in
  let budget = 40 in
  let concat per_op = Array.concat (Array.to_list per_op) in
  let t0 = Unix.gettimeofday () in
  let train =
    concat (collect_per_op ~budget (Array.sub split.Generator.train 0 200))
  in
  let validation = collect_per_op ~budget split.Generator.validation in
  let collect_s = Unix.gettimeofday () -. t0 in
  let seed = c.Bench_common.seed + 10 in
  let model = Surrogate.Model.create ~seed () in
  let t1 = Unix.gettimeofday () in
  let report = Surrogate.Model.fit ~epochs:30 ~seed model train in
  let fit_s = Unix.gettimeofday () -. t1 in
  let pooled = concat validation in
  (* Staged search ranks the candidates of one op at a time. *)
  let within =
    List.filter_map
      (fun states ->
        if Array.length states >= 8 then
          Some (Surrogate.Model.spearman model states)
        else None)
      (Array.to_list validation)
  in
  Printf.printf
    "exact searches at budget %d logged %d states of 200 train ops and %d of\n\
     %d validation ops (%.1fs) | fit: %d epochs in %.1fs\n"
    budget (Array.length train) (Array.length pooled) (Array.length validation)
    collect_s report.Surrogate.Model.epochs_run fit_s;
  Printf.printf "Spearman, held-out states of the train ops: %.3f\n"
    report.Surrogate.Model.spearman;
  Printf.printf "Spearman, unseen validation ops, pooled:    %.3f\n"
    (Surrogate.Model.spearman model pooled);
  Printf.printf
    "Spearman, unseen validation ops, within-op: %.3f (mean over %d ops with \
     >= 8 states)\n"
    (Util.Stats.mean within) (List.length within);
  (* What the model amortizes: each real measurement costs a compile+run
     round (the paper's motivation for a learned model). *)
  let per_measure = cfg.Env_config.compile_seconds in
  Printf.printf
    "replacing the oracle during training would save ~%.1f simulated hours per\n\
     1000 PPO iterations (batch 64, Final reward: one compile+run per episode,\n\
     ~%.0fs each)\n"
    (1000.0 *. 64.0 /. 4.0 *. per_measure /. 3600.0)
    per_measure

let unrolling () =
  Bench_common.subheading "Unrolling extension (scalar reductions)";
  let op = Linalg.matmul ~m:512 ~n:512 ~k:512 () in
  let ev = Evaluator.create () in
  let base = Evaluator.base_seconds ev op in
  Printf.printf "%-28s %12s %10s\n" "schedule" "time (s)" "speedup";
  List.iter
    (fun sched_str ->
      match Schedule.of_string sched_str with
      | Error e -> Printf.printf "%-28s bad schedule: %s\n" sched_str e
      | Ok sched -> (
          match Evaluator.schedule_speedup ev op sched with
          | Error e -> Printf.printf "%-28s rejected: %s\n" sched_str e
          | Ok sp ->
              Printf.printf "%-28s %12.6f %9.1fx\n" sched_str (base /. sp) sp))
    [ "U(2)"; "U(4)"; "U(8)"; "U(16)"; "T(8,8,64) U(8)"; "V" ];
  Printf.printf
    "(unrolling breaks the memory-accumulator chain of unvectorized reductions;\n\
    \ vectorization subsumes it, which is why the paper's action space omits it)\n"

let portability () =
  Bench_common.subheading
    "Schedule portability across machines (best beam schedule per machine)";
  let machines =
    [
      ("xeon (paper)", Machine.e5_2680_v4);
      ("avx512 server", Machine.avx512_server);
      ("mobile quad", Machine.mobile_quad);
    ]
  in
  let op = Linalg.matmul ~m:1024 ~n:1024 ~k:1024 () in
  let tuned =
    List.map
      (fun (name, m) ->
        let ev = Evaluator.create ~machine:m () in
        let r = Beam_search.search ev op in
        (name, m, r.Beam_search.best_schedule))
      machines
  in
  Printf.printf "%-16s" "run on \\ tuned for";
  List.iter (fun (name, _, _) -> Printf.printf " %16s" name) tuned;
  Printf.printf "\n";
  List.iter
    (fun (run_name, run_machine) ->
      let ev = Evaluator.create ~machine:run_machine () in
      Printf.printf "%-16s" run_name;
      List.iter
        (fun (_, _, sched) ->
          match Evaluator.schedule_speedup ev op sched with
          | Ok sp -> Printf.printf " %15.1fx" sp
          | Error _ -> Printf.printf " %16s" "-")
        tuned;
      Printf.printf "\n")
    machines;
  Printf.printf
    "(diagonal = natively tuned; off-diagonal shows the penalty of reusing a\n\
    \ schedule tuned for another machine — why per-target search matters)\n"

let fusion () =
  Bench_common.subheading "Fusion extension (bias_add + relu, 2048x2048)";
  let shape = [| 2048; 2048 |] in
  let producer = Linalg.bias_add shape in
  let consumer = Linalg.relu shape in
  let ev = Evaluator.create () in
  match Fusion.fuse ~producer ~consumer ~consumer_input:0 with
  | Error e -> Printf.printf "fusion failed: %s\n" e
  | Ok fused ->
      let best op =
        let r = Beam_search.search ev op in
        Evaluator.base_seconds ev op /. r.Beam_search.best_speedup
      in
      let separate = best producer +. best consumer in
      let fused_t = best fused in
      Printf.printf "best scheduled, separate ops : %.6f s\n" separate;
      Printf.printf "best scheduled, fused op     : %.6f s (%.2fx faster)\n"
        fused_t (separate /. fused_t);
      Printf.printf
        "(the intermediate buffer round-trip disappears; the model prices the\n\
        \ saved memory traffic automatically)\n"

(* One mixed-dataset training run (where the exploration-collapse effect
   lives); returns (validation-matmul geomean with sampled inference,
   final entropy). *)
let quick_train ?(noise = 0.0) ?(entropy_coef = 0.01) ?features ~iterations seed =
  let cfg = Env_config.default in
  let cfg =
    match features with None -> cfg | Some f -> { cfg with Env_config.features = f }
  in
  let evaluator =
    Evaluator.create ~machine:cfg.Env_config.machine ~noise ~noise_seed:seed ()
  in
  let env = Env.create ~evaluator cfg in
  let rng = Util.Rng.create seed in
  let policy = Policy.create ~hidden:96 ~backbone_layers:2 rng cfg in
  let split = Generator.generate ~seed () in
  let config =
    {
      Trainer.default_config with
      Trainer.ppo = { Ppo.default_config with Ppo.entropy_coef };
      iterations;
      seed;
    }
  in
  let stats = Trainer.train config env policy ~ops:split.Generator.train in
  let entropy =
    (List.nth stats (List.length stats - 1)).Trainer.ppo_stats.Ppo.entropy_mean
  in
  (* evaluation uses a clean (noiseless) oracle *)
  let eval_env = Env.create cfg in
  let irng = Util.Rng.create (seed + 1) in
  let speedups = ref [] in
  Array.iter
    (fun op ->
      if Linalg.kind_name op = "matmul" then begin
        let _, greedy = Trainer.greedy_rollout eval_env policy op in
        let _, sampled = Trainer.sampled_best irng eval_env policy op ~trials:12 in
        speedups := Float.max greedy sampled :: !speedups
      end)
    split.Generator.validation;
  (Util.Stats.geomean !speedups, entropy)

let noise_vs_entropy (c : Bench_common.config) =
  Bench_common.subheading
    "Why entropy 0.03: measurement noise vs exploration (mixed dataset)";
  let iterations = 2 * c.Bench_common.ablation_iterations in
  Printf.printf "%d PPO iterations each; quality = geomean over the 15 validation matmuls\n"
    iterations;
  Printf.printf "%-42s %18s %10s\n" "training condition" "matmul geomean x"
    "entropy";
  List.iter
    (fun (label, noise, ent) ->
      let speedup, entropy =
        quick_train ~noise ~entropy_coef:ent ~iterations c.Bench_common.seed
      in
      Printf.printf "%-42s %18.1f %10.2f\n%!" label speedup entropy)
    [
      ("deterministic reward, ent 0.01 (paper cfg)", 0.0, 0.01);
      ("deterministic reward, ent 0.03 (ours)", 0.0, 0.03);
      ("10% measurement noise, ent 0.01", 0.1, 0.01);
    ];
  Printf.printf
    "(at the paper's coefficient the policy collapses — entropy ~0.1 — and\n\
    \ plateaus early; 0.03 keeps entropy ~1 and ends higher. Injecting synthetic\n\
    \ measurement noise does NOT substitute for entropy regularization here:\n\
    \ it adds gradient variance without preventing the collapse)\n"

let feature_ablation (c : Bench_common.config) =
  Bench_common.subheading "Observation feature ablation (mixed dataset)";
  let iterations = 2 * c.Bench_common.ablation_iterations in
  let all = Env_config.all_features in
  Printf.printf "%-34s %18s\n" "observation" "matmul geomean x";
  List.iter
    (fun (label, features) ->
      let speedup, _ =
        quick_train ~features ~entropy_coef:c.Bench_common.entropy_coef
          ~iterations c.Bench_common.seed
      in
      Printf.printf "%-34s %18.1f\n%!" label speedup)
    [
      ("all features (paper)", all);
      ("without history tensor", { all with Env_config.use_history = false });
      ("without access matrices",
       { all with Env_config.use_access_matrices = false });
      ("without loop info", { all with Env_config.use_loop_info = false });
    ];
  Printf.printf
    "(single-seed, directions only: the access matrices are the load-bearing\n\
    \ feature — without them the agent cannot see which loops index which\n\
    \ arrays and quality halves; the history tensor helps modestly; loop\n\
    \ info is largely redundant with the divisor masks at this scale)\n"

let run (c : Bench_common.config) (trained : Bench_common.trained) =
  Bench_common.heading "Extension ablations (beyond the paper)";
  strategies c trained;
  learned_cost c;
  unrolling ();
  fusion ();
  portability ();
  noise_vs_entropy c;
  feature_ablation c

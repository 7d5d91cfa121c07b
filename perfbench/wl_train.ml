(* The [train] workload: Trainer.train on the generated train split with
   the CLI train architecture (hidden 64, two backbone layers), a
   noiseless evaluator and one collection job. Each measured unit is a
   fresh run of [iterations] PPO iterations; runs repeat while another
   fits in the run time (at least two), and every run must reproduce the
   first one's statistics exactly. Runs repeat identical work, so each
   iteration's fastest run counts: runs differ only in how much of the
   shared host they got. *)

open Report

let iterations = 60
let hidden = 64
(* On a two-core host two jobs were slower than one (342-435 against
   451-558 episodes/s in interleaved runs) and noisier from run to run. *)
let jobs = 1

(* The workload seed generates the train split; the policy and trainer
   keep one seed, as a user re-training on new data would. *)
let trainer_seed = 0

let stat_line (s : Trainer.iteration_stats) =
  Printf.sprintf "%d %.17g %.17g %.17g %.17g %d %d %d" s.Trainer.iteration
    s.Trainer.mean_episode_return s.Trainer.mean_final_speedup s.Trainer.best_speedup
    s.Trainer.measurement_seconds s.Trainer.schedules_explored
    s.Trainer.degraded_measurements s.Trainer.episodes

let fresh () =
  let cfg = Env_config.default in
  let evaluator = Evaluator.create ~machine:cfg.Env_config.machine () in
  let env = Env.create ~evaluator cfg in
  let policy = Policy.create ~hidden ~backbone_layers:2 (Util.Rng.create trainer_seed) cfg in
  (env, policy)

let setup ~seed =
  let split = Generator.generate ~seed () in
  ignore (fresh ());
  split.Generator.train

let config = { Trainer.default_config with Trainer.iterations; seed = trainer_seed; jobs }

type run = { wall : float; iter_ms : float list; stats : Trainer.iteration_stats list }

let train_once ops =
  let env, policy = fresh () in
  let t0 = Trace.now () in
  let last = ref t0 and iter_ms = ref [] in
  let stats =
    Trainer.train config env policy ~ops ~callback:(fun _ ->
        let t = Trace.now () in
        iter_ms := ((t -. !last) *. 1e3) :: !iter_ms;
        last := t)
  in
  { wall = Trace.now () -. t0; iter_ms = List.rev !iter_ms; stats }

let episodes r = match List.rev r.stats with s :: _ -> s.Trainer.episodes | [] -> 0

let final_speedup r =
  match List.rev r.stats with s :: _ -> s.Trainer.mean_final_speedup | [] -> nan

let run ~seed ~seconds =
  let su = setups () in
  let ops = set_up su (fun () -> setup ~seed) in
  let t_end = Trace.now () +. seconds in
  let runs = ref [] in
  while
    List.length !runs < 2
    || Trace.now () +. (match !runs with r :: _ -> r.wall | [] -> 0.0) < t_end
  do
    runs := train_once ops :: !runs;
    ignore (set_up su (fun () -> setup ~seed))
  done;
  let setup_s = setup_s su in
  let runs = List.rev !runs in
  (* Oracle: every run of one seed reproduces the first run's per
     iteration statistics (the same lines the stats digest hashes). *)
  let reference = List.map stat_line (List.hd runs).stats in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun r ->
      let lines = List.map stat_line r.stats in
      attempted := !attempted + iterations;
      if List.length lines <> List.length reference then failed := !failed + iterations
      else List.iter2 (fun a b -> if a <> b then incr failed) lines reference)
    runs;
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" reference))
  in
  let iter_ms =
    List.fold_left (List.map2 Float.min) (List.hd runs).iter_ms
      (List.map (fun r -> r.iter_ms) (List.tl runs))
  in
  let wall = sum iter_ms /. 1e3 in
  let eps_per_s = float_of_int (episodes (List.hd runs)) /. wall in
  (* Episodes per iteration follow the policy's learning, which moves
     with the train split; an iteration is always one 64-step batch, so
     iterations per second compare across seeds. *)
  let iters_per_s = float_of_int iterations /. wall in
  let speedup = final_speedup (List.hd runs) in
  let rss = peak_rss_mb () in
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "work_per_s" "1/s" iters_per_s;
        m "latency_ms_p50" "ms" (Util.Stats.median iter_ms);
      ];
    named =
      [
        m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MB" rss;
        m "failed_frac" "frac" (failed_frac ~attempted:!attempted ~failed:!failed);
        m "train.episodes_per_s" "1/s" eps_per_s;
        m "train.iterations_per_s" "1/s" iters_per_s;
        m "train.final_speedup_geomean" "x" speedup;
      ];
    notes =
      [
        Printf.sprintf "latency_ms_p50 times one PPO iteration, each its fastest of %d runs; %s"
          (List.length runs) (tail_note "the iteration ms tail" iter_ms);
        Printf.sprintf "%d runs of %d iterations (%d episodes each), jobs %d, stats digest %s"
          (List.length runs) iterations (episodes (List.hd runs)) jobs digest;
      ];
    invalid = None;
  }

(* -- traced run ----------------------------------------------------------

   Trainer.train runs its collection loop inside the library, out of
   reach of spans placed here. The traced run therefore replays that
   loop (run_loop and play_chunk in lib/core/trainer.ml) from the public
   functions it calls, as [jobs] 1 runs it on the main domain: waves of
   min(inference_batch, ceil(remaining steps / mean episode length))
   episodes advance in lockstep, a slot dropping out when its episode
   ends and taking the wave's next episode if one is left; whole episodes
   are consumed in index order until the batch holds [batch_size] steps;
   the episodes left over are discarded and their indices collected
   again next iteration; then one Ppo.update. Every episode draws its
   streams from its global index as the trainer does, so the copy must
   reproduce Trainer.train's statistics exactly: each iteration that
   differs counts as a failed operation. *)

let mirror_iterations = 20

(* The per-iteration statistics that the copy can reproduce. *)
let mirror_line ~iteration ~mean_return ~final_speedup ~episodes =
  Printf.sprintf "%d %.17g %.17g %d" iteration mean_return final_speedup episodes

let reference_lines ops =
  let env, policy = fresh () in
  Trainer.train { config with Trainer.iterations = mirror_iterations } env policy ~ops
  |> List.map (fun (s : Trainer.iteration_stats) ->
         mirror_line ~iteration:s.Trainer.iteration ~mean_return:s.Trainer.mean_episode_return
           ~final_speedup:s.Trainer.mean_final_speedup ~episodes:s.Trainer.episodes)

(* Trainer's stream ids: episode [i] derives from stream [i] (action
   stream, then noise stream), the PPO update from stream -1. *)
let episode_streams index =
  let master = Util.Rng.derive trainer_seed ~stream:index in
  let action_rng = Util.Rng.split master in
  let noise_state = Util.Rng.state (Util.Rng.split master) in
  (action_rng, noise_state)

type counts = { mutable rows : int; mutable invalid : int; mutable discarded : int }

(* Play episodes [lo, hi) in lockstep slots; returns each episode's
   transitions, return and final speedup in index order. *)
let play_chunk ~env ~ops ~step ~lo ~hi =
  let count = hi - lo in
  let nslots = min config.Trainer.inference_batch count in
  let envs = Trace.span "core.env_fork" (fun () -> Array.init nslots (fun _ -> Env.fork env)) in
  let rngs = Array.make nslots (Util.Rng.create 0) and obs = Array.make nslots [||] in
  let idxs = Array.make nslots (-1) and steps = Array.make nslots [] in
  let returns = Array.make nslots 0.0 and active = Array.make nslots false in
  let out = Array.make count None and next = ref lo in
  let start s =
    if !next < hi then begin
      let idx = !next in
      incr next;
      let action_rng, noise_state = episode_streams idx in
      Evaluator.set_noise_state (Env.evaluator envs.(s)) noise_state;
      let op = Util.Rng.choice action_rng ops in
      obs.(s) <- Trace.span "core.env_reset" (fun () -> Env.reset envs.(s) op);
      rngs.(s) <- action_rng;
      idxs.(s) <- idx;
      steps.(s) <- [];
      returns.(s) <- 0.0;
      active.(s) <- true
    end
  in
  for s = 0 to nslots - 1 do
    start s
  done;
  while Array.exists Fun.id active do
    let live = List.filter (fun s -> active.(s)) (List.init nslots Fun.id) |> Array.of_list in
    let pick a = Array.map (fun s -> a.(s)) live in
    Array.iteri
      (fun k ((result : Env.step_result), transition) ->
        let s = live.(k) in
        steps.(s) <- transition :: steps.(s);
        returns.(s) <- returns.(s) +. result.Env.reward;
        obs.(s) <- result.Env.obs;
        if result.Env.terminal then begin
          let speedup =
            Trace.span "core.current_speedup" (fun () -> Env.current_speedup envs.(s))
          in
          out.(idxs.(s) - lo) <- Some (Array.of_list (List.rev steps.(s)), returns.(s), speedup);
          active.(s) <- false;
          start s
        end)
      (step ~envs:(pick envs) ~rngs:(pick rngs) ~obs:(pick obs))
  done;
  Array.map Option.get out

let mirror ops =
  let env, policy = fresh () in
  let ppo = config.Trainer.ppo in
  let optimizer = Optim.adam ~lr:ppo.Ppo.learning_rate (Policy.params policy) in
  let ppo_policy = Policy.ppo_policy policy in
  let rng = Util.Rng.derive trainer_seed ~stream:(-1) in
  let c = { rows = 0; invalid = 0; discarded = 0 } in
  (* Trainer.train's step_slab, with spans. *)
  let step ~envs ~rngs ~obs =
    let masks = Trace.span "core.env_masks" (fun () -> Array.map Env.masks envs) in
    let acts = Trace.span "nn.act_batch" (fun () -> Policy.act_batch rngs policy ~obs ~masks) in
    c.rows <- c.rows + Array.length obs;
    Array.mapi
      (fun i (action, log_prob, value) ->
        let result = Trace.span "core.env_step" (fun () -> Env.step_hierarchical envs.(i) action) in
        if result.Env.invalid then c.invalid <- c.invalid + 1;
        ( result,
          {
            Ppo.sample = { Policy.s_obs = obs.(i); s_action = action; s_masks = masks.(i) };
            reward = result.Env.reward;
            value;
            log_prob;
            terminal = result.Env.terminal;
          } ))
      acts
  in
  let episodes = ref 0 and consumed_eps = ref 0 and consumed_steps = ref 0 in
  let lines = ref [] in
  for iteration = 1 to mirror_iterations do
    let transitions = ref [] and returns = ref [] and speedups = ref [] and n_steps = ref 0 in
    Trace.group "train.collect" (fun () ->
        let queue = Queue.create () and next_index = ref !episodes in
        while !n_steps < ppo.Ppo.batch_size do
          if Queue.is_empty queue then begin
            let remaining = ppo.Ppo.batch_size - !n_steps in
            let est =
              if !consumed_eps = 0 then 2.0
              else float_of_int !consumed_steps /. float_of_int !consumed_eps
            in
            let wave =
              max 1
                (min
                   (jobs * config.Trainer.inference_batch)
                   (int_of_float (Float.ceil (float_of_int remaining /. est))))
            in
            Array.iter
              (fun ep -> Queue.push ep queue)
              (play_chunk ~env ~ops ~step ~lo:!next_index ~hi:(!next_index + wave));
            next_index := !next_index + wave
          end;
          let ep_steps, ep_return, ep_speedup = Queue.pop queue in
          transitions := ep_steps :: !transitions;
          returns := ep_return :: !returns;
          speedups := Float.max 1e-9 ep_speedup :: !speedups;
          n_steps := !n_steps + Array.length ep_steps;
          incr episodes;
          incr consumed_eps;
          consumed_steps := !consumed_steps + Array.length ep_steps
        done;
        c.discarded <- c.discarded + Queue.length queue);
    let batch = Array.concat (List.rev !transitions) in
    ignore (Trace.span "rl.ppo_update" (fun () -> Ppo.update ppo ppo_policy optimizer batch ~rng));
    lines :=
      mirror_line ~iteration ~mean_return:(Util.Stats.mean !returns)
        ~final_speedup:(Util.Stats.geomean !speedups) ~episodes:!episodes
      :: !lines
  done;
  (env, c, List.rev !lines)

let run_traced ~seed ~seconds:_ =
  let ops = setup ~seed in
  let timed f =
    let t0 = Trace.now () in
    let v = f () in
    (v, Trace.now () -. t0)
  in
  (* The first run warms up; the copy is then timed against the library
     loop it replays. *)
  let reference = reference_lines ops in
  let _, trainer_s = timed (fun () -> reference_lines ops) in
  let (_, _, untraced_lines), untraced = timed (fun () -> mirror ops) in
  Trace.reset ();
  Trace.enabled := true;
  let gc0 = gc_start () in
  let t0 = Trace.now () in
  let env, c, traced_lines = mirror ops in
  let t1 = Trace.now () in
  Trace.enabled := false;
  let gc = gc_since gc0 in
  let s = Trace.summarize () in
  let mismatched =
    List.length
      (List.filter Fun.id
         (List.map2 ( <> ) reference untraced_lines @ List.map2 ( <> ) reference traced_lines))
  in
  let steps = Trace.calls s "core.env_step" and act_calls = Trace.calls s "nn.act_batch" in
  let collect = Trace.total_s s "train.collect" and update = Trace.total_s s "rl.ppo_update" in
  let base, state = evaluator_caches (Evaluator.cache_stats (Env.evaluator env)) in
  let per_iter x = x *. 1e3 /. float_of_int mirror_iterations in
  let metrics =
    [
      m "core.env_step.ms" "ms" (Trace.self_ms s "core.env_step");
      m "core.env_step.calls" "count" (float_of_int steps);
      m "core.env_step.invalid_frac" "frac" (float_of_int c.invalid /. float_of_int (max 1 steps));
      m "core.env_masks.ms" "ms" (Trace.self_ms s "core.env_masks");
      m "nn.act_batch.ms" "ms" (Trace.self_ms s "nn.act_batch");
      m "nn.act_batch.rows_per_call" "rows" (float_of_int c.rows /. float_of_int (max 1 act_calls));
      m "rl.ppo_update.ms" "ms" (Trace.self_ms s "rl.ppo_update");
      m "train.collect_share" "frac" (collect /. (collect +. update));
      m "train.update_share" "frac" (update /. (collect +. update));
      m "perf.base_cache.hit_frac" "frac" (hit_frac base);
      m "perf.state_cache.hit_frac" "frac" (hit_frac state);
      m "gc.minor_mwords" "Mwords" (gc.minor_words /. 1e6);
      m "gc.major_collections" "count" (float_of_int gc.major_collections);
    ]
  in
  {
    layer = metrics;
    untraced_s = untraced;
    traced_s = t1 -. t0;
    window = (t0, t1);
    checked = 2 * mirror_iterations;
    mismatched;
    traced_notes =
      [
        Printf.sprintf
          "%d iterations replayed from Trainer.train's loop: %d of %d statistics lines differ \
           from Trainer.train's"
          mirror_iterations mismatched (2 * mirror_iterations);
        Printf.sprintf
          "ms per iteration: Trainer.train %.2f, untraced copy %.2f, traced copy %.2f; %d \
           speculative episodes discarded"
          (per_iter trainer_s) (per_iter untraced) (per_iter (t1 -. t0)) c.discarded;
      ];
  }

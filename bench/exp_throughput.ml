(* Rollout-engine throughput: episodes/sec and wall-clock of seeded
   training runs at --jobs 1/2/4 (identical results, by construction —
   the digest column proves it), plus batched vs per-state policy
   inference. EXPERIMENTS.md records the committed numbers; on a
   single-core container the jobs > 1 rows measure overhead, not
   speedup. *)

let stat_line (s : Trainer.iteration_stats) =
  Printf.sprintf "%d %.17g %.17g %.17g %.17g %d %d %d" s.Trainer.iteration
    s.Trainer.mean_episode_return s.Trainer.mean_final_speedup
    s.Trainer.best_speedup s.Trainer.measurement_seconds
    s.Trainer.schedules_explored s.Trainer.degraded_measurements
    s.Trainer.episodes

let stats_digest stats =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map stat_line stats)))

let train_once (c : Bench_common.config) ~jobs ~iterations =
  (* Noise + faults on, so the per-episode stream derivation is
     exercised end to end, not just the happy path. *)
  let cfg = Env_config.default in
  let evaluator =
    Evaluator.create ~machine:cfg.Env_config.machine ~noise:0.02
      ~noise_seed:(c.Bench_common.seed + 13) ()
  in
  let faults =
    Faults.create
      ~config:(Faults.flaky ~rate:0.1 ())
      ~seed:(c.Bench_common.seed + 31) ()
  in
  let robust = Robust_evaluator.create ~faults evaluator in
  let env = Env.create ~robust cfg in
  let rng = Util.Rng.create c.Bench_common.seed in
  let policy =
    Policy.create ~hidden:c.Bench_common.hidden ~backbone_layers:2 rng cfg
  in
  let ops =
    [| Linalg.matmul ~m:64 ~n:64 ~k:64 (); Linalg.matmul ~m:128 ~n:128 ~k:64 () |]
  in
  let config =
    {
      Trainer.default_config with
      Trainer.iterations;
      seed = c.Bench_common.seed;
      jobs;
    }
  in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let stats = Trainer.train config env policy ~ops in
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let gc =
    ( Gc.minor_words () -. w0,
      g1.Gc.minor_collections - g0.Gc.minor_collections,
      g1.Gc.major_collections - g0.Gc.major_collections )
  in
  (stats, wall, gc, Evaluator.cache_stats (Env.evaluator env))

let training_throughput c ~iterations =
  Bench_common.subheading
    (Printf.sprintf "training throughput (%d iterations, fault rate 10%%, noise 2%%)"
       iterations)
  ;
  Printf.printf "%6s %12s %14s %14s %12s %7s  %s\n" "jobs" "wall (s)"
    "episodes" "episodes/s" "kwords/ep" "majors" "stats digest";
  let base_rate = ref None in
  let base_digest = ref None in
  List.iter
    (fun jobs ->
      let stats, wall, (minor_w, _minors, majors), cache =
        train_once c ~jobs ~iterations
      in
      let episodes =
        match List.rev stats with [] -> 0 | s :: _ -> s.Trainer.episodes
      in
      let rate = float_of_int episodes /. wall in
      (* Minor-heap words allocated per episode on the main domain
         (boxed floats, closures, lists — Bigarray payloads live off
         the OCaml heap and are not counted). *)
      let kw_per_ep = minor_w /. 1e3 /. float_of_int (max 1 episodes) in
      let digest = stats_digest stats in
      let speedup =
        match !base_rate with
        | None ->
            base_rate := Some rate;
            ""
        | Some r -> Printf.sprintf "  (%.2fx vs jobs=1)" (rate /. r)
      in
      let same =
        match !base_digest with
        | None ->
            base_digest := Some digest;
            ""
        | Some d -> if d = digest then "  identical" else "  MISMATCH"
      in
      Printf.printf "%6d %12.2f %14d %14.1f %12.1f %7d  %s%s%s\n" jobs wall
        episodes rate kw_per_ep majors (String.sub digest 0 12) same speedup;
      if jobs = 4 then begin
        let base = cache.Evaluator.base in
        Bench_common.note
          "base cache: %d hits, %d misses, %d evictions (%d live / %d cap, %d shards)\n"
          base.Util.Sharded_cache.hits base.Util.Sharded_cache.misses
          base.Util.Sharded_cache.evictions base.Util.Sharded_cache.size
          base.Util.Sharded_cache.capacity base.Util.Sharded_cache.shards
      end)
    [ 1; 2; 4 ]

let inference_batching c ~rounds =
  Bench_common.subheading "policy inference: per-state act vs act_batch";
  let cfg = Env_config.default in
  let rng = Util.Rng.create c.Bench_common.seed in
  let policy =
    Policy.create ~hidden:c.Bench_common.hidden ~backbone_layers:2 rng cfg
  in
  let st = Sched_state.init (Linalg.matmul ~m:512 ~n:512 ~k:512 ()) in
  let obs = Observation.extract cfg st in
  let masks = Action_space.masks cfg st in
  Printf.printf "%6s %18s %18s %10s\n" "batch" "scalar (us/act)" "batched (us/act)"
    "speedup";
  List.iter
    (fun batch ->
      let obs_rows = Array.make batch obs in
      let mask_rows = Array.make batch masks in
      let scalar_rng = Util.Rng.create 7 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to rounds do
        for _ = 1 to batch do
          ignore (Policy.act scalar_rng policy ~obs ~masks)
        done
      done;
      let scalar = Unix.gettimeofday () -. t0 in
      let batch_rngs = Array.init batch (fun i -> Util.Rng.create (7 + i)) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to rounds do
        ignore (Policy.act_batch batch_rngs policy ~obs:obs_rows ~masks:mask_rows)
      done;
      let batched = Unix.gettimeofday () -. t0 in
      let per_act t = t /. float_of_int (rounds * batch) *. 1e6 in
      Printf.printf "%6d %18.1f %18.1f %9.2fx\n" batch (per_act scalar)
        (per_act batched) (scalar /. batched))
    [ 1; 8; 32 ]

let run (c : Bench_common.config) =
  Bench_common.heading "Rollout-engine throughput (parallel collection + batched inference)";
  let fastish = c.Bench_common.train_iterations <= 20 in
  training_throughput c ~iterations:(if fastish then 2 else 6);
  inference_batching c ~rounds:(if fastish then 20 else 200)

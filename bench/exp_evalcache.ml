(* Memoized evaluation pipeline: how much of the evaluation bill the
   structural digests, the state-seconds transposition cache and the
   prefix-sharing exhaustive search actually save.

   Three measurements, mirroring the paths the caches sit on:

   1. digest microbench: [Loop_nest.digest] (structural, no printing)
      vs the print+MD5 scheme it replaced in lib/serve;
   2. exhaustive auto-scheduler search: candidates/sec of
      [Auto_scheduler.search_naive] on a cache-disabled evaluator
      (apply_all per candidate, full cost model per evaluation) vs the
      prefix-sharing [Auto_scheduler.search], which prices its distinct
      candidates on forks without the state cache;
   3. --jobs 4 training throughput (noise + faults on), state cache
      off vs on.

   Beam search is not measured: like the exhaustive search, it prices
   on forks without the state cache, so the cache has nothing to
   save there.

   Every memoized run is checked against its naive twin (same best
   schedule, speedup and explored count — the differential suite in
   test/test_evalcache.ml proves bit-identity; here we just refuse to
   report a number for a run that diverged, printing MISMATCH).

   The committed full run is BENCH_evalcache.json; EXPERIMENTS.md
   records the interpretation. *)

let now () = Unix.gettimeofday ()

(* -- 1. digest microbench --------------------------------------------- *)

type digest_point = {
  nest_name : string;
  structural_ns : float;
  print_md5_ns : float;
}

let time_per_call ~iters f =
  (* One warm-up call keeps one-time lowering/alloc effects out. *)
  ignore (Sys.opaque_identity (f ()));
  let t0 = now () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int iters *. 1e9

let digest_bench ~iters =
  List.map
    (fun (nest_name, op) ->
      let nest = Lower.to_loop_nest op in
      let structural_ns =
        time_per_call ~iters (fun () -> Loop_nest.digest nest)
      in
      let print_md5_ns =
        time_per_call ~iters (fun () ->
            Digest.to_hex (Digest.string (Ir_printer.to_string nest)))
      in
      { nest_name; structural_ns; print_md5_ns })
    [
      ("matmul_64", Linalg.matmul ~m:64 ~n:64 ~k:64 ());
      ( "conv2d_28",
        Linalg.conv2d
          {
            Linalg.batch = 1;
            in_h = 28;
            in_w = 28;
            channels = 32;
            kernel_h = 3;
            kernel_w = 3;
            filters = 64;
            stride = 1;
          } );
    ]

(* -- 2. search: naive vs prefix-sharing --------------------------------- *)

type search_point = {
  label : string;
  wall_s : float;
  evaluated : int;  (* logical evaluations (cost-model calls saved or not) *)
  state_hits : int;
  state_misses : int;
}

let state_stats ev =
  match (Evaluator.cache_stats ev).Evaluator.state with
  | None -> (0, 0)
  | Some s -> (s.Util.Sharded_cache.hits, s.Util.Sharded_cache.misses)

let fingerprint (r : Auto_scheduler.result) =
  Printf.sprintf "%s|%.17g|%d"
    (Schedule.to_string r.Auto_scheduler.best_schedule)
    r.Auto_scheduler.best_speedup r.Auto_scheduler.explored

let mismatch = ref false

let require_equal what a b =
  if a <> b then begin
    mismatch := true;
    Printf.printf "MISMATCH: %s\n  naive:    %s\n  memoized: %s\n" what a b
  end

let exhaustive_bench ~budget ?(tile_sizes = []) op =
  let config =
    {
      Auto_scheduler.default_config with
      Auto_scheduler.max_schedules = budget;
      tile_sizes;
    }
  in
  let run label search ev =
    let t0 = now () in
    let r = search ~config ev op in
    let wall_s = now () -. t0 in
    let state_hits, state_misses = state_stats ev in
    ( { label; wall_s; evaluated = Evaluator.explored ev; state_hits; state_misses },
      r )
  in
  let naive_pt, naive_r =
    run "naive (no caches, apply_all per candidate)"
      (fun ~config ev op -> Auto_scheduler.search_naive ~config ev op)
      (Evaluator.create ~state_cache_capacity:0 ())
  in
  let dfs_pt, dfs_r =
    run "prefix-sharing DFS, uncached forks"
      (fun ~config ev op -> Auto_scheduler.search ~config ev op)
      (Evaluator.create ())
  in
  require_equal "exhaustive naive vs prefix-sharing" (fingerprint naive_r)
    (fingerprint dfs_r);
  [ naive_pt; dfs_pt ]

(* -- 3. parallel training throughput ---------------------------------- *)

type train_point = {
  t_label : string;
  t_wall_s : float;
  episodes : int;
  t_state_hits : int;
  t_state_misses : int;
}

let train_once (c : Bench_common.config) ~state_cache ~jobs ~iterations ~ops =
  let cfg = Env_config.default in
  let evaluator =
    Evaluator.create ~machine:cfg.Env_config.machine ~noise:0.02
      ~noise_seed:(c.Bench_common.seed + 13)
      ~state_cache_capacity:(if state_cache then 65536 else 0)
      ()
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
  let config =
    {
      Trainer.default_config with
      Trainer.iterations;
      seed = c.Bench_common.seed;
      jobs;
    }
  in
  let t0 = now () in
  let stats = Trainer.train config env policy ~ops in
  let t_wall_s = now () -. t0 in
  let episodes =
    match List.rev stats with [] -> 0 | s :: _ -> s.Trainer.episodes
  in
  let t_state_hits, t_state_misses = state_stats evaluator in
  {
    t_label = (if state_cache then "state cache on" else "state cache off");
    t_wall_s;
    episodes;
    t_state_hits;
    t_state_misses;
  }

(* -- harness ----------------------------------------------------------- *)

let rate (p : search_point) = float_of_int p.evaluated /. p.wall_s

let hit_pct hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total

let print_search_table points =
  Printf.printf "%-42s %10s %10s %12s %9s\n" "variant" "wall (s)" "evals"
    "evals/sec" "hit rate";
  let base = rate (List.hd points) in
  List.iter
    (fun p ->
      Printf.printf "%-42s %10.4f %10d %12.0f %8.1f%%  (%.2fx)\n" p.label
        p.wall_s p.evaluated (rate p)
        (hit_pct p.state_hits p.state_misses)
        (rate p /. base))
    points

let json_of_results ~quick (dig : digest_point list)
    (exhaustive : search_point list) (train : train_point list) =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"evalcache\",\n";
  add "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  add "  \"digest\": [\n";
  List.iteri
    (fun i d ->
      add
        "    {\"nest\": \"%s\", \"structural_ns\": %.1f, \"print_md5_ns\": \
         %.1f, \"speedup\": %.1f}%s\n"
        d.nest_name d.structural_ns d.print_md5_ns
        (d.print_md5_ns /. d.structural_ns)
        (if i = List.length dig - 1 then "" else ","))
    dig;
  add "  ],\n";
  let search_json key points =
    let base = rate (List.hd points) in
    add "  \"%s\": [\n" key;
    List.iteri
      (fun i p ->
        add
          "    {\"variant\": \"%s\", \"wall_seconds\": %.4f, \"evaluations\": \
           %d, \"evals_per_sec\": %.0f, \"state_hit_rate_pct\": %.1f, \
           \"speedup_vs_naive\": %.2f}%s\n"
          p.label p.wall_s p.evaluated (rate p)
          (hit_pct p.state_hits p.state_misses)
          (rate p /. base)
          (if i = List.length points - 1 then "" else ","))
      points;
    add "  ],\n"
  in
  search_json "exhaustive" exhaustive;
  add "  \"train_jobs4\": [\n";
  let t_base = List.hd train in
  let t_base_rate =
    float_of_int t_base.episodes /. t_base.t_wall_s
  in
  List.iteri
    (fun i t ->
      let r = float_of_int t.episodes /. t.t_wall_s in
      add
        "    {\"variant\": \"%s\", \"wall_seconds\": %.2f, \"episodes\": %d, \
         \"episodes_per_sec\": %.1f, \"state_hit_rate_pct\": %.1f, \
         \"speedup_vs_off\": %.2f}%s\n"
        t.t_label t.t_wall_s t.episodes r
        (hit_pct t.t_state_hits t.t_state_misses)
        (r /. t_base_rate)
        (if i = List.length train - 1 then "" else ","))
    train;
  add "  ],\n";
  add "  \"mismatch\": %b\n" !mismatch;
  add "}\n";
  Buffer.contents b

let run ?(quick = false) (c : Bench_common.config) =
  mismatch := false;
  Bench_common.heading
    "memoized evaluation pipeline: digests, transposition cache, prefix sharing";

  Bench_common.subheading "structural digest vs print+MD5 (ns per digest)";
  let dig = digest_bench ~iters:(if quick then 2000 else 20000) in
  List.iter
    (fun d ->
      Printf.printf "%-12s structural %8.0f ns | print+MD5 %8.0f ns | %.1fx\n"
        d.nest_name d.structural_ns d.print_md5_ns
        (d.print_md5_ns /. d.structural_ns))
    dig;

  Bench_common.subheading "exhaustive auto-scheduler search (prefix-sharing DFS)";
  (* A 7-loop conv: deep nests are where the cost model is expensive
     relative to a cache probe. tile_sizes restricted so the space
     (~11k candidates with the im2col twin) stays exhaustive. *)
  let ex_op =
    Linalg.conv2d
      {
        Linalg.batch = 1;
        in_h = 14;
        in_w = 14;
        channels = 8;
        kernel_h = 3;
        kernel_w = 3;
        filters = 16;
        stride = 1;
      }
  in
  let exhaustive = exhaustive_bench ~budget:20000 ~tile_sizes:[ 2; 4 ] ex_op in
  print_search_table exhaustive;

  Bench_common.subheading "training throughput, --jobs 4 (noise 2%, faults 10%)";
  let iterations = if quick then 2 else 4 in
  (* Deep nests again: on shallow matmuls the policy forward pass, not
     the cost model, dominates an episode step and the cache's effect
     drowns in scheduler noise. *)
  let train_ops = [| ex_op; Linalg.matmul ~m:128 ~n:128 ~k:64 () |] in
  let train =
    [
      train_once c ~state_cache:false ~jobs:4 ~iterations ~ops:train_ops;
      train_once c ~state_cache:true ~jobs:4 ~iterations ~ops:train_ops;
    ]
  in
  List.iter
    (fun t ->
      Printf.printf "%-16s %8.2f s %6d episodes %8.1f eps/s  hit rate %.1f%%\n"
        t.t_label t.t_wall_s t.episodes
        (float_of_int t.episodes /. t.t_wall_s)
        (hit_pct t.t_state_hits t.t_state_misses))
    train;

  let json = json_of_results ~quick dig exhaustive train in
  let path = "BENCH_evalcache.json" in
  (* Atomic (temp + rename): a reader or a crash mid-run never sees a
     half-written artifact. *)
  Util.Atomic_file.write_string ~path json;
  Printf.printf "\nwrote %s%s\n" path
    (if !mismatch then " (MISMATCH present!)" else "")

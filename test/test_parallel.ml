(* The parallel rollout engine's contracts: pure stream derivation,
   bit-reproducibility of seeded training across --jobs values
   (iteration stats AND checkpoint bytes), batched inference matching
   per-state inference draw for draw, the sharded cache under a
   multi-domain hammer, and the domain pool itself. *)

(* ------------------------------------------------------------------ *)
(* Util.Rng.derive                                                     *)

let test_derive_pure () =
  let a = Util.Rng.derive 42 ~stream:7 in
  let b = Util.Rng.derive 42 ~stream:7 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_derive_streams_decorrelated () =
  (* Adjacent stream ids (the per-episode pattern) must not collide on
     their first outputs; also cover the reserved negative ids. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun stream ->
      let v = Util.Rng.int64 (Util.Rng.derive 42 ~stream) in
      Alcotest.(check bool)
        (Printf.sprintf "stream %d distinct" stream)
        false (Hashtbl.mem seen v);
      Hashtbl.add seen v ())
    [ -2; -1; 0; 1; 2; 3; 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* Seeded training is identical for any jobs value                     *)

let small_ops = [| Linalg.matmul ~m:8 ~n:12 ~k:16 (); Linalg.add [| 32; 32 |] |]

let stats_key (s : Trainer.iteration_stats) =
  Printf.sprintf "%d %.17g %.17g %.17g %.17g %d %d %d" s.Trainer.iteration
    s.Trainer.mean_episode_return s.Trainer.mean_final_speedup
    s.Trainer.best_speedup s.Trainer.measurement_seconds
    s.Trainer.schedules_explored s.Trainer.degraded_measurements
    s.Trainer.episodes

let noisy_faulty_env () =
  let cfg = Env_config.default in
  let evaluator = Evaluator.create ~noise:0.05 ~noise_seed:11 () in
  let faults = Faults.create ~config:(Faults.flaky ~rate:0.15 ()) ~seed:8 () in
  let robust = Robust_evaluator.create ~faults evaluator in
  Env.create ~robust cfg

let train_with ~jobs ~checkpoint_path =
  let env = noisy_faulty_env () in
  let cfg = Env_config.default in
  let policy =
    Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 42) cfg
  in
  let config =
    {
      Trainer.default_config with
      Trainer.iterations = 4;
      seed = 42;
      jobs;
      checkpoint_path = Some checkpoint_path;
      checkpoint_every = 2;
    }
  in
  Trainer.train config env policy ~ops:small_ops

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let cleanup path =
  List.iter
    (fun ext -> try Sys.remove (path ^ ext) with Sys_error _ -> ())
    [ ".meta"; ".params"; ".optim" ]

let test_jobs_bit_reproducible () =
  let dir = Filename.get_temp_dir_name () in
  let p1 = Filename.concat dir "mlir_rl_par_j1"
  and p4 = Filename.concat dir "mlir_rl_par_j4" in
  cleanup p1;
  cleanup p4;
  let s1 = train_with ~jobs:1 ~checkpoint_path:p1 in
  let s4 = train_with ~jobs:4 ~checkpoint_path:p4 in
  Alcotest.(check int) "same iteration count" (List.length s1) (List.length s4);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "iteration %d stats" (i + 1))
        (stats_key a) (stats_key b))
    (List.combine s1 s4);
  (* The checkpoints must agree byte for byte — except the .meta, which
     is identical too because accounting is merged in episode order. *)
  List.iter
    (fun ext ->
      Alcotest.(check bool)
        (ext ^ " bytes identical")
        true
        (read_file (p1 ^ ext) = read_file (p4 ^ ext)))
    [ ".meta"; ".params"; ".optim" ];
  cleanup p1;
  cleanup p4

(* ------------------------------------------------------------------ *)
(* Batched inference == per-state inference                            *)

let test_act_batch_matches_singletons () =
  let cfg = Env_config.default in
  let policy =
    Policy.create ~hidden:16 ~backbone_layers:2 (Util.Rng.create 3) cfg
  in
  (* Distinct observations: a few steps into two different nests. *)
  let states =
    [|
      Sched_state.init (Linalg.matmul ~m:64 ~n:64 ~k:64 ());
      Sched_state.init (Linalg.matmul ~m:128 ~n:32 ~k:16 ());
      Sched_state.init (Linalg.add [| 64; 64 |]);
      Sched_state.init (Linalg.matmul ~m:8 ~n:12 ~k:16 ());
    |]
  in
  let obs = Array.map (Observation.extract cfg) states in
  let masks = Array.map (Action_space.masks cfg) states in
  let n = Array.length states in
  let batch_rngs = Array.init n (fun i -> Util.Rng.create (100 + i)) in
  let single_rngs = Array.init n (fun i -> Util.Rng.create (100 + i)) in
  let batched = Policy.act_batch batch_rngs policy ~obs ~masks in
  Array.iteri
    (fun i (action, logp, value) ->
      let singleton =
        Policy.act_batch
          [| single_rngs.(i) |]
          policy
          ~obs:[| obs.(i) |]
          ~masks:[| masks.(i) |]
      in
      let a1, l1, v1 = singleton.(0) in
      Alcotest.(check bool)
        (Printf.sprintf "row %d action" i)
        true (action = a1);
      Alcotest.(check (float 0.0)) (Printf.sprintf "row %d logp" i) l1 logp;
      Alcotest.(check (float 0.0)) (Printf.sprintf "row %d value" i) v1 value;
      Alcotest.(check int64)
        (Printf.sprintf "row %d rng position" i)
        (Util.Rng.state single_rngs.(i))
        (Util.Rng.state batch_rngs.(i)))
    batched

let test_act_batch_matches_scalar_act () =
  (* Mixed batches of distinct real env states, whose rows take the
     tiling, parallelization and interchange branches: every row of
     [act_batch] equals a singleton [act] on that row from the same rng
     state — action, log-prob, value and rng position — and every row of
     [act_greedy_batch] a singleton [act_greedy], whichever rows and
     branches share the batch. *)
  let cfg = Env_config.default in
  let policy =
    Policy.create ~hidden:16 ~backbone_layers:2 (Util.Rng.create 5) cfg
  in
  let states = Test_helpers.policy_states cfg policy in
  let n = Array.length states in
  Alcotest.(check bool) "at least 16 distinct states" true (n >= 16);
  let seed i = 200 + i in
  let singles =
    Array.init n (fun i ->
        let rng = Util.Rng.create (seed i) in
        let obs, masks = states.(i) in
        let r = Policy.act rng policy ~obs ~masks in
        (r, Util.Rng.state rng))
  in
  let transform i =
    let (a, _, _), _ = singles.(i) in
    a.Action_space.transform
  in
  let rows_taking t = List.filter (fun i -> transform i = t) (List.init n Fun.id) in
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool) (name ^ " rows present") true (rows_taking t <> []))
    [
      ("tiling", Action_space.t_tile);
      ("parallelization", Action_space.t_parallelize);
      ("interchange", Action_space.t_interchange);
    ];
  let bits = Int64.bits_of_float in
  let check_batch label rows =
    let rows = Array.of_list rows in
    let obs = Array.map (fun i -> fst states.(i)) rows in
    let masks = Array.map (fun i -> snd states.(i)) rows in
    let rngs = Array.map (fun i -> Util.Rng.create (seed i)) rows in
    let batched = Policy.act_batch rngs policy ~obs ~masks in
    let greedy = Policy.act_greedy_batch policy ~obs ~masks in
    Array.iteri
      (fun j i ->
        let what s = Printf.sprintf "%s row %d %s" label i s in
        let (a, l, v), pos = singles.(i) and a', l', v' = batched.(j) in
        Alcotest.(check bool) (what "action") true (a = a');
        Alcotest.(check int64) (what "logp") (bits l) (bits l');
        Alcotest.(check int64) (what "value") (bits v) (bits v');
        Alcotest.(check int64) (what "rng position") pos (Util.Rng.state rngs.(j));
        Alcotest.(check bool) (what "greedy action") true
          (greedy.(j) = Policy.act_greedy policy ~obs:obs.(j) ~masks:masks.(j)))
      rows
  in
  let all = List.init n Fun.id in
  check_batch "mixed" all;
  check_batch "reversed" (List.rev all);
  check_batch "no interchange"
    (List.filter (fun i -> transform i <> Action_space.t_interchange) all)

(* ------------------------------------------------------------------ *)
(* Sharded cache                                                       *)

let test_cache_basics () =
  let c = Util.Sharded_cache.create ~shards:4 ~capacity:8 () in
  Alcotest.(check (option int)) "miss" None (Util.Sharded_cache.find_opt c "a");
  Util.Sharded_cache.add c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Util.Sharded_cache.find_opt c "a");
  let v = Util.Sharded_cache.find_or_compute c "b" (fun () -> 2) in
  Alcotest.(check int) "computed" 2 v;
  let v = Util.Sharded_cache.find_or_compute c "b" (fun () -> 99) in
  Alcotest.(check int) "memoized" 2 v;
  let s = Util.Sharded_cache.stats c in
  Alcotest.(check int) "hits" 2 s.Util.Sharded_cache.hits;
  Alcotest.(check int) "misses" 2 s.Util.Sharded_cache.misses

let test_cache_eviction () =
  let capacity = 16 in
  let c = Util.Sharded_cache.create ~shards:4 ~capacity () in
  for i = 0 to 199 do
    Util.Sharded_cache.add c (string_of_int i) i
  done;
  let s = Util.Sharded_cache.stats c in
  Alcotest.(check bool) "bounded" true (s.Util.Sharded_cache.size <= capacity);
  Alcotest.(check bool) "evicted" true (s.Util.Sharded_cache.evictions > 0)

let test_cache_hammer () =
  (* Four domains pound overlapping key ranges through find_or_compute;
     every lookup must return the key's own value, and the cache must
     stay within its bound. *)
  let c = Util.Sharded_cache.create ~shards:8 ~capacity:256 () in
  let errors = Atomic.make 0 in
  let worker w () =
    let rng = Util.Rng.create (1000 + w) in
    for _ = 1 to 5_000 do
      let k = Util.Rng.int rng 512 in
      let v =
        Util.Sharded_cache.find_or_compute c (string_of_int k) (fun () -> k * 3)
      in
      if v <> k * 3 then Atomic.incr errors
    done
  in
  let domains = Array.init 4 (fun w -> Domain.spawn (worker w)) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no wrong values" 0 (Atomic.get errors);
  let s = Util.Sharded_cache.stats c in
  Alcotest.(check bool) "bounded under contention" true
    (s.Util.Sharded_cache.size <= 256);
  Alcotest.(check int) "accounted every lookup" 20_000
    (s.Util.Sharded_cache.hits + s.Util.Sharded_cache.misses)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)

let test_pool_map_array () =
  let pool = Util.Domain_pool.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      let out =
        Util.Domain_pool.map_array pool (fun x -> x * x)
          (Array.init 50 (fun i -> i))
      in
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "elt %d" i) (i * i) v)
        out)

let test_pool_exception_propagates () =
  let pool = Util.Domain_pool.create ~size:2 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      let p = Util.Domain_pool.submit pool (fun () -> failwith "boom") in
      Alcotest.check_raises "worker exception re-raised" (Failure "boom")
        (fun () -> ignore (Util.Domain_pool.await p)))

let test_pool_shutdown_idempotent () =
  let pool = Util.Domain_pool.create ~size:2 in
  let p = Util.Domain_pool.submit pool (fun () -> 41 + 1) in
  Alcotest.(check int) "queued task ran" 42 (Util.Domain_pool.await p);
  Util.Domain_pool.shutdown pool;
  Util.Domain_pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Domain_pool.submit: pool is shut down") (fun () ->
      ignore (Util.Domain_pool.submit pool (fun () -> 0)))

let test_pool_concurrent_shutdown () =
  (* Several domains race shutdown: exactly one joins the workers, the
     rest must block until the join completes, and every caller must
     return with the workers gone. *)
  let pool = Util.Domain_pool.create ~size:2 in
  let p = Util.Domain_pool.submit pool (fun () -> 7 * 6) in
  Alcotest.(check int) "task before the race" 42 (Util.Domain_pool.await p);
  let racers =
    Array.init 3 (fun _ -> Domain.spawn (fun () -> Util.Domain_pool.shutdown pool))
  in
  Util.Domain_pool.shutdown pool;
  Array.iter Domain.join racers;
  Alcotest.check_raises "pool closed after the race"
    (Invalid_argument "Domain_pool.submit: pool is shut down") (fun () ->
      ignore (Util.Domain_pool.submit pool (fun () -> 0)))

let test_pool_survives_raising_tasks () =
  (* A task that raises must not take its worker down: with one worker,
     a later task can only run if the worker survived. *)
  let pool = Util.Domain_pool.create ~size:1 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      let bad = Util.Domain_pool.submit pool (fun () -> failwith "kaboom") in
      Alcotest.check_raises "exception surfaced at await" (Failure "kaboom")
        (fun () -> ignore (Util.Domain_pool.await bad));
      let good = Util.Domain_pool.submit pool (fun () -> "alive") in
      Alcotest.(check string) "worker survived the raising task" "alive"
        (Util.Domain_pool.await good))

let suite =
  [
    Alcotest.test_case "derive is pure" `Quick test_derive_pure;
    Alcotest.test_case "derive streams decorrelated" `Quick
      test_derive_streams_decorrelated;
    Alcotest.test_case "jobs=1 and jobs=4 bit-identical (stats + checkpoints)"
      `Slow test_jobs_bit_reproducible;
    Alcotest.test_case "act_batch rows = singleton batches" `Quick
      test_act_batch_matches_singletons;
    Alcotest.test_case "act_batch = scalar act" `Quick
      test_act_batch_matches_scalar_act;
    Alcotest.test_case "sharded cache basics" `Quick test_cache_basics;
    Alcotest.test_case "sharded cache eviction bound" `Quick test_cache_eviction;
    Alcotest.test_case "sharded cache 4-domain hammer" `Slow test_cache_hammer;
    Alcotest.test_case "pool map_array ordered" `Quick test_pool_map_array;
    Alcotest.test_case "pool exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool shutdown idempotent" `Quick
      test_pool_shutdown_idempotent;
    Alcotest.test_case "pool shutdown races are safe" `Quick
      test_pool_concurrent_shutdown;
    Alcotest.test_case "pool survives raising tasks" `Quick
      test_pool_survives_raising_tasks;
  ]

(* Tests for Util.Rng, Util.Stats, Util.Atomic_file and Util.Metrics. *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Util.Rng.create 42 in
  let c = Util.Rng.split a in
  Alcotest.(check bool) "split differs from parent"
    (Util.Rng.int64 a <> Util.Rng.int64 c)
    true

let test_rng_copy () =
  let a = Util.Rng.create 7 in
  ignore (Util.Rng.int64 a);
  let b = Util.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Util.Rng.int64 a)
    (Util.Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Util.Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_zero () =
  let rng = Util.Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Util.Rng.int rng 0))

let test_rng_uniform_range () =
  let rng = Util.Rng.create 5 in
  for _ = 1 to 10_000 do
    let u = Util.Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_uniform_mean () =
  let rng = Util.Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Util.Rng.uniform rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Util.Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let g = Util.Rng.gaussian rng in
    sum := !sum +. g;
    sq := !sq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Util.Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Util.Rng.create 9 in
  let picked = Util.Rng.sample_without_replacement rng 5 (Array.init 10 (fun i -> i)) in
  Alcotest.(check int) "five picks" 5 (Array.length picked);
  let module S = Set.Make (Int) in
  Alcotest.(check int) "distinct" 5 (S.cardinal (S.of_list (Array.to_list picked)))

let test_rng_choice_empty () =
  let rng = Util.Rng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Util.Rng.choice rng [||]))

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 4.0 (Util.Stats.geomean [ 2.0; 8.0 ])

let test_stats_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Util.Stats.geomean [ 1.0; 0.0 ]))

let test_stats_median_odd () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Util.Stats.median [ 5.0; 1.0; 3.0 ])

let test_stats_median_even () =
  Alcotest.(check (float 1e-9)) "even" 2.5 (Util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "stddev" 2.0
    (Util.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_min_max () =
  let lo, hi = Util.Stats.min_max [ 3.0; -1.0; 7.0 ] in
  Alcotest.(check (float 1e-9)) "min" (-1.0) lo;
  Alcotest.(check (float 1e-9)) "max" 7.0 hi

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Util.Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Util.Stats.percentile 100.0 xs)

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Util.Stats.mean []))

(* --- Atomic_file failure paths -------------------------------------- *)

(* Tests run as root, which ignores directory permission bits, so the
   unwritable-parent cases are provoked structurally: a parent that is a
   regular file, and a parent that does not exist. Both must fail with
   [Sys_error] and leave nothing behind. *)

let test_atomic_parent_is_file () =
  let file = Filename.temp_file "atomic_parent" ".f" in
  let path = Filename.concat file "out.json" in
  (match Util.Atomic_file.write_string ~path "x" with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "target absent" false (Sys.file_exists path);
  Sys.remove file

let test_atomic_parent_missing () =
  let dir = Filename.temp_file "atomic_gone" "" in
  Sys.remove dir;
  let path = Filename.concat dir "out.json" in
  (match Util.Atomic_file.write_string ~path "x" with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "dir still absent" false (Sys.file_exists dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_exception_cleans_tmp () =
  let dir = Filename.temp_file "atomic_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "data.txt" in
  Util.Atomic_file.write_string ~path "old";
  (match
     Util.Atomic_file.with_out ~path (fun oc ->
         output_string oc "half-written";
         failwith "boom")
   with
  | () -> Alcotest.fail "expected the writer's exception"
  | exception Failure msg -> Alcotest.(check string) "propagates" "boom" msg);
  Alcotest.(check string) "previous content intact" "old" (read_file path);
  Alcotest.(check (list string))
    "no temp file left behind" [ "data.txt" ]
    (Array.to_list (Sys.readdir dir));
  Sys.remove path;
  Sys.rmdir dir

let qcheck_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= mean (AM-GM)" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.01 100.0))
    (fun xs -> Util.Stats.geomean xs <= Util.Stats.mean xs +. 1e-9)

let qcheck_rng_int_in_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.int rng bound in
      v >= 0 && v < bound)

(* -- Metrics collectors ------------------------------------------- *)

let test_metrics_collectors () =
  let m = Util.Metrics.create () in
  let live = ref 3 in
  Util.Metrics.incr m "b_total" ~by:2;
  Util.Metrics.add_collector m (fun () -> [ ("c_total", !live); ("a_total", 1) ]);
  Util.Metrics.add_collector m (fun () -> [ ("a_total", 4) ]);
  Alcotest.(check int) "stored counter" 2 (Util.Metrics.counter m "b_total");
  Alcotest.(check int) "one name sums across collectors" 5
    (Util.Metrics.counter m "a_total");
  live := 7;
  Alcotest.(check int) "collectors are read live" 7
    (Util.Metrics.counter m "c_total");
  Alcotest.(check string) "stats line sorts stored and collected together"
    "a_total=5 b_total=2 c_total=7" (Util.Metrics.stats_line m);
  Alcotest.(check string) "render sorts stored and collected together"
    "# TYPE a_total counter\na_total 5\n# TYPE b_total counter\nb_total 2\n\
     # TYPE c_total counter\nc_total 7\n"
    (Util.Metrics.render m)

let test_metrics_collector_takes_own_lock () =
  (* The collector takes its layer's lock, and another domain bumps the
     registry while holding that lock. Reading collectors under the
     registry lock would deadlock the two domains. *)
  let m = Util.Metrics.create () in
  let layer_lock = Mutex.create () in
  let layer_count = ref 0 in
  Util.Metrics.add_collector m (fun () ->
      Mutex.lock layer_lock;
      let v = !layer_count in
      Mutex.unlock layer_lock;
      [ ("layer_total", v) ]);
  let rounds = 2000 in
  let finished = Atomic.make 0 in
  let bumper =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          Mutex.lock layer_lock;
          incr layer_count;
          Util.Metrics.incr m "bumps_total";
          Mutex.unlock layer_lock
        done;
        Atomic.incr finished)
  in
  let reader =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          ignore (Util.Metrics.render m);
          ignore (Util.Metrics.stats_line m)
        done;
        Atomic.incr finished)
  in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while Atomic.get finished < 2 && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  if Atomic.get finished < 2 then
    Alcotest.fail "a collector read deadlocked against a registry bump";
  Domain.join bumper;
  Domain.join reader;
  Alcotest.(check int) "collected" rounds (Util.Metrics.counter m "layer_total");
  Alcotest.(check int) "stored" rounds (Util.Metrics.counter m "bumps_total")

let test_metrics_merge_collected () =
  let replica hits =
    let m = Util.Metrics.create () in
    Util.Metrics.add_collector m (fun () ->
        [ ("eval_base_cache_hits_total", hits) ]);
    Util.Metrics.render m
  in
  Alcotest.(check string) "collected counters sum across dumps"
    "# TYPE eval_base_cache_hits_total counter\neval_base_cache_hits_total 7\n"
    (Util.Metrics.merge_rendered [ replica 3; replica 4 ])

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int rejects zero" `Quick test_rng_int_rejects_zero;
    Alcotest.test_case "rng uniform range" `Quick test_rng_uniform_range;
    Alcotest.test_case "rng uniform mean" `Quick test_rng_uniform_mean;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng sample w/o replacement" `Quick
      test_rng_sample_without_replacement;
    Alcotest.test_case "rng choice empty" `Quick test_rng_choice_empty;
    Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats geomean non-positive" `Quick
      test_stats_geomean_rejects_nonpositive;
    Alcotest.test_case "stats median odd" `Quick test_stats_median_odd;
    Alcotest.test_case "stats median even" `Quick test_stats_median_even;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats min max" `Quick test_stats_min_max;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "atomic file: parent is a file" `Quick
      test_atomic_parent_is_file;
    Alcotest.test_case "atomic file: parent missing" `Quick
      test_atomic_parent_missing;
    Alcotest.test_case "atomic file: exception cleans tmp" `Quick
      test_atomic_exception_cleans_tmp;
    QCheck_alcotest.to_alcotest qcheck_geomean_le_mean;
    QCheck_alcotest.to_alcotest qcheck_rng_int_in_range;
    Alcotest.test_case "metrics: collectors read with stored counters" `Quick
      test_metrics_collectors;
    Alcotest.test_case "metrics: collector taking its own lock" `Quick
      test_metrics_collector_takes_own_lock;
    Alcotest.test_case "metrics: merge sums collected counters" `Quick
      test_metrics_merge_collected;
  ]

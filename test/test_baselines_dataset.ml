(* TF comparators and the Table 2 dataset generator. *)

let ev () = Evaluator.create ()

(* --- baselines --- *)

let test_expert_schedule_valid () =
  let e = ev () in
  List.iter
    (fun op ->
      let sched, speedup = Tf_baseline.expert_schedule e op in
      Alcotest.(check bool)
        (Linalg.kind_name op ^ " expert applies")
        true
        (Result.is_ok (Sched_state.apply_all op sched));
      Alcotest.(check bool) "positive speedup" true (speedup > 0.0))
    [
      Linalg.matmul ~m:256 ~n:256 ~k:256 ();
      Test_helpers.small_conv ();
      Test_helpers.small_maxpool ();
      Linalg.add [| 256; 256 |];
      Linalg.relu [| 256; 256 |];
    ]

(* The kernel factor the TF model applies over the best expert
   schedule's time. *)
let tf_factor op =
  let e = ev () in
  let _, speedup = Tf_baseline.expert_schedule e op in
  let best = Evaluator.base_seconds e op /. Float.max speedup 1e-9 in
  Tf_baseline.tf_seconds e op /. best

let test_tf_factors_match_calibration () =
  Alcotest.(check (float 1e-9)) "matmul" 7.55
    (tf_factor (Linalg.matmul ~m:2 ~n:2 ~k:2 ()));
  Alcotest.(check (float 1e-9)) "maxpool" 0.24
    (tf_factor (Test_helpers.small_maxpool ()));
  Alcotest.(check (float 1e-9)) "add" 1.05 (tf_factor (Linalg.add [| 2 |]));
  Alcotest.(check (float 1e-9)) "relu" 1.68 (tf_factor (Linalg.relu [| 2 |]));
  Alcotest.(check (float 1e-9)) "conv" 1.16
    (tf_factor (Test_helpers.small_conv ()))

let test_tf_jit_improves_elementwise () =
  let op = Linalg.relu [| 512; 512 |] in
  let e = ev () in
  Alcotest.(check bool) "jit faster than tf on relu" true
    (Tf_baseline.tf_jit_seconds e op < Tf_baseline.tf_seconds e op)

let test_tf_beats_everything_on_pooling () =
  (* The calibrated factor makes TF's fused pooling kernel ~4x faster
     than the best schedule estimate. *)
  let op =
    Linalg.maxpool
      { Linalg.p_batch = 1; p_in_h = 56; p_in_w = 56; p_channels = 64;
        p_kernel = 2; p_stride = 2 }
  in
  let e = ev () in
  let best = Auto_scheduler.search e op in
  let best_seconds =
    Evaluator.base_seconds e op /. best.Auto_scheduler.best_speedup
  in
  Alcotest.(check bool) "tf faster on pooling" true
    (Tf_baseline.tf_seconds e op < best_seconds)

let test_tf_times_deterministic () =
  let op = Linalg.matmul ~m:128 ~n:128 ~k:256 () in
  let e = ev () in
  Alcotest.(check (float 1e-15)) "stable" (Tf_baseline.tf_seconds e op)
    (Tf_baseline.tf_seconds e op)

(* --- dataset --- *)

let test_table2_counts () =
  let split = Generator.generate ~seed:7 () in
  Alcotest.(check int) "1088 train" 1088 (Array.length split.Generator.train);
  Alcotest.(check int) "67 validation" 67 (Array.length split.Generator.validation);
  Alcotest.(check (list (pair string int)))
    "validation histogram matches Table 2"
    [ ("add", 10); ("conv2d", 18); ("matmul", 15); ("maxpool", 10); ("relu", 14) ]
    (Generator.kind_counts split.Generator.validation);
  Alcotest.(check (list (pair string int)))
    "train histogram matches Table 2"
    [ ("add", 248); ("conv2d", 232); ("matmul", 175); ("maxpool", 200); ("relu", 233) ]
    (Generator.kind_counts split.Generator.train)

let test_dataset_deterministic () =
  let a = Generator.generate ~seed:11 () in
  let b = Generator.generate ~seed:11 () in
  Alcotest.(check bool) "same names" true
    (Array.for_all2
       (fun (x : Linalg.t) (y : Linalg.t) -> x.Linalg.op_name = y.Linalg.op_name)
       a.Generator.train b.Generator.train)

let test_dataset_seed_changes () =
  let a = Generator.generate ~seed:11 () in
  let b = Generator.generate ~seed:12 () in
  Alcotest.(check bool) "different shapes somewhere" true
    (Array.exists2
       (fun (x : Linalg.t) (y : Linalg.t) -> x.Linalg.domain <> y.Linalg.domain)
       a.Generator.train b.Generator.train)

let test_dataset_ops_fit_env () =
  (* Every generated op must fit the environment's N/L/D bounds. *)
  let split = Generator.generate ~seed:5 () in
  let cfg = Env_config.default in
  Array.iter
    (fun op ->
      let st = Sched_state.init op in
      let obs = Observation.extract cfg st in
      Alcotest.(check int)
        (op.Linalg.op_name ^ " obs length")
        (Env_config.obs_dim cfg) (Array.length obs))
    (Array.append split.Generator.train split.Generator.validation)

let test_dataset_ops_validate () =
  let split = Generator.generate ~seed:13 () in
  Array.iter
    (fun op ->
      match Linalg.validate op with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" op.Linalg.op_name e)
    split.Generator.validation

let test_dataset_unique_names () =
  let split = Generator.generate ~seed:3 () in
  let module S = Set.Make (String) in
  let names =
    S.of_list
      (Array.to_list
         (Array.map (fun (o : Linalg.t) -> o.Linalg.op_name)
            (Array.append split.Generator.train split.Generator.validation)))
  in
  Alcotest.(check int) "all distinct" (1088 + 67) (S.cardinal names)

let test_random_op_unknown_kind () =
  let rng = Util.Rng.create 1 in
  Alcotest.(check bool) "raises" true
    (match Generator.random_op rng "softmax" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "expert schedules valid" `Quick test_expert_schedule_valid;
    Alcotest.test_case "tf factors calibration" `Quick test_tf_factors_match_calibration;
    Alcotest.test_case "jit improves elementwise" `Quick test_tf_jit_improves_elementwise;
    Alcotest.test_case "tf wins pooling" `Quick test_tf_beats_everything_on_pooling;
    Alcotest.test_case "tf deterministic" `Quick test_tf_times_deterministic;
    Alcotest.test_case "table 2 counts" `Quick test_table2_counts;
    Alcotest.test_case "dataset deterministic" `Quick test_dataset_deterministic;
    Alcotest.test_case "dataset seed changes" `Quick test_dataset_seed_changes;
    Alcotest.test_case "dataset fits env" `Quick test_dataset_ops_fit_env;
    Alcotest.test_case "dataset ops validate" `Quick test_dataset_ops_validate;
    Alcotest.test_case "dataset unique names" `Quick test_dataset_unique_names;
    Alcotest.test_case "unknown kind rejected" `Quick test_random_op_unknown_kind;
  ]

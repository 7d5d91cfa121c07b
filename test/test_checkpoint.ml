(* Crash-recoverable training: checkpoint save/restore roundtrips, and
   the determinism guarantee — k iterations + resume for the rest must
   reproduce an uninterrupted run bit for bit, with and without an
   injected-fault backend. *)

let tmp_prefix name =
  Filename.concat (Filename.get_temp_dir_name ()) ("mlir_rl_ckpt_" ^ name)

let cleanup path = try Sys.remove path with Sys_error _ -> ()

let small_ops = [| Linalg.matmul ~m:8 ~n:12 ~k:16 (); Linalg.add [| 32; 32 |] |]

let train_config ?checkpoint_path ?(checkpoint_every = 2) ~iterations () =
  {
    Trainer.default_config with
    Trainer.iterations;
    seed = 42;
    checkpoint_path;
    checkpoint_every;
  }

let fresh_setup ?(faults = false) () =
  let cfg = Env_config.default in
  let env =
    if faults then begin
      let f = Faults.create ~config:(Faults.flaky ~rate:0.15 ()) ~seed:8 () in
      let robust = Robust_evaluator.create ~faults:f (Evaluator.create ()) in
      Env.create ~robust cfg
    end
    else Env.create cfg
  in
  let policy = Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 42) cfg in
  (env, policy)

let stats_key (s : Trainer.iteration_stats) =
  Printf.sprintf "%d %.9e %.9e %.9e %.9e %d %d" s.Trainer.iteration
    s.Trainer.mean_episode_return s.Trainer.mean_final_speedup
    s.Trainer.best_speedup s.Trainer.measurement_seconds
    s.Trainer.schedules_explored s.Trainer.degraded_measurements

let copy_weights params =
  List.map (fun (p : Autodiff.Param.t) -> Test_helpers.copy_tensor p.Autodiff.Param.data) params

let restore_weights params snapshot =
  List.iter2
    (fun (p : Autodiff.Param.t) snap ->
      for i = 0 to Tensor.numel snap - 1 do
        Tensor.set p.Autodiff.Param.data i (Tensor.get snap i)
      done)
    params snapshot

let weights_equal a b =
  List.for_all2
    (fun x y ->
      let n = Tensor.numel x in
      let ok = ref (n = Tensor.numel y) in
      for i = 0 to n - 1 do
        if Tensor.get x i <> Tensor.get y i then ok := false
      done;
      !ok)
    a b

let test_meta_roundtrip () =
  let path = tmp_prefix "meta" in
  let cfg = Env_config.default in
  let policy = Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 1) cfg in
  let params = Policy.params policy in
  let optimizer = Optim.adam ~lr:1e-3 params in
  let meta =
    {
      Checkpoint.iteration = 7;
      rng_state = 0xdeadbeefL;
      episodes = 58;
      best_speedup = 12.5;
      measurement_seconds = 321.75;
      explored = 99;
      degraded = 3;
      noise_state = -1L;
      fault_state = Some (42L, 17);
    }
  in
  Checkpoint.save ~path meta ~params ~optimizer;
  Alcotest.(check bool) "exists" true (Checkpoint.exists ~path);
  (match Checkpoint.restore ~path ~params ~optimizer with
  | Error e -> Alcotest.fail e
  | Ok m -> Alcotest.(check bool) "meta roundtrips" true (m = meta));
  cleanup path

let test_restore_rejects_garbage () =
  let path = tmp_prefix "garbage" in
  let restore () =
    let params =
      Policy.params
        (Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 1) Env_config.default)
    in
    Checkpoint.restore ~path ~params ~optimizer:(Optim.adam ~lr:1e-3 params)
  in
  let oc = open_out path in
  output_string oc "not a checkpoint\n";
  close_out oc;
  Alcotest.(check bool) "corrupt meta rejected" true (Result.is_error (restore ()));
  cleanup path;
  (* a checkpoint path that is a directory is a load error, not an exception *)
  (try Sys.mkdir path 0o700 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.rmdir path with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "directory meta rejected" true
        (Result.is_error (restore ())))

let test_optim_state_roundtrip () =
  (* Take two Adam steps, save; a third step from the saved point must
     land on the same weights whether the moments come from memory or
     from the reloaded section. *)
  let cfg = Env_config.default in
  let policy = Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 5) cfg in
  let params = Policy.params policy in
  let optimizer = Optim.adam ~lr:1e-2 params in
  let poke () =
    List.iter
      (fun (p : Autodiff.Param.t) ->
        let g = p.Autodiff.Param.grad in
        for i = 0 to Tensor.numel g - 1 do
          Tensor.set g i 0.01
        done)
      params;
    ignore (Optim.step optimizer)
  in
  poke ();
  poke ();
  let section = Test_helpers.written (fun oc -> Optim.write_state oc optimizer) in
  let w2 = copy_weights params in
  poke ();
  let expected = copy_weights params in
  restore_weights params w2;
  (match Optim.read_state (Test_helpers.lines_of section) optimizer with
  | Error e -> Alcotest.fail e
  | Ok () -> ());
  poke ();
  Alcotest.(check bool) "third step reproduced after reload" true
    (weights_equal expected (copy_weights params))

let run_straight ?(faults = false) ~iterations () =
  let env, policy = fresh_setup ~faults () in
  let stats =
    Trainer.train (train_config ~iterations ()) env policy ~ops:small_ops
  in
  (List.map stats_key stats, Policy.params policy)

let run_interrupted ?(faults = false) ~iterations ~kill_after () =
  let path = tmp_prefix (if faults then "resume_f" else "resume") in
  cleanup path;
  (* Phase 1: train kill_after iterations checkpointing every
     iteration, then "crash" (drop everything on the floor). *)
  let env1, policy1 = fresh_setup ~faults () in
  let first =
    Trainer.train
      (train_config ~checkpoint_path:path ~checkpoint_every:1
         ~iterations:kill_after ())
      env1 policy1 ~ops:small_ops
  in
  (* Phase 2: fresh process state, resume from the checkpoint. *)
  let env2, policy2 = fresh_setup ~faults () in
  let rest =
    Trainer.train ~resume:true
      (train_config ~checkpoint_path:path ~checkpoint_every:1 ~iterations ())
      env2 policy2 ~ops:small_ops
  in
  cleanup path;
  (List.map stats_key first @ List.map stats_key rest, Policy.params policy2)

let check_identical ~faults () =
  let iterations = 6 and kill_after = 3 in
  let straight, w_straight = run_straight ~faults ~iterations () in
  let resumed, w_resumed = run_interrupted ~faults ~iterations ~kill_after () in
  Alcotest.(check int) "same number of iteration stats" iterations
    (List.length resumed);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "iteration %d stats" (i + 1)) a b)
    (List.combine straight resumed);
  Alcotest.(check bool) "final weights identical" true
    (Test_helpers.params_equal w_straight w_resumed)

let test_resume_identical_clean () = check_identical ~faults:false ()
let test_resume_identical_faulty () = check_identical ~faults:true ()

let test_resume_missing_checkpoint_starts_fresh () =
  let path = tmp_prefix "missing" in
  cleanup path;
  let env, policy = fresh_setup () in
  let stats =
    Trainer.train ~resume:true
      (train_config ~checkpoint_path:path ~iterations:2 ())
      env policy ~ops:small_ops
  in
  Alcotest.(check int) "ran from scratch" 2 (List.length stats);
  cleanup path

let test_resume_without_path_rejected () =
  let env, policy = fresh_setup () in
  Alcotest.check_raises "resume without checkpoint_path"
    (Invalid_argument "Trainer: resume requested without a checkpoint_path")
    (fun () ->
      ignore
        (Trainer.train ~resume:true
           (train_config ~iterations:1 ())
           env policy ~ops:small_ops))

let test_checkpoint_files_written () =
  let dir = Filename.temp_file "mlir_rl_ckpt_files" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "run.ckpt" in
  let env, policy = fresh_setup () in
  ignore
    (Trainer.train
       (train_config ~checkpoint_path:path ~checkpoint_every:2 ~iterations:3 ())
       env policy ~ops:small_ops);
  Alcotest.(check (list string))
    "exactly one file written" [ "run.ckpt" ]
    (Array.to_list (Sys.readdir dir));
  let params = Policy.params policy in
  (match Checkpoint.restore ~path ~params ~optimizer:(Optim.adam ~lr:1e-3 params) with
  | Error e -> Alcotest.fail e
  | Ok m ->
      (* checkpoint_every=2 over 3 iterations: saved at 2 and at the
         final iteration. *)
      Alcotest.(check int) "meta records last iteration" 3 m.Checkpoint.iteration);
  cleanup path;
  Sys.rmdir dir

(* The bytes training writes, pinned. Every other identity test here
   compares two runs of one build, so a change that moved both runs the
   same way would pass them. The policy half trains 3 iterations at
   hidden 16 with 2 backbone layers on one matmul and one conv, at jobs
   1 and 2, and hashes the final checkpoint file (its meta lines, weight
   records and Adam section, sealed). The surrogate
   half fits 5 epochs on a log the evaluator's tap collected and hashes
   the saved checkpoint. An intended change to these bytes updates the
   constants and says so in CHANGES.md. *)
let pinned_train_fingerprint = "34253d25c0c528f55e181c9315ab42f7"
let pinned_surrogate_fingerprint = "7284153c93b975d595f1a367fb0d1795"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let train_fingerprint ~jobs =
  let path = tmp_prefix (Printf.sprintf "pinned_j%d" jobs) in
  cleanup path;
  let cfg = Env_config.default in
  let policy = Policy.create ~hidden:16 ~backbone_layers:2 (Util.Rng.create 3) cfg in
  let ops =
    Array.map
      (fun spec ->
        match Op_spec.parse spec with Ok op -> op | Error e -> Alcotest.fail e)
      [| "matmul:64x64x64"; "conv2d:8x8x3,k3,f4,s1" |]
  in
  let config =
    {
      Trainer.default_config with
      Trainer.iterations = 3;
      seed = 3;
      jobs;
      checkpoint_path = Some path;
      checkpoint_every = 3;
    }
  in
  ignore (Trainer.train config (Env.create cfg) policy ~ops);
  let bytes = read_file path in
  cleanup path;
  Digest.to_hex (Digest.string bytes)

let surrogate_fingerprint () =
  let log = Surrogate.Dataset_log.create () in
  let ev = Evaluator.create () in
  Surrogate.Dataset_log.attach log ev;
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 48 }
  in
  List.iter
    (fun op -> ignore (Auto_scheduler.search ~config ev op))
    [ Linalg.matmul ~m:16 ~n:16 ~k:16 (); Linalg.add [| 32; 32 |] ];
  Surrogate.Dataset_log.detach ev;
  let model = Surrogate.Model.create ~seed:5 () in
  ignore
    (Surrogate.Model.fit ~epochs:5 ~seed:5 model (Surrogate.Dataset_log.entries log));
  let path = Filename.temp_file "mlir_rl_pinned_surrogate" ".ckpt" in
  Surrogate.Model.save model ~path;
  let bytes = read_file path in
  Sys.remove path;
  Digest.to_hex (Digest.string bytes)

let test_pinned_training_fingerprint () =
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "trained weights and Adam state, jobs %d" jobs)
        pinned_train_fingerprint (train_fingerprint ~jobs))
    [ 1; 2 ];
  Alcotest.(check string) "surrogate checkpoint" pinned_surrogate_fingerprint
    (surrogate_fingerprint ())

(* A step counter that is not a finite, non-negative integer must not
   load: NaN or a negative power in the bias corrections would write
   NaN into the weights on the next step. *)
let test_optim_load_rejects_bad_step () =
  let cfg = Env_config.default in
  let params =
    Policy.params (Policy.create ~hidden:8 ~backbone_layers:1 (Util.Rng.create 5) cfg)
  in
  let optimizer = Optim.adam ~lr:1e-2 params in
  let saved =
    String.split_on_char '\n'
      (Test_helpers.written (fun oc -> Optim.write_state oc optimizer))
  in
  let with_step value =
    (* the value line follows the "adam.step" header *)
    let rec go = function
      | header :: _ :: rest when String.starts_with ~prefix:"adam.step " header ->
          header :: value :: rest
      | line :: rest -> line :: go rest
      | [] -> []
    in
    Optim.read_state (Test_helpers.lines_of (String.concat "\n" (go saved))) optimizer
  in
  Alcotest.(check bool) "an integral step loads" true (Result.is_ok (with_step "0x1.8p+1"));
  List.iter
    (fun value ->
      match with_step value with
      | Ok () -> Alcotest.failf "adam.step %s loaded" value
      | Error e ->
          Alcotest.(check bool) ("error names the step: " ^ e) true
            (Astring_contains.contains e "adam.step"))
    [ "nan"; "inf"; "-inf"; "-0x1p+3"; "0x1.8p+0" ]

(* Figure 8's flat baseline, pinned like the hierarchical run above:
   3 iterations at hidden 16 with 2 backbone layers on one matmul, at
   jobs 1 and 2, hashing the final checkpoint file. *)
let pinned_flat_fingerprint = "4c975f6f595c4b4bbcd74f6f425fe1f2"

let flat_fingerprint ~jobs =
  let path = tmp_prefix (Printf.sprintf "pinned_flat_j%d" jobs) in
  cleanup path;
  let cfg = Env_config.default in
  let op = Linalg.matmul ~m:64 ~n:64 ~k:64 () in
  let policy =
    Flat_policy.create ~hidden:16 ~backbone_layers:2 (Util.Rng.create 3) cfg
      ~n_loops:(Linalg.n_loops op)
  in
  let config =
    {
      Trainer.default_config with
      Trainer.iterations = 3;
      seed = 3;
      jobs;
      checkpoint_path = Some path;
      checkpoint_every = 3;
    }
  in
  ignore (Trainer.train_flat config (Env.create cfg) policy ~ops:[| op |]);
  let bytes = read_file path in
  cleanup path;
  Digest.to_hex (Digest.string bytes)

let test_pinned_flat_fingerprint () =
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "flat weights and Adam state, jobs %d" jobs)
        pinned_flat_fingerprint (flat_fingerprint ~jobs))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "meta roundtrip" `Quick test_meta_roundtrip;
    Alcotest.test_case "corrupt meta rejected" `Quick test_restore_rejects_garbage;
    Alcotest.test_case "optimizer state roundtrip" `Quick test_optim_state_roundtrip;
    Alcotest.test_case "kill+resume = straight run (clean)" `Slow
      test_resume_identical_clean;
    Alcotest.test_case "kill+resume = straight run (faulty backend)" `Slow
      test_resume_identical_faulty;
    Alcotest.test_case "resume with no checkpoint starts fresh" `Quick
      test_resume_missing_checkpoint_starts_fresh;
    Alcotest.test_case "resume without path rejected" `Quick
      test_resume_without_path_rejected;
    Alcotest.test_case "checkpoint files written" `Quick
      test_checkpoint_files_written;
    Alcotest.test_case "pinned training fingerprint" `Quick
      test_pinned_training_fingerprint;
    Alcotest.test_case "optimizer load rejects a bad step" `Quick
      test_optim_load_rejects_bad_step;
    Alcotest.test_case "pinned flat-training fingerprint" `Quick
      test_pinned_flat_fingerprint;
  ]

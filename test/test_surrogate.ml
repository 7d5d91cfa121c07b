(* The learned cost-model surrogate: feature encoding, the evaluation
   log, the trained predictor, the ranker, and the staged search
   wiring.

   The load-bearing properties pinned here:
   - feature vectors are deterministic, fixed-width, and identical
     whether built from a logged state or from (op, candidate) at
     ranking time;
   - [Schedule.dedup_key] is injective exactly where [to_string] is;
   - the evaluation log deduplicates by (digest | machine), rotates at
     capacity, and its save/load/merge cycle round-trips floats exactly
     (hex encoding);
   - training is seeded end to end (same log + seed => bit-identical
     predictions) and a checkpoint round-trip predicts identically;
   - a model fit on a tap-collected log ranks held-out states, and a
     feature that is constant in training cannot blow a prediction up;
   - the ranker's batched scoring agrees with its single-candidate
     path, and its scored-candidate count reaches the evaluator's
     unified cache stats;
   - [Auto_scheduler.search_staged] without a ranker is byte-identical
     to [search] (the no-checkpoint fallback), and with a constant
     ranker plus a full re-rank budget it recovers the exact optimum. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let save_log log ~path =
  match Surrogate.Dataset_log.save log ~path with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "log save: %s" e

(* The feature vector ranking time builds for a candidate, every block
   computed afresh. *)
let features_of ~machine op sched =
  Surrogate.Features.assemble
    ~machine:(Surrogate.Features.machine_block machine)
    ~op:(Surrogate.Features.cached_op_block (Surrogate.Features.create_cache ()) op)
    ~sched:(Surrogate.Features.schedule_block sched)

let machine = Machine.e5_2680_v4

(* ------------------------------------------------------------------ *)
(* Features                                                           *)
(* ------------------------------------------------------------------ *)

let sample_schedules : Schedule.t list =
  [
    [];
    [ Schedule.Vectorize ];
    [ Schedule.Tile [| 0; 32; 8 |]; Schedule.Vectorize ];
    [ Schedule.Parallelize [| 4; 0; 0 |]; Schedule.Swap 0 ];
    [ Schedule.Interchange [| 2; 0; 1 |]; Schedule.Unroll 4 ];
    [ Schedule.Tile [| 16; 16; 16 |]; Schedule.Im2col; Schedule.Vectorize ];
  ]

let test_feature_widths () =
  check_int "dim decomposes" Surrogate.Features.dim
    (Surrogate.Features.machine_dim + Surrogate.Features.op_dim
   + Surrogate.Features.schedule_dim);
  let op = Linalg.matmul ~m:24 ~n:16 ~k:8 () in
  List.iter
    (fun sched ->
      let v = features_of ~machine op sched in
      check_int "vector width" Surrogate.Features.dim (Array.length v);
      let v' = features_of ~machine op sched in
      Array.iteri (fun i x -> check_bits "deterministic" x v'.(i)) v)
    sample_schedules

let test_schedule_block_into_matches () =
  (* The batched ranker reuses one dirty buffer; _into must fully
     overwrite it. *)
  let buf = Array.make Surrogate.Features.schedule_dim 42.0 in
  List.iter
    (fun sched ->
      Array.fill buf 0 (Array.length buf) 42.0;
      Surrogate.Features.schedule_block_into buf sched;
      let fresh = Surrogate.Features.schedule_block sched in
      Array.iteri (fun i x -> check_bits "into = fresh" x buf.(i)) fresh)
    sample_schedules

(* What the measurement tap logs for a priced state equals what ranking
   time builds from the op and the schedule. *)
let test_of_state_matches_of_schedule () =
  let op = Linalg.matmul ~m:24 ~n:16 ~k:8 () in
  let sched = [ Schedule.Tile [| 0; 8; 4 |]; Schedule.Vectorize ] in
  match Sched_state.apply_all op sched with
  | Error e -> Alcotest.fail e
  | Ok state -> (
      let log = Surrogate.Dataset_log.create () in
      let ev = Evaluator.create ~machine () in
      Surrogate.Dataset_log.attach log ev;
      ignore (Evaluator.state_seconds ev state);
      Surrogate.Dataset_log.detach ev;
      match Surrogate.Dataset_log.entries log with
      | [| e |] ->
          let b = features_of ~machine op sched in
          Array.iteri
            (fun i x -> check_bits "state = schedule" x b.(i))
            e.Surrogate.Dataset_log.features
      | es -> Alcotest.failf "expected one logged entry, got %d" (Array.length es))

let test_op_block_cache () =
  let cache = Surrogate.Features.create_cache () in
  let op = Linalg.matmul ~m:24 ~n:16 ~k:8 () in
  let a = Surrogate.Features.cached_op_block cache op in
  let b = Surrogate.Features.cached_op_block cache op in
  check "cached block is shared" true (a == b);
  let fresh = Surrogate.Features.cached_op_block (Surrogate.Features.create_cache ()) op in
  check "a fresh cache computes its own block" false (a == fresh);
  Array.iteri (fun i x -> check_bits "cache = fresh" x a.(i)) fresh

(* ------------------------------------------------------------------ *)
(* Schedule dedup keys                                                *)
(* ------------------------------------------------------------------ *)

let test_dedup_key_injective () =
  let pool =
    sample_schedules
    @ [
        [ Schedule.Tile [| 0; 32; 80 |] ];
        (* adjacent int fields must not merge: T(3,28) vs T(32,8) *)
        [ Schedule.Tile [| 3; 28 |] ];
        [ Schedule.Tile [| 32; 8 |] ];
        [ Schedule.Swap 1; Schedule.Swap 0 ];
        [ Schedule.Swap 0; Schedule.Swap 1 ];
      ]
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun sched ->
      let key = Schedule.dedup_key sched in
      (match Hashtbl.find_opt seen key with
      | Some other ->
          Alcotest.failf "dedup_key collision: %s vs %s"
            (Schedule.to_string other) (Schedule.to_string sched)
      | None -> Hashtbl.add seen key sched))
    pool;
  check_int "all distinct" (List.length pool) (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Dataset log                                                        *)
(* ------------------------------------------------------------------ *)

let entry i =
  {
    Surrogate.Dataset_log.digest = Printf.sprintf "digest-%d" i;
    machine = "test-machine";
    seconds = 1e-6 *. float_of_int (i + 1) /. 3.0;
    features =
      Array.init Surrogate.Features.dim (fun j ->
          Float.sin (float_of_int ((i * Surrogate.Features.dim) + j)));
  }

let test_log_dedup_and_rotation () =
  let log = Surrogate.Dataset_log.create ~capacity:3 () in
  check "first add accepted" true (Surrogate.Dataset_log.add log (entry 0));
  check "duplicate rejected" false (Surrogate.Dataset_log.add log (entry 0));
  for i = 1 to 4 do
    ignore (Surrogate.Dataset_log.add log (entry i))
  done;
  let s = Surrogate.Dataset_log.stats log in
  check_int "added" 5 s.Surrogate.Dataset_log.added;
  check_int "duplicates" 1 s.Surrogate.Dataset_log.duplicates;
  check_int "rotated" 2 s.Surrogate.Dataset_log.rotated;
  check_int "size" 3 s.Surrogate.Dataset_log.size;
  let digests =
    Array.map
      (fun e -> e.Surrogate.Dataset_log.digest)
      (Surrogate.Dataset_log.entries log)
  in
  Alcotest.(check (array string))
    "oldest rotated out"
    [| "digest-2"; "digest-3"; "digest-4" |]
    digests

let test_log_save_load_roundtrip () =
  let log = Surrogate.Dataset_log.create () in
  for i = 0 to 7 do
    ignore (Surrogate.Dataset_log.add log (entry i))
  done;
  let path = Filename.temp_file "surrogate_log" ".tsv" in
  let written = save_log log ~path in
  check_int "rows written" 8 written;
  (match Surrogate.Dataset_log.load ~path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      let a = Surrogate.Dataset_log.entries log in
      let b = Surrogate.Dataset_log.entries loaded in
      check_int "same length" (Array.length a) (Array.length b);
      Array.iteri
        (fun i (ea : Surrogate.Dataset_log.entry) ->
          let eb = b.(i) in
          check_str "digest" ea.Surrogate.Dataset_log.digest
            eb.Surrogate.Dataset_log.digest;
          check_str "machine" ea.Surrogate.Dataset_log.machine
            eb.Surrogate.Dataset_log.machine;
          check_bits "seconds exact" ea.Surrogate.Dataset_log.seconds
            eb.Surrogate.Dataset_log.seconds;
          Array.iteri
            (fun j x -> check_bits "feature exact" x
                eb.Surrogate.Dataset_log.features.(j))
            ea.Surrogate.Dataset_log.features)
        a);
  Sys.remove path

let test_log_save_merge () =
  let path = Filename.temp_file "surrogate_log" ".tsv" in
  let first = Surrogate.Dataset_log.create () in
  ignore (Surrogate.Dataset_log.add first (entry 0));
  ignore (Surrogate.Dataset_log.add first (entry 1));
  ignore (save_log first ~path);
  let second = Surrogate.Dataset_log.create () in
  ignore (Surrogate.Dataset_log.add second (entry 1));
  (* overlaps the file *)
  ignore (Surrogate.Dataset_log.add second (entry 2));
  let written = save_log second ~path in
  check_int "merged row count" 3 written;
  (match Surrogate.Dataset_log.load ~path with
  | Error e -> Alcotest.fail e
  | Ok merged ->
      let digests =
        Array.map
          (fun e -> e.Surrogate.Dataset_log.digest)
          (Surrogate.Dataset_log.entries merged)
      in
      Alcotest.(check (array string))
        "file rows first, memory-only rows appended"
        [| "digest-0"; "digest-1"; "digest-2" |]
        digests);
  Sys.remove path

let test_log_load_rejects_garbage () =
  let path = Filename.temp_file "surrogate_log" ".tsv" in
  let reject label content =
    Util.Atomic_file.write_string ~path content;
    match Surrogate.Dataset_log.load ~path with
    | Ok _ -> Alcotest.failf "%s: expected load error" label
    | Error _ -> ()
  in
  reject "bad magic" "not-a-log\n";
  reject "bad dim" "surrogate-log v1 dim=3\nd\tm\t0x1p-20\t1 2 3\n";
  Sys.remove path;
  (match Surrogate.Dataset_log.load ~path with
  | Ok _ -> Alcotest.fail "missing file: expected load error"
  | Error _ -> ());
  match Surrogate.Dataset_log.load ~path:(Filename.get_temp_dir_name ()) with
  | Ok _ -> Alcotest.fail "directory: expected load error"
  | Error _ -> ()

let test_log_evaluator_tap () =
  let log = Surrogate.Dataset_log.create () in
  let ev = Evaluator.create () in
  Surrogate.Dataset_log.attach log ev;
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 48 }
  in
  ignore (Auto_scheduler.search ~config ev (Linalg.matmul ~m:16 ~n:16 ~k:16 ()));
  Surrogate.Dataset_log.detach ev;
  let n = Surrogate.Dataset_log.length log in
  check "tap collected rows" true (n > 0);
  Array.iter
    (fun (e : Surrogate.Dataset_log.entry) ->
      check_int "feature width" Surrogate.Features.dim
        (Array.length e.Surrogate.Dataset_log.features);
      check "positive seconds" true (e.Surrogate.Dataset_log.seconds > 0.0);
      check_str "machine name" machine.Machine.name
        e.Surrogate.Dataset_log.machine)
    (Surrogate.Dataset_log.entries log);
  (* detached: further searches add nothing *)
  ignore (Auto_scheduler.search ~config ev (Linalg.matmul ~m:8 ~n:8 ~k:8 ()));
  check_int "detach stops collection" n (Surrogate.Dataset_log.length log)

(* ------------------------------------------------------------------ *)
(* Model                                                              *)
(* ------------------------------------------------------------------ *)

(* A synthetic log with learnable structure: log-seconds linear in a
   couple of feature coordinates plus a small nonlinearity. *)
let synthetic_entries n =
  Array.init n (fun i ->
      let features =
        Array.init Surrogate.Features.dim (fun j ->
            Float.sin (float_of_int (((i + 1) * (j + 3)) mod 97) /. 9.7))
      in
      let log_sec =
        -14.0 +. (2.0 *. features.(0)) -. (1.5 *. features.(7))
        +. (0.5 *. features.(3) *. features.(3))
      in
      {
        Surrogate.Dataset_log.digest = Printf.sprintf "syn-%d" i;
        machine = "syn-machine";
        seconds = Float.exp log_sec;
        features;
      })

let test_model_fit_decreases_val_loss () =
  let entries = synthetic_entries 160 in
  let model = Surrogate.Model.create ~seed:11 () in
  let report = Surrogate.Model.fit ~epochs:6 ~seed:11 model entries in
  check "val split nonempty" true (report.Surrogate.Model.val_examples > 0);
  check "train split nonempty" true (report.Surrogate.Model.train_examples > 0);
  let final =
    report.Surrogate.Model.val_losses.(report.Surrogate.Model.epochs_run - 1)
  in
  check "val loss decreased" true
    (final < report.Surrogate.Model.initial_val_loss);
  check "fit rejects fewer than 4 examples" true
    (match
       Surrogate.Model.fit (Surrogate.Model.create ~seed:11 ())
         (synthetic_entries 3)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A feature that never varies in the training split (every machine
   feature of a one-machine log) standardizes with std 1, so an entry
   where it does vary moves the prediction a little, not by orders of
   magnitude. *)
let test_model_constant_feature () =
  let pin v (e : Surrogate.Dataset_log.entry) =
    let features = Array.copy e.Surrogate.Dataset_log.features in
    features.(20) <- v;
    { e with Surrogate.Dataset_log.features }
  in
  let entries = Array.map (pin 0.25) (synthetic_entries 160) in
  let model = Surrogate.Model.create ~seed:11 () in
  ignore (Surrogate.Model.fit ~epochs:6 ~seed:11 model entries);
  let predict (e : Surrogate.Dataset_log.entry) =
    Surrogate.Model.predict model e.Surrogate.Dataset_log.features
  in
  let moved = predict (pin 0.5 entries.(0)) -. predict entries.(0) in
  check
    (Printf.sprintf "prediction moved by %g" moved)
    true
    (Float.abs moved < 1.0)

(* The ranking staged search relies on, learned from what the
   evaluator's measurement tap records during exact searches. *)
let test_model_ranks_tap_log () =
  let log = Surrogate.Dataset_log.create () in
  let ev = Evaluator.create () in
  Surrogate.Dataset_log.attach log ev;
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 100 }
  in
  List.iter
    (fun op -> ignore (Auto_scheduler.search ~config ev op))
    [
      Linalg.matmul ~m:256 ~n:256 ~k:256 ();
      Linalg.matmul ~m:512 ~n:128 ~k:256 ();
      Linalg.add [| 512; 512 |];
      Linalg.relu [| 1024; 256 |];
    ];
  Surrogate.Dataset_log.detach ev;
  let model = Surrogate.Model.create ~seed:7 () in
  let report =
    Surrogate.Model.fit ~epochs:30 model (Surrogate.Dataset_log.entries log)
  in
  check
    (Printf.sprintf "val spearman %.3f > 0.5" report.Surrogate.Model.spearman)
    true
    (report.Surrogate.Model.spearman > 0.5)

let test_model_fit_deterministic () =
  let entries = synthetic_entries 80 in
  let fit_once () =
    let model = Surrogate.Model.create ~seed:5 () in
    ignore (Surrogate.Model.fit ~epochs:3 ~seed:5 model entries);
    model
  in
  let a = fit_once () and b = fit_once () in
  Array.iter
    (fun e ->
      check_bits "same prediction"
        (Surrogate.Model.predict a e.Surrogate.Dataset_log.features)
        (Surrogate.Model.predict b e.Surrogate.Dataset_log.features))
    (synthetic_entries 8)

let test_model_checkpoint_roundtrip () =
  let entries = synthetic_entries 80 in
  let model = Surrogate.Model.create ~seed:7 () in
  ignore (Surrogate.Model.fit ~epochs:3 ~seed:7 model entries);
  let path = Filename.temp_file "surrogate_model" ".ckpt" in
  Surrogate.Model.save model ~path;
  (match Surrogate.Model.load ~path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Array.iter
        (fun e ->
          check_bits "loaded predicts identically"
            (Surrogate.Model.predict model e.Surrogate.Dataset_log.features)
            (Surrogate.Model.predict loaded e.Surrogate.Dataset_log.features))
        (synthetic_entries 8));
  Util.Atomic_file.write_string ~path "surrogate-ckpt v999\n";
  (match Surrogate.Model.load ~path with
  | Ok _ -> Alcotest.fail "bad version: expected load error"
  | Error _ -> ());
  Sys.remove path;
  match Surrogate.Model.load ~path:(Filename.get_temp_dir_name ()) with
  | Ok _ -> Alcotest.fail "directory: expected load error"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Ranker                                                             *)
(* ------------------------------------------------------------------ *)

let trained_model () =
  let model = Surrogate.Model.create ~seed:13 () in
  ignore (Surrogate.Model.fit ~epochs:2 ~seed:13 model (synthetic_entries 80));
  model

let test_ranker_batch_matches_single () =
  let model = trained_model () in
  let op = Linalg.matmul ~m:24 ~n:16 ~k:8 () in
  let scheds = Array.of_list sample_schedules in
  (* separate rankers, so the two paths share no forward buffers *)
  let single = Surrogate.Ranker.create ~machine model in
  let batch = Surrogate.Ranker.create ~machine model in
  let batched = Surrogate.Ranker.schedule_scorer batch op scheds in
  Array.iteri
    (fun i sched ->
      let s = Surrogate.Ranker.score_schedule single op sched in
      check "batch ~ single" true (Float.abs (s -. batched.(i)) < 1e-9))
    scheds

(* The ranker keeps no memo: [cache_stats] reports every candidate it
   scored as a miss, batched or single, repeats included. *)
let test_ranker_cache_counters () =
  let model = trained_model () in
  let ranker = Surrogate.Ranker.create ~machine model in
  let op = Linalg.matmul ~m:24 ~n:16 ~k:8 () in
  let scheds = Array.of_list sample_schedules in
  let first = Surrogate.Ranker.schedule_scorer ranker op scheds in
  let s = Surrogate.Ranker.cache_stats ranker in
  check_int "one miss per candidate scored" (Array.length scheds)
    s.Util.Sharded_cache.misses;
  check_int "no hits" 0 s.Util.Sharded_cache.hits;
  check_int "nothing held" 0 s.Util.Sharded_cache.size;
  let v = Surrogate.Ranker.score_schedule ranker op scheds.(5) in
  let again = Surrogate.Ranker.schedule_scorer ranker op scheds in
  let s' = Surrogate.Ranker.cache_stats ranker in
  check_int "repeats are scored again" ((2 * Array.length scheds) + 1)
    s'.Util.Sharded_cache.misses;
  check_int "still no hits" 0 s'.Util.Sharded_cache.hits;
  check "single score is finite" true (Float.is_finite v);
  Array.iteri (fun i x -> check_bits "rescored bit for bit" x again.(i)) first

let test_ranker_attaches_to_evaluator () =
  let model = trained_model () in
  let ranker = Surrogate.Ranker.create ~machine model in
  let ev = Evaluator.create () in
  check "no surrogate group before attach" true
    ((Evaluator.cache_stats ev).Evaluator.surrogate = None);
  Surrogate.Ranker.attach ranker ev;
  let op = Linalg.matmul ~m:24 ~n:16 ~k:8 () in
  ignore
    (Surrogate.Ranker.schedule_scorer ranker op (Array.of_list sample_schedules));
  (match (Evaluator.cache_stats ev).Evaluator.surrogate with
  | None -> Alcotest.fail "surrogate group missing after attach"
  | Some s ->
      check "live counters" true (s.Util.Sharded_cache.misses > 0));
  let counters = Evaluator.cache_counters (Evaluator.cache_stats ev) in
  check "rendered in unified counters" true
    (List.mem_assoc "eval_surrogate_cache_misses_total" counters)

(* ------------------------------------------------------------------ *)
(* Staged search                                                      *)
(* ------------------------------------------------------------------ *)

let fingerprint (r : Auto_scheduler.result) =
  Printf.sprintf "%s|%.17g|%d"
    (Schedule.to_string r.Auto_scheduler.best_schedule)
    r.Auto_scheduler.best_speedup r.Auto_scheduler.explored

let test_staged_fallback_identical () =
  (* No ranker, no checkpoint: search_staged must be the exact search,
     byte for byte — exhaustive and sampled regimes both. *)
  List.iter
    (fun (op, budget) ->
      let config =
        {
          Auto_scheduler.default_config with
          Auto_scheduler.max_schedules = budget;
        }
      in
      let a = Auto_scheduler.search ~config (Evaluator.create ()) op in
      let b = Auto_scheduler.search_staged ~config (Evaluator.create ()) op in
      check_str "byte-identical fallback" (fingerprint a) (fingerprint b))
    [
      (Linalg.matmul ~m:16 ~n:16 ~k:16 (), 400);
      (Linalg.matmul ~m:48 ~n:48 ~k:48 (), 200) (* sampled: space > budget *);
    ]

let test_staged_full_rerank_recovers_exact () =
  (* A constant (useless) ranker with a re-rank budget covering every
     candidate must still find the exact optimum: ranking only orders,
     it never discards below rerank_k. *)
  let op = Linalg.matmul ~m:16 ~n:16 ~k:16 () in
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 400 }
  in
  let exact = Auto_scheduler.search ~config (Evaluator.create ()) op in
  let staged =
    Auto_scheduler.search_staged ~config
      ~ranker:(fun scheds -> Array.make (Array.length scheds) 0.0)
      ~rerank_k:max_int (Evaluator.create ()) op
  in
  check_bits "same best speedup" exact.Auto_scheduler.best_speedup
    staged.Auto_scheduler.best_speedup;
  check_str "same best schedule"
    (Schedule.to_string exact.Auto_scheduler.best_schedule)
    (Schedule.to_string staged.Auto_scheduler.best_schedule)

let test_staged_real_ranker_budgeted () =
  let model = trained_model () in
  let op = Linalg.matmul ~m:16 ~n:16 ~k:16 () in
  let ranker = Surrogate.Ranker.create ~machine model in
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 400 }
  in
  let r =
    Auto_scheduler.search_staged ~config
      ~ranker:(Surrogate.Ranker.schedule_scorer ranker op)
      ~rerank_k:32 (Evaluator.create ()) op
  in
  check "exact evals bounded by rerank_k (+trivial)" true
    (r.Auto_scheduler.explored <= 33);
  check "found a speedup" true (r.Auto_scheduler.best_speedup >= 1.0);
  match Sched_state.apply_all op r.Auto_scheduler.best_schedule with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "staged best schedule does not apply: %s" e

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

(* Once a ranker is attached, the evaluator's cache counters carry its
   scored count: one miss per candidate the network scored, repeats
   included, and no hits. *)
let test_counters () =
  let ranker = Surrogate.Ranker.create ~machine (trained_model ()) in
  let ev = Evaluator.create () in
  Surrogate.Ranker.attach ranker ev;
  let op = Linalg.matmul ~m:24 ~n:16 ~k:8 () in
  let scheds = Array.of_list sample_schedules in
  ignore (Surrogate.Ranker.schedule_scorer ranker op scheds);
  ignore (Surrogate.Ranker.schedule_scorer ranker op scheds);
  let counter name =
    List.assoc name (Evaluator.cache_counters (Evaluator.cache_stats ev))
  in
  check_int "one miss per candidate scored" (2 * Array.length scheds)
    (counter "eval_surrogate_cache_misses_total");
  check_int "no memo, no hits" 0 (counter "eval_surrogate_cache_hits_total")

(* Batched scoring folds the machine and op blocks into the first
   layer. Against the plain forward over full [m; dim] feature rows
   (normalized the same way), every prediction must agree bit for bit,
   for the candidate sets of an exhaustive and a sampled op, on a
   trained model and on an untrained one with a different width. *)
let test_ranker_folded_first_layer () =
  let full_forward model op scheds =
    let mean = Surrogate.Model.feature_mean model in
    let std = Surrogate.Model.feature_std model in
    let static = Surrogate.Features.machine_dim + Surrogate.Features.op_dim in
    let d = Surrogate.Features.dim in
    let x = Tensor.zeros [| Array.length scheds; d |] in
    Array.iteri
      (fun row sched ->
        let f = features_of ~machine op sched in
        for col = 0 to d - 1 do
          Tensor.set x ((row * d) + col)
            (if col < static then (f.(col) -. mean.(col)) /. std.(col)
             else (f.(col) -. mean.(col)) *. (1.0 /. std.(col)))
        done)
      scheds;
    let y = Layers.forward_batch (Surrogate.Model.net model) x in
    Array.mapi
      (fun row _ ->
        (Tensor.get y row *. Surrogate.Model.target_std model)
        +. Surrogate.Model.target_mean model)
      scheds
  in
  let config = { Auto_scheduler.default_config with max_schedules = 300 } in
  List.iter
    (fun model ->
      List.iter
        (fun op ->
          let scheds =
            Array.of_list
              (sample_schedules @ Auto_scheduler.gather_candidates config op)
          in
          let ranker = Surrogate.Ranker.create ~machine model in
          let got = Surrogate.Ranker.schedule_scorer ranker op scheds in
          Array.iteri
            (fun i want -> check_bits "folded = full forward" want got.(i))
            (full_forward model op scheds))
        [ Linalg.matmul ~m:8 ~n:8 ~k:4 (); Linalg.matmul ~m:48 ~n:48 ~k:48 () ])
    [ trained_model (); Surrogate.Model.create ~hidden:[ 7; 5 ] ~seed:4 () ]

(* [save] merges with the rows already in the file, so a file it cannot
   read must stop it: overwriting would drop every row in it. A
   zero-byte file (a fresh [Filename.temp_file]) holds no rows. *)
let test_log_save_keeps_unreadable_file () =
  let path = Filename.temp_file "surrogate_log" ".tsv" in
  let log = Surrogate.Dataset_log.create () in
  for i = 0 to 19 do
    ignore (Surrogate.Dataset_log.add log (entry i))
  done;
  check_int "zero-byte file overwritten" 20 (save_log log ~path);
  let intact = In_channel.with_open_bin path In_channel.input_all in
  let newer = Surrogate.Dataset_log.create () in
  for i = 20 to 24 do
    ignore (Surrogate.Dataset_log.add newer (entry i))
  done;
  let keeps label content =
    Util.Atomic_file.write_string ~path content;
    (match Surrogate.Dataset_log.save newer ~path with
    | Ok rows -> Alcotest.failf "%s: overwritten with %d rows" label rows
    | Error e -> check ("error names the file: " ^ e) true (Astring_contains.contains e path));
    check_str (label ^ ": bytes unchanged") content
      (In_channel.with_open_bin path In_channel.input_all)
  in
  let i = String.index_from intact (String.index intact '\n' + 1) '\t' in
  keeps "one garbled tab" (String.mapi (fun j c -> if j = i then ' ' else c) intact);
  keeps "another version's header"
    ("surrogate-log v1 dim=" ^ string_of_int Surrogate.Features.dim
    ^ String.sub intact (String.index intact '\n') (String.length intact - String.index intact '\n'));
  Util.Atomic_file.write_string ~path intact;
  check_int "a readable file is merged" 25 (save_log newer ~path);
  Sys.remove path

(* A checkpoint whose hidden widths are not positive is an [Error], not
   an exception from allocating the network: the file below is sealed
   correctly, so only the width parser can reject it. *)
let test_model_load_rejects_bad_hidden () =
  let path = Filename.temp_file "surrogate_model" ".ckpt" in
  Surrogate.Model.save (Surrogate.Model.create ~hidden:[ 2 ] ~seed:1 ()) ~path;
  let header = Printf.sprintf "surrogate-ckpt v2 dim=%d" Surrogate.Features.dim in
  let payload =
    match
      Util.Atomic_file.read_sealed ~path ~header (fun next ->
          let rec all acc = match next () with None -> Ok (List.rev acc) | Some l -> all (l :: acc) in
          all [])
    with
    | Ok lines -> lines
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun hidden ->
      Util.Atomic_file.write_sealed ~path ~header (fun oc ->
          List.iteri
            (fun i line ->
              output_string oc (if i = 0 then hidden else line);
              output_char oc '\n')
            payload);
      match Surrogate.Model.load ~path with
      | Ok _ -> Alcotest.failf "%S loaded" hidden
      | Error _ -> ()
      | exception e -> Alcotest.failf "%S raised %s" hidden (Printexc.to_string e))
    [ "hidden -3"; "hidden 0"; "hidden 2 -1" ];
  Sys.remove path

let suite =
  [
    Alcotest.test_case "features: widths and determinism" `Quick
      test_feature_widths;
    Alcotest.test_case "features: schedule_block_into overwrites" `Quick
      test_schedule_block_into_matches;
    Alcotest.test_case "features: of_state = of_schedule" `Quick
      test_of_state_matches_of_schedule;
    Alcotest.test_case "features: op-block cache" `Quick test_op_block_cache;
    Alcotest.test_case "schedule: dedup_key injective" `Quick
      test_dedup_key_injective;
    Alcotest.test_case "log: dedup and rotation" `Quick
      test_log_dedup_and_rotation;
    Alcotest.test_case "log: save/load exact roundtrip" `Quick
      test_log_save_load_roundtrip;
    Alcotest.test_case "log: save merges with file" `Quick test_log_save_merge;
    Alcotest.test_case "log: load rejects garbage" `Quick
      test_log_load_rejects_garbage;
    Alcotest.test_case "log: evaluator tap" `Quick test_log_evaluator_tap;
    Alcotest.test_case "model: fit decreases val loss" `Quick
      test_model_fit_decreases_val_loss;
    Alcotest.test_case "model: feature constant in training" `Quick
      test_model_constant_feature;
    Alcotest.test_case "model: ranks held-out states of a tap-collected log"
      `Quick test_model_ranks_tap_log;
    Alcotest.test_case "model: fit deterministic" `Quick
      test_model_fit_deterministic;
    Alcotest.test_case "model: checkpoint roundtrip" `Quick
      test_model_checkpoint_roundtrip;
    Alcotest.test_case "ranker: batch = single" `Quick
      test_ranker_batch_matches_single;
    Alcotest.test_case "ranker: cache counters" `Quick
      test_ranker_cache_counters;
    Alcotest.test_case "ranker: evaluator attach" `Quick
      test_ranker_attaches_to_evaluator;
    Alcotest.test_case "staged: fallback byte-identical" `Quick
      test_staged_fallback_identical;
    Alcotest.test_case "staged: full rerank recovers exact" `Quick
      test_staged_full_rerank_recovers_exact;
    Alcotest.test_case "staged: budgeted real ranker" `Quick
      test_staged_real_ranker_budgeted;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "ranker: folded first layer is bit-exact" `Quick
      test_ranker_folded_first_layer;
    Alcotest.test_case "log: save keeps a file it cannot read" `Quick
      test_log_save_keeps_unreadable_file;
    Alcotest.test_case "model: load rejects a non-positive hidden width" `Quick
      test_model_load_rejects_bad_hidden;
  ]

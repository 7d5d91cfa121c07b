(* Learned cost-model surrogate: collect -> train -> staged re-ranking.

   Four phases, mirroring the production pipeline:

   1. collect: exact searches over a training op set with the
      evaluator's measurement tap on, filling a Surrogate.Dataset_log
      (per machine profile in full mode);
   2. train: deterministic seeded fit of the MLP latency predictor on
      the log, checkpoint round-tripped through save/load before use —
      the gate asserts validation loss decreased;
   3. staged vs exact: per held-out eval op, wall-clock and best-found
      schedule of the exact search vs the staged search (surrogate
      ranks the whole candidate set in one batched forward, top
      rerank_k get the exact model). Budgets are per-case so every
      deep-nest case runs in the budget < space sampling regime — the
      regime the surrogate exists for. The gates assert the staged
      best is within 2% schedule cost of the exact best on EVERY case,
      and that the deep-nest cases consider candidates >= 5x faster
      (full mode). The elementwise rows (add, relu) are context, not
      throughput-gated: a 2-deep pointwise nest costs the exact model
      about as little as the surrogate, so staging cannot and need not
      win there;
   4. fallback: without a ranker, search_staged must be byte-identical
      to the exact search.

   Greppable verdicts ("surrogate gate: ... : PASS") feed the CI gate;
   the committed full run is BENCH_surrogate.json and EXPERIMENTS.md
   records the interpretation. *)

let now () = Unix.gettimeofday ()

(* -- op sets ----------------------------------------------------------- *)

let conv ~hw ~c ~k ~f ~s =
  Linalg.conv2d
    {
      Linalg.batch = 1;
      in_h = hw;
      in_w = hw;
      channels = c;
      kernel_h = k;
      kernel_w = k;
      filters = f;
      stride = s;
    }

let pool ~hw ~c ~k ~s =
  Linalg.maxpool
    {
      Linalg.p_batch = 1;
      p_in_h = hw;
      p_in_w = hw;
      p_channels = c;
      p_kernel = k;
      p_stride = s;
    }

(* Training ops: one small-but-rich search space per family, shapes
   deliberately different from the eval set below. *)
let train_ops ~quick =
  let base =
    [
      Linalg.matmul ~m:64 ~n:96 ~k:32 ();
      Linalg.matmul ~m:128 ~n:64 ~k:128 ();
      Linalg.batch_matmul ~b:4 ~m:48 ~n:32 ~k:64 ();
      conv ~hw:12 ~c:4 ~k:3 ~f:8 ~s:1;
      pool ~hw:24 ~c:16 ~k:2 ~s:2;
      Linalg.add [| 192; 192 |];
      Linalg.relu [| 256; 96 |];
    ]
  in
  if quick then base
  else
    base
    @ [
        Linalg.matmul ~m:96 ~n:96 ~k:96 ();
        Linalg.matmul ~m:256 ~n:128 ~k:64 ();
        Linalg.batch_matmul ~b:2 ~m:64 ~n:64 ~k:32 ();
        conv ~hw:10 ~c:8 ~k:3 ~f:4 ~s:1;
        conv ~hw:16 ~c:4 ~k:2 ~f:8 ~s:2;
        pool ~hw:16 ~c:8 ~k:2 ~s:2;
        pool ~hw:32 ~c:4 ~k:4 ~s:4;
        Linalg.add [| 384; 128 |];
        Linalg.relu [| 128; 384 |];
      ]

(* Eval ops: held out from training. Per-case budgets keep every
   deep-nest case in the budget < space sampling regime, where each
   exact evaluation replays the whole schedule ([Sched_state.apply_all]
   plus the cost model) and the staged search has real work to save.
   [gated] marks the cases whose throughput feeds the >= 5x gate; the
   elementwise rows are context only (see the header comment). *)
type eval_case = {
  e_label : string;
  e_op : Linalg.t;
  e_tiles : int list;
  e_budget : int;
  gated : bool;
}

let eval_cases ~quick =
  let case e_label e_op e_tiles e_budget gated =
    { e_label; e_op; e_tiles; e_budget; gated }
  in
  let matmul = case "matmul_48x48x48" (Linalg.matmul ~m:48 ~n:48 ~k:48 ()) [] 4000 true in
  let add = case "add_256x256" (Linalg.add [| 256; 256 |]) [] 4000 false in
  if quick then [ matmul; add ]
  else
    [
      matmul;
      case "batch_matmul_8x32x32x32"
        (Linalg.batch_matmul ~b:8 ~m:32 ~n:32 ~k:32 ())
        [] 20000 true;
      case "conv2d_14x14x8_k3_f16" (conv ~hw:14 ~c:8 ~k:3 ~f:16 ~s:1) [] 20000 true;
      case "maxpool_28x28x32_k2" (pool ~hw:28 ~c:32 ~k:2 ~s:2) [ 2; 4; 7; 14 ]
        12000 true;
      add;
      case "relu_384x128" (Linalg.relu [| 384; 128 |]) [] 4000 false;
    ]

(* -- phase 1: collect -------------------------------------------------- *)

let collect ~quick ~budget machines ops =
  let log = Surrogate.Dataset_log.create () in
  let t0 = now () in
  List.iter
    (fun machine ->
      let ev = Evaluator.create ~machine () in
      Surrogate.Dataset_log.attach log ev;
      let config =
        { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
      in
      List.iter (fun op -> ignore (Auto_scheduler.search ~config ev op)) ops;
      Surrogate.Dataset_log.detach ev)
    machines;
  let wall = now () -. t0 in
  let s = Surrogate.Dataset_log.stats log in
  Printf.printf
    "collected %d entries in %.2f s (%d ops x %d machines, budget %d%s)\n"
    s.Surrogate.Dataset_log.added wall (List.length ops)
    (List.length machines) budget
    (if quick then ", quick" else "");
  log

(* -- phase 3: staged vs exact ------------------------------------------ *)

type point = {
  label : string;
  candidates : int;  (* candidate set both variants consider *)
  budget : int;
  p_gated : bool;  (* counts toward the throughput gate *)
  exact_wall : float;
  staged_wall : float;
  exact_speedup : float;
  staged_speedup : float;
  exact_explored : int;
  staged_explored : int;
  scored : int;  (* surrogate forwards in the staged run *)
}

let ratio p = p.exact_wall /. p.staged_wall

(* Schedule-cost regression of the staged result, in percent: how much
   slower the staged best-found schedule would run than the exact best
   (0 when staged finds an equal or better schedule). *)
let regression_pct p =
  Float.max 0.0 ((p.exact_speedup /. p.staged_speedup -. 1.0) *. 100.0)

(* Each pair runs the exact search, then the staged one, both from cold
   state (fresh evaluator, fresh ranker), and each side keeps its
   fastest wall: single-shot timings on a shared container are too
   noisy to gate on. Alternating puts a slow stretch of the host on
   both sides instead of one, and pairs repeat until each side has
   [min_timed_s] of timed work (at least [min_pairs] pairs), so a 10 ms
   search is timed over a dozen runs, not three. Results are
   deterministic, so the repetitions agree on everything but the
   clock. *)
let min_pairs = 3
let max_pairs = 200
let min_timed_s = 0.15

let staged_vs_exact ~rerank_k model
    { e_label = label; e_op = op; e_tiles; e_budget; gated } =
  let config =
    {
      Auto_scheduler.default_config with
      Auto_scheduler.max_schedules = e_budget;
      tile_sizes = e_tiles;
    }
  in
  let exact = ref None and exact_wall = ref infinity and exact_timed = ref 0.0 in
  let staged = ref None and staged_wall = ref infinity and staged_timed = ref 0.0 in
  let scored = ref 0 in
  let pairs = ref 0 in
  while
    !pairs < min_pairs
    || (!pairs < max_pairs && Float.min !exact_timed !staged_timed < min_timed_s)
  do
    incr pairs;
    let ev = Evaluator.create () in
    let t0 = now () in
    let r = Auto_scheduler.search ~config ev op in
    let dt = now () -. t0 in
    exact_wall := Float.min !exact_wall dt;
    exact_timed := !exact_timed +. dt;
    exact := Some r;
    let ranker = Surrogate.Ranker.create ~machine:Machine.e5_2680_v4 model in
    let ev = Evaluator.create () in
    Surrogate.Ranker.attach ranker ev;
    let t0 = now () in
    let r =
      Auto_scheduler.search_staged ~config
        ~ranker:(Surrogate.Ranker.schedule_scorer ranker op)
        ~rerank_k ev op
    in
    let dt = now () -. t0 in
    staged_wall := Float.min !staged_wall dt;
    staged_timed := !staged_timed +. dt;
    (* A fresh ranker per run: its cache misses are the candidates the
       network scored in this search. *)
    scored := (Surrogate.Ranker.cache_stats ranker).Util.Sharded_cache.misses;
    staged := Some r
  done;
  let exact = Option.get !exact in
  let staged = Option.get !staged in
  {
    label;
    candidates = exact.Auto_scheduler.explored;
    budget = e_budget;
    p_gated = gated;
    exact_wall = !exact_wall;
    staged_wall = !staged_wall;
    exact_speedup = exact.Auto_scheduler.best_speedup;
    staged_speedup = staged.Auto_scheduler.best_speedup;
    exact_explored = exact.Auto_scheduler.explored;
    staged_explored = staged.Auto_scheduler.explored;
    scored = !scored;
  }

(* -- phase 4: fallback differential ------------------------------------ *)

let fingerprint (r : Auto_scheduler.result) =
  Printf.sprintf "%s|%.17g|%d"
    (Schedule.to_string r.Auto_scheduler.best_schedule)
    r.Auto_scheduler.best_speedup r.Auto_scheduler.explored

let fallback_identical () =
  List.for_all
    (fun op ->
      let a = Auto_scheduler.search (Evaluator.create ()) op in
      let b = Auto_scheduler.search_staged (Evaluator.create ()) op in
      fingerprint a = fingerprint b)
    [ Linalg.matmul ~m:48 ~n:48 ~k:48 (); conv ~hw:8 ~c:4 ~k:3 ~f:4 ~s:1 ]

(* -- harness ----------------------------------------------------------- *)

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let gate name ok =
  Printf.printf "surrogate gate: %s : %s\n" name (if ok then "PASS" else "FAIL");
  ok

let json_of_results ~quick (report : Surrogate.Model.report) points ~ratio_gm
    ~max_regression ~fallback_ok ~all_ok =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"surrogate\",\n";
  add "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  add "  \"training\": {\n";
  add "    \"examples\": %d, \"train\": %d, \"val\": %d, \"epochs\": %d,\n"
    report.Surrogate.Model.examples report.Surrogate.Model.train_examples
    report.Surrogate.Model.val_examples report.Surrogate.Model.epochs_run;
  add "    \"initial_val_mse\": %.5f, \"final_val_mse\": %.5f, \"val_spearman\": %.4f\n"
    report.Surrogate.Model.initial_val_loss
    report.Surrogate.Model.val_losses.(report.Surrogate.Model.epochs_run - 1)
    report.Surrogate.Model.spearman;
  add "  },\n";
  add "  \"staged_vs_exact\": [\n";
  List.iteri
    (fun i p ->
      add
        "    {\"op\": \"%s\", \"candidates\": %d, \"budget\": %d, \
         \"throughput_gated\": %b, \"exact_wall_s\": %.4f, \
         \"staged_wall_s\": %.4f, \"candidates_per_sec_ratio\": %.2f, \
         \"exact_best_speedup\": %.2f, \"staged_best_speedup\": %.2f, \
         \"cost_regression_pct\": %.3f, \"exact_evals\": %d, \
         \"staged_exact_evals\": %d, \"surrogate_scored\": %d}%s\n"
        p.label p.candidates p.budget p.p_gated p.exact_wall p.staged_wall
        (ratio p) p.exact_speedup p.staged_speedup (regression_pct p)
        p.exact_explored p.staged_explored p.scored
        (if i = List.length points - 1 then "" else ","))
    points;
  add "  ],\n";
  add "  \"candidates_per_sec_ratio_geomean_gated\": %.2f,\n" ratio_gm;
  add "  \"max_cost_regression_pct\": %.3f,\n" max_regression;
  add "  \"fallback_byte_identical\": %b,\n" fallback_ok;
  add "  \"pass\": %b\n" all_ok;
  add "}\n";
  Buffer.contents b

let run ?(quick = false) (c : Bench_common.config) =
  Bench_common.heading
    "learned cost-model surrogate: evaluation logging, training, staged re-ranking";

  Bench_common.subheading "collect (exact searches with the measurement tap on)";
  let machines =
    if quick then [ Machine.e5_2680_v4 ]
    else [ Machine.e5_2680_v4; Machine.avx512_server ]
  in
  let log =
    collect ~quick ~budget:(if quick then 250 else 600) machines
      (train_ops ~quick)
  in

  Bench_common.subheading "train (seeded, deterministic)";
  let entries = Surrogate.Dataset_log.entries log in
  let model = Surrogate.Model.create ~seed:(c.Bench_common.seed + 3) () in
  let epochs = if quick then 8 else 30 in
  let t0 = now () in
  let report =
    Surrogate.Model.fit ~epochs ~seed:(c.Bench_common.seed + 3) model entries
  in
  Printf.printf
    "fit %d examples (%d train / %d val) in %.2f s: val mse %.4f -> %.4f, \
     spearman %.3f\n"
    report.Surrogate.Model.examples report.Surrogate.Model.train_examples
    report.Surrogate.Model.val_examples (now () -. t0)
    report.Surrogate.Model.initial_val_loss
    report.Surrogate.Model.val_losses.(epochs - 1)
    report.Surrogate.Model.spearman;
  (* Round-trip through the checkpoint format: the staged runs below
     use the LOADED model, so a format bug cannot pass the gates. *)
  let ckpt = Filename.temp_file "surrogate_bench" ".ckpt" in
  Surrogate.Model.save model ~path:ckpt;
  let loaded =
    match Surrogate.Model.load ~path:ckpt with
    | Ok m -> m
    | Error e -> failwith ("checkpoint roundtrip failed: " ^ e)
  in
  (try Sys.remove ckpt with Sys_error _ -> ());

  Bench_common.subheading "staged re-ranking vs exact search (held-out ops)";
  let rerank_k = 192 in
  let points = List.map (staged_vs_exact ~rerank_k loaded) (eval_cases ~quick) in
  Printf.printf "%-24s %9s %10s %10s %7s %9s %9s %8s\n" "op" "cands"
    "exact (s)" "staged (s)" "ratio" "exact sp" "staged sp" "regr %";
  List.iter
    (fun p ->
      Printf.printf "%-24s %9d %10.4f %10.4f %6.1fx %8.1fx %8.1fx %7.3f%s\n"
        p.label p.candidates p.exact_wall p.staged_wall (ratio p)
        p.exact_speedup p.staged_speedup (regression_pct p)
        (if p.p_gated then "" else "  (context)"))
    points;

  Bench_common.subheading "gates";
  (* Throughput is gated on the deep-nest cases only: an elementwise
     2-deep nest is nearly as cheap for the exact path as for a
     batched surrogate forward, so staging is not expected to win
     there (the context rows above show it stays a modest win, not a
     loss). The <= 2% cost-regression gate covers EVERY case. *)
  let gated = List.filter (fun p -> p.p_gated) points in
  let ratio_gm = geomean (List.map ratio gated) in
  let max_regression =
    List.fold_left (fun acc p -> Float.max acc (regression_pct p)) 0.0 points
  in
  Printf.printf
    "candidates/sec ratio geomean (deep-nest cases): %.2fx; max cost \
     regression (all cases): %.3f%%\n"
    ratio_gm max_regression;
  let fallback_ok = fallback_identical () in
  let loss_ok =
    gate "val loss decreased"
      (report.Surrogate.Model.val_losses.(epochs - 1)
      < report.Surrogate.Model.initial_val_loss)
  in
  let tol_ok = gate "staged within tolerance" (max_regression <= 2.0) in
  let thr_ok =
    gate "staged throughput" (ratio_gm >= if quick then 1.5 else 5.0)
  in
  let fb_ok = gate "fallback byte-identical" fallback_ok in
  let all_ok = loss_ok && tol_ok && thr_ok && fb_ok in
  ignore (gate "overall" all_ok);
  Printf.printf "surrogate gate: %s\n" (if all_ok then "PASS" else "FAIL");

  let json =
    json_of_results ~quick report points ~ratio_gm ~max_regression
      ~fallback_ok ~all_ok
  in
  let path = "BENCH_surrogate.json" in
  Util.Atomic_file.write_string ~path json;
  Printf.printf "\nwrote %s\n" path

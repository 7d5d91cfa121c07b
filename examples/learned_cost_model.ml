(* The learned cost model (paper §6.1 future work): log the states exact
   search prices through the evaluator's measurement tap, fit the
   surrogate latency model on them, then let it pre-rank a fresh op's
   candidate schedules so only the most promising few reach the
   (expensive) timing oracle.

   Run with: dune exec examples/learned_cost_model.exe *)

let () =
  let evaluator = Evaluator.create () in
  let ops =
    Array.init 24 (fun i ->
        Generator.random_op
          (Util.Rng.create (100 + i))
          [| "matmul"; "conv2d"; "maxpool"; "add"; "relu" |].(i mod 5))
  in
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 200 }
  in
  Format.printf "collecting measured schedules on %d ops...@." (Array.length ops);
  let log = Surrogate.Dataset_log.create () in
  Surrogate.Dataset_log.attach log evaluator;
  Array.iter (fun op -> ignore (Auto_scheduler.search ~config evaluator op)) ops;
  Surrogate.Dataset_log.detach evaluator;
  let model = Surrogate.Model.create ~seed:11 () in
  let report =
    Surrogate.Model.fit ~epochs:30 ~seed:11 model
      (Surrogate.Dataset_log.entries log)
  in
  Format.printf "regression on %d logged states: val MSE %.3f -> %.3f after %d epochs@."
    report.Surrogate.Model.examples report.Surrogate.Model.initial_val_loss
    report.Surrogate.Model.val_losses.(report.Surrogate.Model.epochs_run - 1)
    report.Surrogate.Model.epochs_run;
  Format.printf "held-out rank correlation: %.3f@.@." report.Surrogate.Model.spearman;

  (* Use the model as a pre-filter: rank a fresh matmul's candidate
     schedules, measure only the model's top 10. *)
  let op = Linalg.matmul ~m:768 ~n:768 ~k:768 () in
  let ranker =
    Surrogate.Ranker.create ~machine:(Evaluator.machine evaluator) model
  in
  let guided =
    Auto_scheduler.search_staged ~config
      ~ranker:(Surrogate.Ranker.schedule_scorer ranker op)
      ~rerank_k:10 evaluator op
  in
  let exact = Auto_scheduler.search ~config evaluator op in
  Format.printf "model-guided: measured only %d/%d candidates, best found %.1fx@."
    guided.Auto_scheduler.explored exact.Auto_scheduler.explored
    guided.Auto_scheduler.best_speedup;
  Format.printf "exact search over all %d candidates: %.1fx@."
    exact.Auto_scheduler.explored exact.Auto_scheduler.best_speedup;
  Format.printf "=> the learned model recovers %.0f%% of the attainable speedup@."
    (100.0 *. guided.Auto_scheduler.best_speedup
    /. exact.Auto_scheduler.best_speedup)

(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md for the per-experiment index).

   Usage:
     dune exec bench/main.exe                 # everything, default budgets
     dune exec bench/main.exe -- --quick      # everything, small budgets
     dune exec bench/main.exe -- fig5 fig6    # a subset

   Budgets are scaled for a single-core container; the paper trained for
   1000 PPO iterations on 28 cores. EXPERIMENTS.md records the budgets
   used for the committed results. *)

let usage () =
  print_endline
    "usage: main.exe [--quick] [table1] [table2] [fig5] [fig6] [fig7] [fig8] [ablation] [faults] [legality] [sanitize] [fleet] [search] [surrogate]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let wanted = List.filter (fun a -> a <> "--quick") args in
  List.iter
    (fun a ->
      if
        not
          (List.mem a
             [ "table1"; "table2"; "fig5"; "fig6"; "fig7"; "fig8"; "ablation";
               "faults"; "legality"; "sanitize"; "fleet"; "search"; "surrogate" ])
      then begin
        Printf.printf "unknown experiment %S\n" a;
        usage ()
      end)
    wanted;
  let all = wanted = [] in
  let want x = all || List.mem x wanted in
  let c = if quick then Bench_common.quick else Bench_common.default in
  Printf.printf
    "mlir-rl experiment harness | seed %d | hidden %d | train iters %d | autosched budget %d%s\n"
    c.Bench_common.seed c.Bench_common.hidden c.Bench_common.train_iterations
    c.Bench_common.autosched_budget
    (if quick then " | quick mode" else "");
  let t0 = Unix.gettimeofday () in
  if want "table1" then Exp_tables.table1 ();
  if want "table2" then Exp_tables.table2 c;
  let fig5_result = if want "fig5" then Some (Exp_fig5.run c) else None in
  let shared_trained = ref (Option.map (fun r -> r.Exp_fig5.trained) fig5_result) in
  let trained_agent () =
    match !shared_trained with
    | Some t -> t
    | None ->
        let split = Generator.generate ~seed:c.Bench_common.seed () in
        let t = Bench_common.train_agent c ~ops:split.Generator.train in
        shared_trained := Some t;
        t
  in
  if want "fig6" then Exp_fig6.run c (trained_agent ());
  if want "fig7" then Exp_fig7.run c;
  if want "fig8" then Exp_fig8.run c;
  if want "ablation" then Exp_ablation.run c (trained_agent ());
  if want "faults" then Exp_faults.run c;
  if want "legality" then Exp_legality.run c;
  if want "sanitize" then Exp_sanitize.run ~quick c;
  if want "fleet" then Exp_fleet.run ~quick c;
  if want "search" then Exp_search.run ~quick c;
  if want "surrogate" then Exp_surrogate.run ~quick c;
  Printf.printf "\nall experiments done in %.1f s wall-clock\n"
    (Unix.gettimeofday () -. t0)

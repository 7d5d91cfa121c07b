(* Benchmark program: runs one workload and prints its metrics, a
   correctness verdict, and as the last line one JSON object.

     perfbench.exe --workload train|search|serve --seed N --seconds S
                   --trace 0|1 [--work DIR]
     perfbench.exe --workload serve-capacity --seconds S

   With --trace 0 the end-to-end metrics are measured with tracing off;
   with --trace 1 a separate traced run prints the per-layer metrics.
   See NOTES.md for the workloads and the metric map. *)

open Report

(* Every per-layer metric, reported by every workload: a layer that does
   no work in a workload reads 0 there. *)
let layer_metrics =
  [
    ("core.env_step.ms", "ms");
    ("core.env_step.calls", "count");
    ("core.env_step.invalid_frac", "frac");
    ("core.env_masks.ms", "ms");
    ("nn.act_batch.ms", "ms");
    ("nn.act_batch.rows_per_call", "rows");
    ("rl.ppo_update.ms", "ms");
    ("train.collect_share", "frac");
    ("train.update_share", "frac");
    ("autosched.exact.ms", "ms");
    ("autosched.exact.explored", "count");
    ("autosched.enumerate.ms", "ms");
    ("transform.apply.ms", "ms");
    ("transform.apply.calls", "count");
    ("perf.state_seconds.ms", "ms");
    ("perf.state_seconds.calls", "count");
    ("surrogate.rank.ms", "ms");
    ("surrogate.rank.scored", "count");
    ("surrogate.cache.hit_frac", "frac");
    ("autosched.staged.ms", "ms");
    ("autosched.staged.exact_evals", "count");
    ("autosched.beam.ms", "ms");
    ("autosched.beam.explored", "count");
    ("serve.queue_wait_ms.p50", "ms");
    ("serve.queue_wait_ms.tail", "ms");
    ("serve.batch_size.mean", "count");
    ("serve.result_cache.hit_frac", "frac");
    ("serve.solve_batch.ms", "ms");
    ("serve.shed", "count");
    ("serve.expired", "count");
    ("serve.errors", "count");
    ("serve.generator_late_ms.p99", "ms");
    ("perf.state_cache.hit_frac", "frac");
    ("perf.base_cache.hit_frac", "frac");
    ("gc.minor_mwords", "Mwords");
    ("gc.peak_rss_mb", "MB");
    ("gc.major_collections", "count");
    ("trace.coverage", "frac");
    ("trace.overhead_ms", "ms");
    ("trace.overhead_frac", "frac");
  ]

let min_coverage = 0.9

let traced_result ~workload ~seed ~work (t : traced) =
  let t0, t1 = t.window in
  let coverage = Trace.coverage ~t0 ~t1 in
  let extra =
    [
      m "gc.peak_rss_mb" "MB" (peak_rss_mb ());
      m "trace.coverage" "frac" coverage;
      m "trace.overhead_ms" "ms" ((t.traced_s -. t.untraced_s) *. 1e3);
      m "trace.overhead_frac" "frac" ((t.traced_s -. t.untraced_s) /. t.untraced_s);
    ]
  in
  let given = t.layer @ extra in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun x -> x.name = name) given with
        | Some x -> x
        | None -> m name unit_ 0.0)
      layer_metrics
  in
  let path = Filename.concat work (Printf.sprintf "spans-%s-%d.tsv" workload seed) in
  Trace.write ~path ~origin:t0;
  let ok = coverage >= min_coverage in
  {
    attempted = 1 + t.checked;
    failed = (if ok then 0 else 1) + t.mismatched;
    metrics;
    named = [];
    notes =
      t.traced_notes
      @ [
        Printf.sprintf
          "layer spans cover %.1f%% of traced wall time (gate %.0f%%): %s; %.1f ms unattributed"
          (coverage *. 100.0) (min_coverage *. 100.0)
          (if ok then "ok" else "TOO LOW")
          ((1.0 -. coverage) *. (t1 -. t0) *. 1e3);
        Printf.sprintf "tracing overhead: same work %.3f s untraced, %.3f s traced (%+.2f%%)"
          t.untraced_s t.traced_s
          ((t.traced_s -. t.untraced_s) /. t.untraced_s *. 100.0);
        Printf.sprintf "%d spans written to %s" (List.length !Trace.spans) path;
      ];
    invalid = None;
  }

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let print_table title rows =
  if rows <> [] then begin
    Printf.printf "-- %s\n" title;
    List.iter (fun x -> Printf.printf "%-32s %16.6g %s\n" x.name x.value x.unit_) rows
  end

let print_result ~workload ~trace r =
  Printf.printf "== perfbench %s, %s\n" workload
    (if trace then "traced run" else "untraced run");
  print_table "end-to-end metrics" r.named;
  print_table
    (if trace then "per-layer metrics" else "end-to-end metrics as BENCHMARK.json names them")
    r.metrics;
  List.iter (Printf.printf "  %s\n") r.notes;
  let finite = List.for_all (fun x -> Float.is_finite x.value) r.metrics in
  let correct = r.failed = 0 && finite && r.invalid = None in
  Printf.printf "failed_frac %.6f (%d of %d operations)\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  Option.iter (Printf.printf "INVALID RUN: %s\n") r.invalid;
  if not finite then print_endline "a metric is not a finite number";
  Printf.printf "verdict: %s\n" (if correct then "correct" else "INCORRECT");
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number (if Float.is_finite x.value then x.value else 0.0))
          x.unit_)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 r.attempted) r.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work = ref (Filename.concat "perfbench" ".work") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "train|search|serve|serve-capacity");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--work", Arg.Set_string work, "directory for checkpoints and span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and work = !work and traced = !trace = 1 in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let result =
    match (!workload, traced) with
    | "train", false -> Wl_train.run ~seed ~seconds
    | "search", false -> Wl_search.run ~seed ~seconds
    | "serve", false -> Wl_serve.run ~seed ~seconds ~work
    | "train", true -> traced_result ~workload:"train" ~seed ~work (Wl_train.run_traced ~seed ~seconds)
    | "search", true ->
        traced_result ~workload:"search" ~seed ~work (Wl_search.run_traced ~seed ~seconds)
    | "serve-capacity", _ -> Wl_serve.capacity ~seed ~seconds ~work
    | "serve", true ->
        traced_result ~workload:"serve" ~seed ~work (Wl_serve.run_traced ~seed ~seconds ~work)
    | w, _ ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  print_result ~workload:!workload ~trace:traced result

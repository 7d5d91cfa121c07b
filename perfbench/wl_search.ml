(* The [search] workload: a seeded draw of validation ops, each searched
   three ways at the CLI default budget and jobs 1, every search on a
   fresh evaluator as one CLI invocation would have:
   - exact Auto_scheduler.search (exhaustive when the space fits the
     budget, sampled otherwise);
   - search_staged, ranked by a surrogate that set-up collects and fits;
   - Beam_search.search.
   A measured unit is one pass over the ops; passes repeat while another
   fits in the run time (at least two), and every pass must reproduce the
   first one. *)

open Report

let budget = 3000
let config = { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }

(* Surrogate training set: exact searches over a few train-split ops at
   a small budget, with the evaluator's measurement tap on. *)
let collect_ops = 6
let collect_budget = 400
let fit_epochs = 12

let fit_surrogate ~seed (train : Linalg.t array) =
  let rng = Util.Rng.derive seed ~stream:2 in
  let ops = Util.Rng.sample_without_replacement rng collect_ops train in
  let log = Surrogate.Dataset_log.create () in
  let ev = Evaluator.create () in
  Surrogate.Dataset_log.attach log ev;
  let config = { config with Auto_scheduler.max_schedules = collect_budget } in
  Array.iter (fun op -> ignore (Auto_scheduler.search ~config ev op)) ops;
  Surrogate.Dataset_log.detach ev;
  let model = Surrogate.Model.create ~seed () in
  ignore (Surrogate.Model.fit ~epochs:fit_epochs ~seed model (Surrogate.Dataset_log.entries log));
  model

(* The draw is stratified, so every seed searches the same mix: at the
   default budget only the 2-D elementwise validation ops fit the
   exhaustive regime, and the rest are sampled. Exact search times sort
   by stratum: exhaustive ops (15-30 ms) below sampled matmul and
   elementwise ops (100-160 ms) below maxpool and conv2d (150-250 ms).
   The counts put the median op in the middle of the matmul stratum, as
   many ops below it as above it: a median at a stratum's edge moved by
   a quarter from seed to seed with the shapes drawn there. A split with
   fewer ops in a stratum gives all it has. *)
let strata =
  [
    (8, false, [ "add"; "relu" ]);
    (10, true, [ "matmul" ]);
    (2, true, [ "add"; "relu" ]);
    (2, true, [ "maxpool" ]);
    (6, true, [ "conv2d" ]);
  ]

let sampled op = Auto_scheduler.space_total config op > budget

let draw_ops ~seed (validation : Linalg.t array) =
  let rng = Util.Rng.derive seed ~stream:1 in
  List.concat_map
    (fun (count, is_sampled, kinds) ->
      let pool =
        Array.of_list
          (List.filter
             (fun op -> sampled op = is_sampled && List.mem (Linalg.kind_name op) kinds)
             (Array.to_list validation))
      in
      let count = min count (Array.length pool) in
      Array.to_list (Util.Rng.sample_without_replacement rng count pool))
    strata
  |> Array.of_list

let setup ~seed =
  let split = Generator.generate ~seed () in
  (draw_ops ~seed split.Generator.validation, fit_surrogate ~seed split.Generator.train)

type outcome = { wall : float; explored : int; speedup : float; fingerprint : string }

let fingerprint sched speedup explored =
  Printf.sprintf "%s|%.17g|%d" (Schedule.to_string sched) speedup explored

let timed name f =
  let t0 = Trace.now () in
  let r = Trace.span name f in
  (r, Trace.now () -. t0)

type op_result = {
  exact : outcome;
  staged : outcome;
  staged_cands : int;  (** candidates the ranker scored *)
  beam : outcome;
  sampled : bool;
}

(* Cache statistics of every evaluator and ranker a traced pass used. *)
type counters = {
  mutable base : Util.Sharded_cache.stats list;
  mutable state : Util.Sharded_cache.stats list;
  mutable ranker : Util.Sharded_cache.stats list;
}

let absorb c ev =
  let base, state = evaluator_caches (Evaluator.cache_stats ev) in
  c.base <- base @ c.base;
  c.state <- state @ c.state

let search_op ?counters model op =
  let ev = Evaluator.create () in
  let r, wall = timed "autosched.exact" (fun () -> Auto_scheduler.search ~config ~jobs:1 ev op) in
  let exact =
    {
      wall;
      explored = r.Auto_scheduler.explored;
      speedup = r.Auto_scheduler.best_speedup;
      fingerprint =
        fingerprint r.Auto_scheduler.best_schedule r.Auto_scheduler.best_speedup
          r.Auto_scheduler.explored;
    }
  in
  let ranker = Surrogate.Ranker.create ~machine:(Evaluator.machine ev) model in
  let ev2 = Evaluator.create () in
  Surrogate.Ranker.attach ranker ev2;
  let scorer = Surrogate.Ranker.schedule_scorer ranker op in
  let scored = ref 0 in
  let rank cands =
    scored := !scored + Array.length cands;
    Trace.span "surrogate.rank" (fun () -> scorer cands)
  in
  let r, wall =
    timed "autosched.staged" (fun () ->
        Auto_scheduler.search_staged ~config ~ranker:rank ~jobs:1 ev2 op)
  in
  let staged =
    {
      wall;
      explored = r.Auto_scheduler.explored;
      speedup = r.Auto_scheduler.best_speedup;
      fingerprint =
        fingerprint r.Auto_scheduler.best_schedule r.Auto_scheduler.best_speedup
          r.Auto_scheduler.explored;
    }
  in
  let ev3 = Evaluator.create () in
  let r, wall = timed "autosched.beam" (fun () -> Beam_search.search ~jobs:1 ev3 op) in
  let beam =
    {
      wall;
      explored = r.Beam_search.explored;
      speedup = r.Beam_search.best_speedup;
      fingerprint =
        fingerprint r.Beam_search.best_schedule r.Beam_search.best_speedup
          r.Beam_search.explored;
    }
  in
  Option.iter
    (fun c ->
      List.iter (absorb c) [ ev; ev2; ev3 ];
      c.ranker <- Surrogate.Ranker.cache_stats ranker :: c.ranker)
    counters;
  {
    exact;
    staged;
    staged_cands = !scored;
    beam;
    sampled = sampled op;
  }

let pass ?counters model ops = Array.to_list (Array.map (search_op ?counters model) ops)

let rate count wall results =
  float_of_int (List.fold_left (fun a r -> a + count r) 0 results)
  /. sum (List.map wall results)

(* Each op's fastest pass. A search is deterministic, so its passes
   differ only in how much of the shared host they got; passes spread
   over the run, so a burst of outside load slows at most some of them. *)
let fastest passes =
  let min_wall (a : outcome) (b : outcome) = { a with wall = Float.min a.wall b.wall } in
  List.fold_left
    (List.map2 (fun a b ->
         {
           a with
           exact = min_wall a.exact b.exact;
           staged = min_wall a.staged b.staged;
           beam = min_wall a.beam b.beam;
         }))
    (List.hd passes) (List.tl passes)

let run ~seed ~seconds =
  let su = setups () in
  let ops, model = set_up su (fun () -> setup ~seed) in
  let t_end = Trace.now () +. seconds in
  let passes = ref [] and last = ref 0.0 in
  while List.length !passes < 2 || Trace.now () +. !last < t_end do
    let t0 = Trace.now () in
    passes := pass model ops :: !passes;
    ignore (set_up su (fun () -> setup ~seed));
    last := Trace.now () -. t0
  done;
  let setup_s = setup_s su in
  let passes = List.rev !passes in
  let first = List.hd passes in
  (* Oracles: passes agree with the first; staged search never beats the
     exact search over the same budgeted candidate set; exact results on
     exhaustive-regime ops equal the unshared reference search. *)
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  List.iter
    (fun p ->
      List.iter2
        (fun a b ->
          check (a.exact.fingerprint = b.exact.fingerprint);
          check
            (a.staged.fingerprint = b.staged.fingerprint
            && a.staged.speedup <= a.exact.speedup);
          check (a.beam.fingerprint = b.beam.fingerprint))
        p first)
    passes;
  let exhaustive = ref 0 in
  Array.iteri
    (fun i op ->
      let r = List.nth first i in
      if not r.sampled then begin
        incr exhaustive;
        let n = Auto_scheduler.search_naive ~config (Evaluator.create ()) op in
        check
          (fingerprint n.Auto_scheduler.best_schedule n.Auto_scheduler.best_speedup
             n.Auto_scheduler.explored
          = r.exact.fingerprint)
      end)
    ops;
  let best = fastest passes in
  let exact_rate = rate (fun r -> r.exact.explored) (fun r -> r.exact.wall) best in
  let staged_rate = rate (fun r -> r.staged_cands) (fun r -> r.staged.wall) best in
  let beam_rate = rate (fun r -> r.beam.explored) (fun r -> r.beam.wall) best in
  let op_ms = List.map (fun r -> r.exact.wall *. 1e3) best in
  let exact_sp = Util.Stats.geomean (List.map (fun r -> r.exact.speedup) first) in
  let staged_sp = Util.Stats.geomean (List.map (fun r -> r.staged.speedup) first) in
  let by_kind =
    List.sort_uniq compare (List.map Linalg.kind_name (Array.to_list ops))
    |> List.map (fun k ->
           let ms =
             List.concat_map
               (fun p ->
                 List.filteri (fun i _ -> Linalg.kind_name ops.(i) = k) p
                 |> List.map (fun r -> r.exact.wall *. 1e3))
               passes
           in
           Printf.sprintf "%s %.1f-%.1f" k (List.fold_left Float.min infinity ms)
             (List.fold_left Float.max 0.0 ms))
  in
  let rss = peak_rss_mb () in
  let sampled_names =
    List.filteri (fun i _ -> (List.nth first i).sampled) (Array.to_list ops)
    |> List.map (fun op -> op.Linalg.op_name)
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "work_per_s" "1/s" exact_rate;
        m "latency_ms_p50" "ms" (Util.Stats.median op_ms);
      ];
    named =
      [
        m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MB" rss;
        m "failed_frac" "frac" (failed_frac ~attempted:!attempted ~failed:!failed);
        m "search.exact_cands_per_s" "1/s" exact_rate;
        m "search.staged_cands_per_s" "1/s" staged_rate;
        m "search.beam_states_per_s" "1/s" beam_rate;
        m "search.op_ms_tail" "ms" (tail_value op_ms);
        m "search.speedup_geomean" "x" exact_sp;
        m "search.staged_speedup_geomean" "x" staged_sp;
      ];
    notes =
      [
        Printf.sprintf "latency_ms_p50 times one exact search, each op's fastest of %d passes; %s"
          (List.length passes) (tail_note "op_ms_tail" op_ms);
        Printf.sprintf "exact search ms by kind (min-max): %s" (String.concat ", " by_kind);
        Printf.sprintf "%d ops x %d passes; %d exhaustive (checked against search_naive), %d sampled: %s"
          (Array.length ops) (List.length passes) !exhaustive (List.length sampled_names)
          (String.concat " " sampled_names);
      ];
    invalid = None;
  }

(* -- traced run ----------------------------------------------------------

   One pass untraced and one traced give the overhead. Then the traced
   pass's candidate sets are replayed layer by layer: enumeration
   (gather_candidates), transformation (Sched_state.apply_all per
   candidate) and pricing (Evaluator.state_seconds per applied state). *)

let run_traced ~seed ~seconds:_ =
  let ops, model = setup ~seed in
  let t0 = Trace.now () in
  ignore (pass model ops);
  let untraced = Trace.now () -. t0 in
  let counters = { base = []; state = []; ranker = [] } in
  Trace.reset ();
  Trace.enabled := true;
  let gc0 = gc_start () in
  let t0 = Trace.now () in
  let results = pass ~counters model ops in
  let traced = Trace.now () -. t0 in
  let applied = ref 0 and priced = ref 0 in
  Array.iter
    (fun op ->
      let cands =
        Trace.span "autosched.enumerate" (fun () -> Auto_scheduler.gather_candidates config op)
      in
      let states =
        Trace.span "transform.apply" (fun () ->
            List.filter_map
              (fun sched ->
                incr applied;
                Result.to_option (Sched_state.apply_all op sched))
              cands)
      in
      let ev = Evaluator.create () in
      Trace.span "perf.state_seconds" (fun () ->
          List.iter
            (fun st ->
              incr priced;
              ignore (Evaluator.state_seconds ev st))
            states);
      absorb counters ev)
    ops;
  let t1 = Trace.now () in
  Trace.enabled := false;
  let gc = gc_since gc0 in
  let s = Trace.summarize () in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 results) in
  let metrics =
    [
      m "autosched.exact.ms" "ms" (Trace.self_ms s "autosched.exact");
      m "autosched.exact.explored" "count" (total (fun r -> r.exact.explored));
      m "autosched.enumerate.ms" "ms" (Trace.self_ms s "autosched.enumerate");
      m "transform.apply.ms" "ms" (Trace.self_ms s "transform.apply");
      m "transform.apply.calls" "count" (float_of_int !applied);
      m "perf.state_seconds.ms" "ms" (Trace.self_ms s "perf.state_seconds");
      m "perf.state_seconds.calls" "count" (float_of_int !priced);
      m "surrogate.rank.ms" "ms" (Trace.self_ms s "surrogate.rank");
      m "surrogate.rank.scored" "count" (total (fun r -> r.staged_cands));
      m "surrogate.cache.hit_frac" "frac" (hit_frac counters.ranker);
      m "autosched.staged.ms" "ms" (Trace.self_ms s "autosched.staged");
      m "autosched.staged.exact_evals" "count" (total (fun r -> r.staged.explored));
      m "autosched.beam.ms" "ms" (Trace.self_ms s "autosched.beam");
      m "autosched.beam.explored" "count" (total (fun r -> r.beam.explored));
      m "perf.base_cache.hit_frac" "frac" (hit_frac counters.base);
      m "perf.state_cache.hit_frac" "frac" (hit_frac counters.state);
      m "gc.minor_mwords" "Mwords" (gc.minor_words /. 1e6);
      m "gc.major_collections" "count" (float_of_int gc.major_collections);
    ]
  in
  {
    layer = metrics;
    untraced_s = untraced;
    traced_s = traced;
    window = (t0, t1);
    checked = 0;
    mismatched = 0;
    traced_notes = [];
  }

(* The exhaustive baseline auto-scheduler (paper §5.1.4). *)

let ev () = Evaluator.create ()

let test_candidates_respect_constraints () =
  let config = Auto_scheduler.default_config in
  let op = Test_helpers.small_matmul () in
  let count = ref 0 in
  Seq.iter
    (fun sched ->
      incr count;
      let tiled_loops = ref 0 in
      List.iter
        (fun tr ->
          match tr with
          | Schedule.Tile sizes | Schedule.Parallelize sizes ->
              Array.iter
                (fun s ->
                  if s > 0 then begin
                    incr tiled_loops;
                    Alcotest.(check bool) "size <= 64" true (s <= 64)
                  end)
                sizes
          | Schedule.Swap _ | Schedule.Interchange _ | Schedule.Im2col
          | Schedule.Vectorize | Schedule.Unroll _ ->
              ())
        sched;
      (match List.rev sched with
      | Schedule.Vectorize :: _ -> ()
      | _ -> Alcotest.fail "schedule must end with vectorize");
      if List.length sched > 1 then
        Alcotest.(check bool) "at least two tiled loops" true (!tiled_loops >= 2))
    (Auto_scheduler.candidates config op);
  Alcotest.(check bool) "nonempty stream" true (!count > 1)

let test_candidates_apply_cleanly () =
  let config = Auto_scheduler.default_config in
  let op = Test_helpers.small_conv () in
  Seq.iter
    (fun sched ->
      match Sched_state.apply_all op sched with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "candidate %s failed: %s" (Schedule.to_string sched) e)
    (Seq.take 500 (Auto_scheduler.candidates config op))

let test_search_improves_over_trivial () =
  let e = ev () in
  let op = Linalg.matmul ~m:256 ~n:256 ~k:256 () in
  let r = Auto_scheduler.search e op in
  let trivial =
    Result.get_ok (Evaluator.schedule_speedup e op [ Schedule.Vectorize ])
  in
  Alcotest.(check bool) "beats vectorize-only" true
    (r.Auto_scheduler.best_speedup > trivial);
  Alcotest.(check bool) "best schedule evaluates to best speedup" true
    (Float.abs
       (Result.get_ok (Evaluator.schedule_speedup e op r.Auto_scheduler.best_schedule)
       -. r.Auto_scheduler.best_speedup)
    < 1e-9)

let test_search_respects_budget () =
  let config = { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 50 } in
  let r = Auto_scheduler.search ~config (ev ()) (Linalg.matmul ~m:256 ~n:256 ~k:256 ()) in
  Alcotest.(check bool) "within budget" true (r.Auto_scheduler.explored <= 50)

let test_trace_monotone () =
  let r = Auto_scheduler.search (ev ()) (Linalg.matmul ~m:128 ~n:128 ~k:128 ()) in
  let best = ref 0.0 in
  Array.iter
    (fun (i, sp) ->
      Alcotest.(check bool) "index positive" true (i > 0);
      Alcotest.(check bool) "monotone" true (sp >= !best);
      best := sp)
    r.Auto_scheduler.trace;
  Alcotest.(check int) "one point per evaluation" r.Auto_scheduler.explored
    (Array.length r.Auto_scheduler.trace)

let test_search_deterministic () =
  let op = Linalg.matmul ~m:512 ~n:512 ~k:512 () in
  let r1 = Auto_scheduler.search (ev ()) op in
  let r2 = Auto_scheduler.search (ev ()) op in
  Alcotest.(check (float 1e-12)) "same best" r1.Auto_scheduler.best_speedup
    r2.Auto_scheduler.best_speedup

let test_search_uses_im2col_for_conv () =
  (* The conv candidate stream must include im2col variants. *)
  let config = Auto_scheduler.default_config in
  let op = Test_helpers.small_conv () in
  let has_im2col =
    Seq.exists (fun sched -> List.mem Schedule.Im2col sched)
      (Auto_scheduler.candidates config op)
  in
  Alcotest.(check bool) "im2col present" true has_im2col

let test_search_never_parallelizes_reductions () =
  let config = Auto_scheduler.default_config in
  let op = Test_helpers.small_matmul () in
  Seq.iter
    (fun sched ->
      List.iter
        (function
          | Schedule.Parallelize sizes ->
              Alcotest.(check int) "reduction dim (k) untouched" 0 sizes.(2)
          | _ -> ())
        sched)
    (Auto_scheduler.candidates config op)

let test_elementwise_search () =
  let r = Auto_scheduler.search (ev ()) (Linalg.add [| 512; 512 |]) in
  Alcotest.(check bool) "finds something" true (r.Auto_scheduler.best_speedup > 1.0)

let test_maxpool_search () =
  let op =
    Linalg.maxpool
      { Linalg.p_batch = 1; p_in_h = 56; p_in_w = 56; p_channels = 64;
        p_kernel = 2; p_stride = 2 }
  in
  let r = Auto_scheduler.search (ev ()) op in
  Alcotest.(check bool) "pooling improves moderately" true
    (r.Auto_scheduler.best_speedup > 1.0)

(* The indexed sampler against the list-based one it replaced
   (sampler_ref.ml): the same candidates in the same order, over random
   generator ops and configs that vary every field the sampler reads.
   The custom size lists may name a size twice or exceed 64. *)
let qcheck_sampler_matches_reference =
  let kinds =
    [| "matmul"; "conv2d"; "maxpool"; "add"; "relu"; "batch_matmul";
       "conv2d_nchw"; "dwconv"; "avgpool" |]
  in
  let gen =
    QCheck.Gen.(
      let* kind = oneofa kinds in
      let* seed = int_bound 100_000 in
      let* tile_sizes =
        oneof
          [ return [];
            list_size (int_range 1 6) (oneofl [ 2; 3; 4; 4; 7; 8; 14; 16; 32; 64; 128 ]) ]
      in
      let* include_im2col = bool in
      let* max_schedules = oneofl [ 1; 2; 30; 150; 400 ] in
      return
        ( kind, seed,
          { Auto_scheduler.tile_sizes; include_im2col; max_schedules } ))
  in
  let print (kind, seed, (c : Auto_scheduler.config)) =
    Printf.sprintf "%s seed %d: tiles [%s] im2col %b budget %d"
      kind seed
      (String.concat ";" (List.map string_of_int c.Auto_scheduler.tile_sizes))
      c.include_im2col c.max_schedules
  in
  QCheck.Test.make ~name:"sampler matches the list reference" ~count:80
    (QCheck.make ~print gen)
    (fun (kind, seed, config) ->
      let op = Generator.random_op (Util.Rng.create seed) kind in
      List.equal Schedule.equal
        (Auto_scheduler.gather_candidates config op)
        (Sampler_ref.gather_candidates config op))

(* The staged search keeps the [k] best-ranked candidates by insertion;
   they must be the first [k] of a stable sort by prediction, ties (and
   NaNs, which [Float.compare] puts first) included. Predictions come
   from a small pool so that ties are common. *)
let qcheck_rank_best_is_stable_sort_prefix =
  QCheck.Test.make ~name:"rank_best is a stable sort's prefix" ~count:300
    QCheck.(
      pair (int_range 0 70)
        (list_of_size Gen.(int_range 0 120) (int_range 0 9)))
    (fun (k, picks) ->
      let pool = [| 0.5; -1.0; 2.0; nan; 0.5; 3.25; -0.0; 0.0; infinity; 1e-3 |] in
      let preds = Array.of_list (List.map (fun i -> pool.(i)) picks) in
      let cands = Array.init (Array.length preds) Fun.id in
      let order = Array.copy cands in
      Array.stable_sort (fun i j -> Float.compare preds.(i) preds.(j)) order;
      let want = List.filteri (fun r _ -> r < k) (Array.to_list order) in
      Par_eval.rank_best (fun _ -> preds) cands k = want)

let suite =
  [
    Alcotest.test_case "candidates respect constraints" `Quick
      test_candidates_respect_constraints;
    Alcotest.test_case "candidates apply cleanly" `Quick test_candidates_apply_cleanly;
    Alcotest.test_case "search improves over trivial" `Quick
      test_search_improves_over_trivial;
    Alcotest.test_case "search respects budget" `Quick test_search_respects_budget;
    Alcotest.test_case "trace monotone" `Quick test_trace_monotone;
    Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "conv stream has im2col" `Quick test_search_uses_im2col_for_conv;
    Alcotest.test_case "no parallel reductions" `Quick
      test_search_never_parallelizes_reductions;
    Alcotest.test_case "elementwise search" `Quick test_elementwise_search;
    Alcotest.test_case "maxpool search" `Quick test_maxpool_search;
    QCheck_alcotest.to_alcotest qcheck_sampler_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_rank_best_is_stable_sort_prefix;
  ]

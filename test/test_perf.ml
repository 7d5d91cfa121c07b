(* Cost model and evaluator: directional properties the RL reward
   relies on. Absolute times are model outputs, so the tests check
   orderings and invariants, not constants. *)

let machine = Machine.e5_2680_v4

let seconds_of op sched =
  let st = Result.get_ok (Sched_state.apply_all op sched) in
  Cost_model.seconds ~machine ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds
    ~packing_elements:st.Sched_state.packing_elements st.Sched_state.nest

let big_matmul () = Linalg.matmul ~m:512 ~n:512 ~k:512 ()

let test_positive_time () =
  let t = seconds_of (big_matmul ()) [] in
  Alcotest.(check bool) "positive" true (t > 0.0 && Float.is_finite t)

let test_vectorize_helps () =
  let op = big_matmul () in
  Alcotest.(check bool) "vectorized faster" true
    (seconds_of op [ Schedule.Vectorize ] < seconds_of op [])

let test_parallel_helps () =
  let op = big_matmul () in
  Alcotest.(check bool) "parallel faster" true
    (seconds_of op [ Schedule.Parallelize [| 64; 64; 0 |] ] < seconds_of op [])

let test_parallel_capped_by_cores () =
  let op = big_matmul () in
  let r =
    let st =
      Result.get_ok
        (Sched_state.apply_all op [ Schedule.Parallelize [| 8; 8; 0 |] ])
    in
    Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
      st.Sched_state.nest
  in
  Alcotest.(check bool) "factor <= cores" true
    (r.Cost_model.parallel_factor <= float_of_int machine.Machine.cores)

let test_tiling_reduces_l2_traffic () =
  (* Tiled matmul re-streams B far less often. *)
  let op = big_matmul () in
  let traffic sched level =
    let st = Result.get_ok (Sched_state.apply_all op sched) in
    let r =
      Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
        st.Sched_state.nest
    in
    let lt = List.find (fun t -> t.Cost_model.level = level) r.Cost_model.traffic in
    lt.Cost_model.miss_lines
  in
  Alcotest.(check bool) "less L2 traffic when tiled" true
    (traffic [ Schedule.Tile [| 64; 64; 64 |] ] "l2" < traffic [] "l2")

let test_interchange_changes_time () =
  (* Moving the reduction off the innermost position changes the cost
     (breaks the accumulator chain but loses B locality). *)
  let op = big_matmul () in
  let t1 = seconds_of op [] in
  let t2 = seconds_of op [ Schedule.Swap 1 ] in
  Alcotest.(check bool) "different" true (Float.abs (t1 -. t2) > 1e-12)

let test_vector_efficiency_contiguous () =
  (* Vectorizing the n loop of matmul (contiguous in B and C) gets full
     lane efficiency; k (column-strided B) does not. *)
  let op = big_matmul () in
  let eff sched =
    let st = Result.get_ok (Sched_state.apply_all op sched) in
    (Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
       st.Sched_state.nest)
      .Cost_model.vector_efficiency
  in
  let eff_n = eff [ Schedule.Swap 1; Schedule.Vectorize ] in
  let eff_k = eff [ Schedule.Vectorize ] in
  Alcotest.(check (float 1e-9)) "n loop full lanes" 1.0 eff_n;
  Alcotest.(check bool) "k loop also contiguous in A" true (eff_k > 0.0)

let test_launch_overhead_counted () =
  let op = big_matmul () in
  let st =
    Result.get_ok
      (Sched_state.apply_all op
         [ Schedule.Tile [| 8; 0; 0 |]; Schedule.Parallelize [| 0; 64; 0 |] ])
  in
  let r =
    Cost_model.estimate ~machine ~iter_kinds:op.Linalg.iter_kinds
      st.Sched_state.nest
  in
  (* The tile band loop (trip 64) sits outside the parallel band. *)
  Alcotest.(check int) "one launch per outer iteration" 64 r.Cost_model.launches

let test_packing_cost_charged () =
  let conv =
    Linalg.conv2d
      {
        Linalg.batch = 1;
        in_h = 30;
        in_w = 30;
        channels = 16;
        kernel_h = 3;
        kernel_w = 3;
        filters = 32;
        stride = 1;
      }
  in
  let st = Result.get_ok (Sched_state.apply_all conv [ Schedule.Im2col ]) in
  let r =
    Cost_model.estimate ~machine ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds
      ~packing_elements:st.Sched_state.packing_elements st.Sched_state.nest
  in
  Alcotest.(check bool) "packing charged" true (r.Cost_model.packing_seconds > 0.0)

let test_more_iterations_cost_more () =
  let t1 = seconds_of (Linalg.matmul ~m:128 ~n:128 ~k:128 ()) [] in
  let t2 = seconds_of (Linalg.matmul ~m:256 ~n:256 ~k:256 ()) [] in
  Alcotest.(check bool) "monotone in size" true (t2 > t1)

(* --- evaluator --- *)

let test_evaluator_speedup_one_for_identity () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  let st = Sched_state.init op in
  Alcotest.(check (float 1e-9)) "identity speedup" 1.0 (Evaluator.speedup ev st)

let test_evaluator_base_cached () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  let a = Evaluator.base_seconds ev op in
  let b = Evaluator.base_seconds ev op in
  Alcotest.(check (float 1e-12)) "cached" a b

let test_evaluator_counts_measurements () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  ignore (Evaluator.schedule_speedup ev op [ Schedule.Vectorize ]);
  ignore (Evaluator.schedule_speedup ev op [ Schedule.Swap 0; Schedule.Vectorize ]);
  Alcotest.(check int) "two measurements" 2 (Evaluator.explored ev)

let test_evaluator_schedule_error () =
  let ev = Evaluator.create () in
  let op = big_matmul () in
  Alcotest.(check bool) "bad schedule errors" true
    (Result.is_error
       (Evaluator.schedule_speedup ev op [ Schedule.Tile [| 7; 0; 0 |] ]))

let test_timeout_floor () =
  (* Speedups are floored at 1/timeout_factor by the adaptive timeout. *)
  let ev = Evaluator.create () in
  let op = Linalg.add [| 64; 64 |] in
  (* A pathological schedule: tile with size 1 everywhere then more
     levels; might not trigger the timeout, so only the floor invariant
     is checked. *)
  match
    Sched_state.apply_all op
      [ Schedule.Tile [| 1; 1 |]; Schedule.Tile [| 1; 1 |]; Schedule.Parallelize [| 1; 1 |] ]
  with
  | Error _ -> ()
  | Ok st ->
      Alcotest.(check bool) "floored" true
        (Evaluator.speedup ev st >= (1.0 /. Evaluator.timeout_factor) -. 1e-9)

(* --- cache simulator --- *)

let test_cache_sim_hit_after_miss () =
  let sim = Cache_sim.create Test_helpers.tiny_test_machine in
  Cache_sim.access sim ~buf:"x" ~index:0 ~elem_bytes:4;
  Cache_sim.access sim ~buf:"x" ~index:1 ~elem_bytes:4;
  (* same line *)
  match Cache_sim.stats sim with
  | { Cache_sim.name = "l1"; accesses; misses } :: _ ->
      Alcotest.(check int) "two accesses" 2 accesses;
      Alcotest.(check int) "one miss" 1 misses
  | _ -> Alcotest.fail "expected l1 first"

let test_cache_sim_capacity_eviction () =
  let sim = Cache_sim.create Test_helpers.tiny_test_machine in
  (* L1 is 1 KiB = 16 lines; stream 64 distinct lines twice: second pass
     still misses (capacity). *)
  for pass = 1 to 2 do
    ignore pass;
    for i = 0 to 63 do
      Cache_sim.access sim ~buf:"x" ~index:(i * 16) ~elem_bytes:4
    done
  done;
  match Cache_sim.stats sim with
  | { Cache_sim.misses; _ } :: _ ->
      Alcotest.(check int) "all L1 misses" 128 misses
  | [] -> Alcotest.fail "no stats"

let test_cache_sim_small_footprint_reuse () =
  let sim = Cache_sim.create Test_helpers.tiny_test_machine in
  for pass = 1 to 10 do
    ignore pass;
    for i = 0 to 7 do
      Cache_sim.access sim ~buf:"x" ~index:(i * 16) ~elem_bytes:4
    done
  done;
  match Cache_sim.stats sim with
  | { Cache_sim.misses; _ } :: _ -> Alcotest.(check int) "only cold misses" 8 misses
  | [] -> Alcotest.fail "no stats"

let test_cache_sim_validates_tiling_direction () =
  (* The simulated L2 miss count for a tiled small matmul must not
     exceed the untiled one — same direction as the analytical model. *)
  let op = Linalg.matmul ~m:32 ~n:32 ~k:32 () in
  let misses sched level_idx =
    let st = Result.get_ok (Sched_state.apply_all op sched) in
    match Cache_sim.simulate_nest ~machine:Test_helpers.tiny_test_machine st.Sched_state.nest with
    | Error e -> Alcotest.fail e
    | Ok (_, stats) -> (List.nth stats level_idx).Cache_sim.misses
  in
  let untiled = misses [] 1 in
  let tiled = misses [ Schedule.Tile [| 8; 8; 8 |] ] 1 in
  Alcotest.(check bool)
    (Printf.sprintf "tiled %d <= untiled %d" tiled untiled)
    true (tiled <= untiled)

let qcheck_speedup_positive =
  QCheck.Test.make ~name:"speedups are strictly positive" ~count:40
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let op = Generator.random_op rng
          (Util.Rng.choice rng [| "matmul"; "conv2d"; "maxpool"; "add"; "relu" |]) in
      let ev = Evaluator.create () in
      let st = Sched_state.init op in
      Evaluator.speedup ev st > 0.0)

(* [Cost_model.estimate] against the reference copy of the estimate it
   replaced (cost_model_ref.ml): every report field must agree by bit
   pattern. Each case draws a generator op of any kind, prices its
   budgeted candidate set — sampled or exhaustive, with the im2col twin
   for convolutions — each candidate also with an [Unroll] inserted
   before its final vectorize and with an [Unroll] instead of it, so
   merged reference groups carry a constant spread and stores repeat;
   and it prices one example nest under all-parallel and all-reduction
   iter kinds, plus its raised op's candidates when it raises. Every
   state is priced on two machine profiles. *)
let report_bits (r : Cost_model.report) =
  let f x = Int64.to_string (Int64.bits_of_float x) in
  String.concat ";"
    ([ f r.Cost_model.seconds; f r.Cost_model.compute_cycles;
       f r.Cost_model.parallel_factor; string_of_int r.Cost_model.launches;
       f r.Cost_model.packing_seconds; string_of_bool r.Cost_model.vectorized;
       f r.Cost_model.vector_efficiency ]
    @ List.concat_map
        (fun (t : Cost_model.level_traffic) ->
          [ t.Cost_model.level; f t.Cost_model.miss_lines; f t.Cost_model.cycles ])
        r.Cost_model.traffic)

let example_nests =
  lazy
    (List.map
       (fun file ->
         let ic = open_in (Filename.concat "../examples/nests" file) in
         let text = really_input_string ic (in_channel_length ic) in
         close_in ic;
         Test_helpers.parse text)
       (List.sort compare
          (List.filter
             (fun f -> Filename.check_suffix f ".nest")
             (Array.to_list (Sys.readdir "../examples/nests")))))

let estimate_kinds =
  [| "matmul"; "conv2d"; "maxpool"; "add"; "relu"; "batch_matmul";
     "conv2d_nchw"; "dwconv"; "avgpool"; "mul"; "sub"; "div"; "exp"; "log";
     "bias_add" |]

let qcheck_estimate_matches_reference =
  QCheck.Test.make ~name:"estimate matches the reference bit for bit"
    ~count:30
    QCheck.(pair (int_range 0 (Array.length estimate_kinds - 1)) (int_range 0 10_000))
    (fun (kind, seed) ->
      let rng = Util.Rng.create seed in
      let machines = [ Machine.e5_2680_v4; Machine.avx512_server ] in
      let agree ~iter_kinds ?packing_elements nest =
        List.for_all
          (fun machine ->
            let got = Cost_model.estimate ~machine ~iter_kinds ?packing_elements nest in
            let want =
              Cost_model_ref.estimate ~machine ~iter_kinds ?packing_elements nest
            in
            report_bits got = report_bits want
            || QCheck.Test.fail_reportf "%s on %s:\n  got  %s\n  want %s"
                 nest.Loop_nest.name machine.Machine.name (report_bits got)
                 (report_bits want))
          machines
      in
      let agree_state (st : Sched_state.t) =
        agree ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds
          ~packing_elements:st.Sched_state.packing_elements st.Sched_state.nest
      in
      let candidates op =
        let config = { Auto_scheduler.default_config with max_schedules = 24 } in
        List.concat_map
          (fun sched ->
            let f = Util.Rng.choice rng [| 2; 3; 4; 8 |] in
            let body = List.filter (fun t -> t <> Schedule.Vectorize) sched in
            [ sched; body @ [ Schedule.Unroll f; Schedule.Vectorize ];
              body @ [ Schedule.Unroll f ] ])
          (Auto_scheduler.gather_candidates config op)
        |> List.for_all (fun sched ->
               match Sched_state.apply_all op sched with
               | Error _ -> true
               | Ok st -> agree_state st)
      in
      let op = Generator.random_op rng estimate_kinds.(kind) in
      let nests = Lazy.force example_nests in
      let nest = List.nth nests (seed mod List.length nests) in
      let n = Loop_nest.n_loops nest in
      agree_state (Sched_state.init op)
      && candidates op
      && agree ~iter_kinds:(Array.make n Linalg.Parallel_iter) nest
      && agree ~iter_kinds:(Array.make n Linalg.Reduction_iter) nest
      && (match Lower.raise_nest nest with
         | Ok raised -> candidates raised
         | Error _ -> true))

(* A synthetic nest whose body loads [groups] distinct (buffer,
   coefficients) keys, four coefficient patterns per buffer and each
   key at two constant offsets, into one store. No generated nest gets
   past 32 groups, where the group order becomes that of a resized
   table (64 buckets, then 128). *)
let many_groups_nest ~groups ~vector =
  let n = 3 in
  let patterns =
    [| [ [ (0, 1) ]; [ (1, 1) ] ];
       [ [ (1, 1) ]; [ (2, 1) ] ];
       [ [ (0, 1); (2, 1) ]; [ (1, 2) ] ];
       [ [ (2, 2) ]; [ (0, 1); (1, 1) ] ] |]
  in
  let load g ~offset =
    let subscript d terms = Affine.expr ~const:(offset * (d + 1)) n terms in
    Loop_nest.Load
      {
        Loop_nest.buf = Printf.sprintf "B%d" (g / 4);
        idx = Array.of_list (List.mapi subscript patterns.(g mod 4));
      }
  in
  let sum =
    List.fold_left
      (fun acc g ->
        Loop_nest.Binop
          (Linalg.Add, acc, Loop_nest.Binop (Linalg.Mul, load g ~offset:0, load g ~offset:1)))
      (Loop_nest.Const 0.0) (List.init groups Fun.id)
  in
  let out = { Loop_nest.buf = "O"; idx = [| Affine.dim n 0; Affine.dim n 1 |] } in
  let loop d ub kind = { Loop_nest.ub; kind; origin = d } in
  {
    Loop_nest.name = Printf.sprintf "groups%d" groups;
    loops =
      [| loop 0 4 Loop_nest.Seq; loop 1 8 Loop_nest.Parallel;
         loop 2 16 (if vector then Loop_nest.Vector else Loop_nest.Seq) |];
    body = [ Loop_nest.Store (out, sum) ];
    buffers =
      ("O", [| 4; 8 |])
      :: List.init ((groups + 3) / 4) (fun b -> (Printf.sprintf "B%d" b, [| 64; 64 |]));
    inits = [];
  }

let test_estimate_many_groups () =
  List.iter
    (fun groups ->
      List.iter
        (fun vector ->
          let nest = many_groups_nest ~groups ~vector in
          (match Loop_nest.validate nest with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          List.iter
            (fun machine ->
              List.iter
                (fun iter_kinds ->
                  Alcotest.(check string)
                    (Printf.sprintf "%d groups, vector %b, %s" groups vector
                       machine.Machine.name)
                    (report_bits (Cost_model_ref.estimate ~machine ~iter_kinds nest))
                    (report_bits (Cost_model.estimate ~machine ~iter_kinds nest)))
                [ [| Linalg.Parallel_iter; Linalg.Parallel_iter; Linalg.Reduction_iter |];
                  [| Linalg.Parallel_iter; Linalg.Reduction_iter; Linalg.Parallel_iter |] ])
            [ Machine.e5_2680_v4; Machine.avx512_server ])
        [ false; true ])
    [ 33; 40; 70 ]

let suite =
  [
    Alcotest.test_case "positive time" `Quick test_positive_time;
    Alcotest.test_case "vectorize helps" `Quick test_vectorize_helps;
    Alcotest.test_case "parallel helps" `Quick test_parallel_helps;
    Alcotest.test_case "parallel capped by cores" `Quick test_parallel_capped_by_cores;
    Alcotest.test_case "tiling reduces L2 traffic" `Quick test_tiling_reduces_l2_traffic;
    Alcotest.test_case "interchange changes time" `Quick test_interchange_changes_time;
    Alcotest.test_case "vector efficiency contiguity" `Quick
      test_vector_efficiency_contiguous;
    Alcotest.test_case "launch overhead counted" `Quick test_launch_overhead_counted;
    Alcotest.test_case "packing cost charged" `Quick test_packing_cost_charged;
    Alcotest.test_case "monotone in size" `Quick test_more_iterations_cost_more;
    Alcotest.test_case "evaluator identity speedup" `Quick
      test_evaluator_speedup_one_for_identity;
    Alcotest.test_case "evaluator base cached" `Quick test_evaluator_base_cached;
    Alcotest.test_case "evaluator counts measurements" `Quick
      test_evaluator_counts_measurements;
    Alcotest.test_case "evaluator schedule error" `Quick test_evaluator_schedule_error;
    Alcotest.test_case "timeout floor" `Quick test_timeout_floor;
    Alcotest.test_case "cache sim hit after miss" `Quick test_cache_sim_hit_after_miss;
    Alcotest.test_case "cache sim capacity eviction" `Quick
      test_cache_sim_capacity_eviction;
    Alcotest.test_case "cache sim small footprint" `Quick
      test_cache_sim_small_footprint_reuse;
    Alcotest.test_case "cache sim tiling direction" `Quick
      test_cache_sim_validates_tiling_direction;
    QCheck_alcotest.to_alcotest qcheck_speedup_positive;
    QCheck_alcotest.to_alcotest qcheck_estimate_matches_reference;
    Alcotest.test_case "estimate matches the reference past 32 groups" `Quick
      test_estimate_many_groups;
  ]

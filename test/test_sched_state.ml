(* Masking rules and stepwise schedule application (paper §3.1.1). *)

let test_init () =
  let op = Test_helpers.small_matmul () in
  let st = Sched_state.init op in
  Alcotest.(check int) "3 point loops" 3 (Sched_state.n_point_loops st);
  Alcotest.(check (array int)) "trips" [| 8; 12; 16 |] (Sched_state.point_trip_counts st);
  Alcotest.(check bool) "not done" false (Sched_state.is_done st);
  Alcotest.(check (list string)) "empty schedule" []
    (List.map Schedule.transformation_name (Sched_state.applied st))

let apply_exn st tr = Result.get_ok (Sched_state.apply st tr)

let test_parallelize_once () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "can parallelize" true (Sched_state.can_parallelize st);
  let st = apply_exn st (Schedule.Parallelize [| 4; 4; 0 |]) in
  Alcotest.(check bool) "not twice" false (Sched_state.can_parallelize st);
  Alcotest.(check bool) "apply rejects" true
    (Result.is_error (Sched_state.apply st (Schedule.Parallelize [| 2; 0; 0 |])))

let test_parallelize_reduction_rejected () =
  (* k (dim 2) is a reduction dim of matmul. *)
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "reduction rejected" true
    (Result.is_error (Sched_state.apply st (Schedule.Parallelize [| 0; 0; 4 |])));
  Alcotest.(check bool) "loop 0 parallelizable" true
    (Sched_state.parallelizable_loop st 0);
  Alcotest.(check bool) "loop 2 not" false (Sched_state.parallelizable_loop st 2)

let test_vectorize_terminal () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let st = apply_exn st Schedule.Vectorize in
  Alcotest.(check bool) "done" true (Sched_state.is_done st);
  Alcotest.(check bool) "nothing after" true
    (Result.is_error (Sched_state.apply st (Schedule.Swap 0)))

let test_im2col_only_conv () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "masked" false (Sched_state.can_im2col st);
  Alcotest.(check bool) "apply rejects" true
    (Result.is_error (Sched_state.apply st Schedule.Im2col))

let test_im2col_must_be_first () =
  let st = Sched_state.init (Test_helpers.small_conv ()) in
  Alcotest.(check bool) "allowed initially" true (Sched_state.can_im2col st);
  let st = apply_exn st (Schedule.Swap 0) in
  Alcotest.(check bool) "not after a transform" false (Sched_state.can_im2col st);
  Alcotest.(check bool) "apply rejects" true
    (Result.is_error (Sched_state.apply st Schedule.Im2col))

let test_im2col_changes_op () =
  let st = Sched_state.init (Test_helpers.small_conv ()) in
  let st = apply_exn st Schedule.Im2col in
  Alcotest.(check string) "now a matmul" "matmul" (Linalg.kind_name st.Sched_state.op);
  Alcotest.(check int) "3 loops" 3 (Sched_state.n_point_loops st);
  Alcotest.(check bool) "packing recorded" true (st.Sched_state.packing_elements > 0);
  Alcotest.(check string) "original preserved" "conv2d"
    (Linalg.kind_name st.Sched_state.original)

let test_point_trips_after_tiling () =
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let st = apply_exn st (Schedule.Tile [| 4; 6; 0 |]) in
  Alcotest.(check (array int)) "point sizes" [| 4; 6; 16 |]
    (Sched_state.point_trip_counts st)

let test_apply_all_error_propagates () =
  let op = Test_helpers.small_matmul () in
  Alcotest.(check bool) "error" true
    (Result.is_error
       (Sched_state.apply_all op [ Schedule.Tile [| 5; 0; 0 |] ]))

let test_apply_all_records_order () =
  let op = Test_helpers.small_matmul () in
  let st =
    Result.get_ok
      (Sched_state.apply_all op [ Schedule.Swap 0; Schedule.Tile [| 2; 2; 2 |] ])
  in
  Alcotest.(check string) "order kept" "S(0) T(2,2,2)"
    (Schedule.to_string (Sched_state.applied st))

let test_tau_independent () =
  (* Sched_state itself has no step cap; that's the env's tau. *)
  let op = Test_helpers.small_matmul () in
  let st =
    List.fold_left
      (fun st tr -> apply_exn st tr)
      (Sched_state.init op)
      [
        Schedule.Swap 0; Schedule.Swap 1; Schedule.Swap 0; Schedule.Swap 1;
        Schedule.Swap 0; Schedule.Swap 1; Schedule.Swap 0; Schedule.Swap 1;
      ]
  in
  Alcotest.(check int) "8 steps recorded" 8 (List.length (Sched_state.applied st))

(* A size past the point band names no loop, so a wrong-arity
   Parallelize gets the tile arity error wherever its extra size sits,
   never the reduction-dim rejection. *)
let test_parallelize_arity_checked_first () =
  let op = Linalg.matmul ~m:64 ~n:64 ~k:64 () in
  List.iter
    (fun sizes ->
      match
        Sched_state.apply_all op
          [ Schedule.Parallelize sizes; Schedule.Vectorize ]
      with
      | Ok _ -> Alcotest.fail "a 4-size parallelize of a 3-loop nest applied"
      | Error e ->
          Alcotest.(check string) "arity error"
            "tile: 4 sizes for a 3-loop point band" e)
    [ [| 0; 0; 0; 4 |]; [| 4; 0; 0; 0 |] ]

let suite =
  [
    Alcotest.test_case "init" `Quick test_init;
    Alcotest.test_case "parallelize once" `Quick test_parallelize_once;
    Alcotest.test_case "parallelize reduction rejected" `Quick
      test_parallelize_reduction_rejected;
    Alcotest.test_case "vectorize terminal" `Quick test_vectorize_terminal;
    Alcotest.test_case "im2col only conv" `Quick test_im2col_only_conv;
    Alcotest.test_case "im2col must be first" `Quick test_im2col_must_be_first;
    Alcotest.test_case "im2col changes op" `Quick test_im2col_changes_op;
    Alcotest.test_case "point trips after tiling" `Quick test_point_trips_after_tiling;
    Alcotest.test_case "apply_all error" `Quick test_apply_all_error_propagates;
    Alcotest.test_case "apply_all records order" `Quick test_apply_all_records_order;
    Alcotest.test_case "no step cap in state" `Quick test_tau_independent;
    Alcotest.test_case "parallelize arity checked first" `Quick
      test_parallelize_arity_checked_first;
  ]

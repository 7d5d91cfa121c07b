(* The unrolling extension (paper §6.1 future work). *)

let test_unroll_structure () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  match Loop_transforms.unroll 4 nest with
  | Error e -> Alcotest.fail e
  | Ok u ->
      Alcotest.(check (array int)) "inner trip divided" [| 8; 12; 4 |]
        (Loop_nest.trip_counts u);
      Alcotest.(check int) "body replicated" 4 (List.length u.Loop_nest.body)

let test_unroll_preserves_semantics () =
  Test_helpers.check_schedule_preserves (Test_helpers.small_matmul ())
    [ Schedule.Unroll 4 ]

let test_unroll_after_tile_preserves () =
  Test_helpers.check_schedule_preserves (Test_helpers.small_matmul ())
    [ Schedule.Tile [| 4; 4; 8 |]; Schedule.Unroll 2; Schedule.Vectorize ]

let test_unroll_conv_preserves () =
  Test_helpers.check_schedule_preserves (Test_helpers.small_conv ())
    [ Schedule.Swap 5; Schedule.Unroll 3 ]

let test_unroll_rejects_non_divisor () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "error" true
    (Result.is_error (Loop_transforms.unroll 5 nest))

let test_unroll_rejects_after_vectorize () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  let v = Result.get_ok (Loop_transforms.vectorize nest) in
  Alcotest.(check bool) "error" true (Result.is_error (Loop_transforms.unroll 2 v))

let test_unroll_rejects_factor_one () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "error" true (Result.is_error (Loop_transforms.unroll 1 nest))

let test_unroll_notation_roundtrip () =
  let s = [ Schedule.Tile [| 2; 2; 2 |]; Schedule.Unroll 4; Schedule.Vectorize ] in
  Alcotest.(check string) "printed" "T(2,2,2) U(4) V" (Schedule.to_string s);
  Alcotest.(check bool) "parsed back" true
    (Schedule.equal s (Result.get_ok (Schedule.of_string "T(2,2,2) U(4) V")))

let test_unroll_breaks_scalar_chain () =
  (* Unrolling a scalar reduction promotes the accumulator, so estimated
     time must drop. *)
  let op = Linalg.matmul ~m:256 ~n:256 ~k:256 () in
  let time sched =
    let st = Result.get_ok (Sched_state.apply_all op sched) in
    Cost_model.seconds ~machine:Machine.e5_2680_v4
      ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds st.Sched_state.nest
  in
  Alcotest.(check bool) "unrolled faster" true
    (time [ Schedule.Unroll 8 ] < time [])

let test_unroll_printer_roundtrip () =
  let op = Test_helpers.small_matmul () in
  let st =
    Result.get_ok (Sched_state.apply_all op [ Schedule.Unroll 2 ])
  in
  let text = Ir_printer.to_string st.Sched_state.nest in
  Alcotest.(check string) "IR roundtrips" text
    (Ir_printer.to_string (Test_helpers.parse text))

let qcheck_unroll_factors_preserve =
  QCheck.Test.make ~name:"every divisor unroll factor preserves semantics" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let op = Test_helpers.small_matmul () in
      (* innermost trip is 16 *)
      let f = Util.Rng.choice rng [| 2; 4; 8; 16 |] in
      Test_helpers.check_schedule_preserves op [ Schedule.Unroll f ];
      true)

let suite =
  [
    Alcotest.test_case "unroll structure" `Quick test_unroll_structure;
    Alcotest.test_case "unroll preserves" `Quick test_unroll_preserves_semantics;
    Alcotest.test_case "unroll after tile" `Quick test_unroll_after_tile_preserves;
    Alcotest.test_case "unroll conv" `Quick test_unroll_conv_preserves;
    Alcotest.test_case "rejects non-divisor" `Quick test_unroll_rejects_non_divisor;
    Alcotest.test_case "rejects after vectorize" `Quick
      test_unroll_rejects_after_vectorize;
    Alcotest.test_case "rejects factor 1" `Quick test_unroll_rejects_factor_one;
    Alcotest.test_case "notation roundtrip" `Quick test_unroll_notation_roundtrip;
    Alcotest.test_case "breaks scalar chain" `Quick test_unroll_breaks_scalar_chain;
    Alcotest.test_case "printer roundtrip" `Quick test_unroll_printer_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_unroll_factors_preserve;
  ]

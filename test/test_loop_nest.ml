(* Tests for the loop-nest IR, its printer and its parser. *)

let lower op = Lower.to_loop_nest op

let test_lowering_structure () =
  let nest = lower (Test_helpers.small_matmul ()) in
  Alcotest.(check int) "loops" 3 (Loop_nest.n_loops nest);
  Alcotest.(check (array int)) "trips" [| 8; 12; 16 |] (Loop_nest.trip_counts nest);
  Alcotest.(check int) "buffers" 3 (List.length nest.Loop_nest.buffers);
  Alcotest.(check int) "one store" 1 (List.length nest.Loop_nest.body);
  Alcotest.(check (list (pair string (float 1e-9)))) "init C to 0"
    [ ("C", 0.0) ] nest.Loop_nest.inits

let test_validate_ok () =
  let nest = lower (Test_helpers.small_conv ()) in
  Alcotest.(check bool) "valid" true (Loop_nest.validate nest = Ok ())

let test_validate_catches_bad_buffer () =
  let nest = lower (Test_helpers.small_matmul ()) in
  let bad = { nest with Loop_nest.buffers = List.tl nest.Loop_nest.buffers } in
  Alcotest.(check bool) "invalid" true (Loop_nest.validate bad <> Ok ())

let test_validate_catches_oob_subscript () =
  let nest = lower (Test_helpers.small_matmul ()) in
  let bigger = { nest with Loop_nest.loops =
    Array.map (fun (l : Loop_nest.loop) -> { l with Loop_nest.ub = l.Loop_nest.ub * 2 })
      nest.Loop_nest.loops } in
  Alcotest.(check bool) "invalid" true (Loop_nest.validate bigger <> Ok ())

let test_loads_and_stores () =
  let nest = lower (Test_helpers.small_matmul ()) in
  (* matmul body: store C, loads C, A, B *)
  Alcotest.(check int) "loads" 3 (List.length (Loop_nest.loads_of_body nest));
  Alcotest.(check (list string)) "stores" [ "C" ]
    (List.map (fun (r : Loop_nest.mem_ref) -> r.Loop_nest.buf)
       (Loop_nest.stores_of_body nest))

let test_iteration_count () =
  let nest = lower (Test_helpers.small_matmul ()) in
  Alcotest.(check int) "8*12*16" 1536 (Loop_nest.iteration_count nest)

let roundtrip op sched =
  let st =
    match Sched_state.apply_all op sched with
    | Ok st -> st
    | Error msg -> Alcotest.failf "schedule failed: %s" msg
  in
  let text = Ir_printer.to_string st.Sched_state.nest in
  let reparsed = Test_helpers.parse text in
  let text2 = Ir_printer.to_string reparsed in
  Alcotest.(check string) "print/parse/print fixpoint" text text2

let test_roundtrip_plain () = roundtrip (Test_helpers.small_matmul ()) []

let test_roundtrip_transformed () =
  roundtrip (Test_helpers.small_matmul ())
    [ Schedule.Parallelize [| 4; 4; 0 |]; Schedule.Tile [| 2; 2; 4 |];
      Schedule.Swap 1; Schedule.Vectorize ]

let test_roundtrip_conv () =
  roundtrip (Test_helpers.small_conv ())
    [ Schedule.Tile [| 0; 2; 2; 2; 0; 0; 0 |] ]

let test_roundtrip_maxpool () =
  (* exercises the -infinity init value *)
  roundtrip (Test_helpers.small_maxpool ()) [ Schedule.Vectorize ]

let test_parser_rejects_garbage () =
  Alcotest.(check bool) "syntax error" true
    (match Ir_parser.parse_result "func @x { garbage }" with
    | Error _ -> true
    | Ok _ -> false)

let test_parser_rejects_nonzero_lb () =
  let src = "func @x { buffer y : [4] for %0 = 1 to 4 origin 0 { store y[%0] = 1.0 } }" in
  Alcotest.(check bool) "lb must be zero" true
    (Result.is_error (Ir_parser.parse_result src))

let test_parser_rejects_invalid_nest () =
  (* Well-formed syntax but out-of-bounds subscript: validation fires. *)
  let src =
    "func @x { buffer y : [2] for %0 = 0 to 4 origin 0 { store y[%0] = 1.0 } }"
  in
  Alcotest.(check bool) "invalid nest rejected" true
    (Result.is_error (Ir_parser.parse_result src))

let test_parser_accepts_negative_coeff () =
  let src =
    "func @x { buffer y : [4] for %0 = 0 to 4 origin 0 { store y[3 + -1*%0] = 1.0 } }"
  in
  match Ir_parser.parse_result src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nest ->
      let out = Interp.run nest ~inputs:[] in
      Alcotest.(check (array (float 1e-9))) "reversed fill"
        [| 1.0; 1.0; 1.0; 1.0 |] (List.assoc "y" out)

let test_parsed_semantics_match () =
  (* Parsing the printed nest yields the same computation. *)
  let op = Test_helpers.small_matmul () in
  let nest = lower op in
  let reparsed = Test_helpers.parse (Ir_printer.to_string nest) in
  let rng = Util.Rng.create 5 in
  let inputs = Test_helpers.input_buffers rng op in
  let out1 = Interp.output_of nest (Interp.run nest ~inputs) in
  let out2 = Interp.output_of reparsed (Interp.run reparsed ~inputs) in
  Test_helpers.check_close "parsed semantics" out1 out2

let qcheck_roundtrip_random_schedules =
  (* Random tile/swap schedules on the small matmul always round-trip. *)
  QCheck.Test.make ~name:"printer/parser roundtrip on random schedules" ~count:60
    QCheck.(pair (int_range 0 5) (int_range 0 1))
    (fun (seed, vec) ->
      let rng = Util.Rng.create (seed * 31) in
      let op = Test_helpers.small_matmul () in
      let trips = [| 8; 12; 16 |] in
      let sizes =
        Array.map
          (fun t ->
            let divs = Array.of_list (Loop_transforms.divisors t) in
            let d = Util.Rng.choice rng divs in
            if d = t || Util.Rng.bool rng then 0 else d)
          trips
      in
      let sched =
        (if Array.exists (fun s -> s > 0) sizes then [ Schedule.Tile sizes ] else [])
        @ [ Schedule.Swap (Util.Rng.int rng 2) ]
        @ if vec = 1 then [ Schedule.Vectorize ] else []
      in
      match Sched_state.apply_all op sched with
      | Error _ -> QCheck.assume_fail ()
      | Ok st ->
          let text = Ir_printer.to_string st.Sched_state.nest in
          Ir_printer.to_string (Test_helpers.parse text) = text)

let suite =
  [
    Alcotest.test_case "lowering structure" `Quick test_lowering_structure;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate bad buffer" `Quick test_validate_catches_bad_buffer;
    Alcotest.test_case "validate OOB subscript" `Quick test_validate_catches_oob_subscript;
    Alcotest.test_case "loads and stores" `Quick test_loads_and_stores;
    Alcotest.test_case "iteration count" `Quick test_iteration_count;
    Alcotest.test_case "roundtrip plain" `Quick test_roundtrip_plain;
    Alcotest.test_case "roundtrip transformed" `Quick test_roundtrip_transformed;
    Alcotest.test_case "roundtrip conv" `Quick test_roundtrip_conv;
    Alcotest.test_case "roundtrip maxpool" `Quick test_roundtrip_maxpool;
    Alcotest.test_case "parser rejects garbage" `Quick test_parser_rejects_garbage;
    Alcotest.test_case "parser rejects lb!=0" `Quick test_parser_rejects_nonzero_lb;
    Alcotest.test_case "parser validates nests" `Quick test_parser_rejects_invalid_nest;
    Alcotest.test_case "parser negative coeff" `Quick test_parser_accepts_negative_coeff;
    Alcotest.test_case "parsed semantics match" `Quick test_parsed_semantics_match;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_random_schedules;
  ]

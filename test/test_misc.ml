(* Odds and ends: printer float fidelity, loop-nest helpers, tempered
   sampling, autodiff op corners. *)

let test_printer_awkward_constants () =
  (* A generic op whose body carries a non-terminating decimal constant
     must survive print -> parse -> print exactly. *)
  let op =
    Linalg.generic ~name:"scaled" ~domain:[| 6 |]
      ~iter_kinds:[| Linalg.Parallel_iter |]
      ~inputs:
        [ { Linalg.name = "x"; shape = [| 6 |]; map = Affine.identity_map 1 } ]
      ~output:{ Linalg.name = "y"; shape = [| 6 |]; map = Affine.identity_map 1 }
      ~body:(Linalg.Binop (Linalg.Mul, Linalg.Input 0, Linalg.Const (1.0 /. 3.0)))
      ()
  in
  let nest = Lower.to_loop_nest op in
  let text = Ir_printer.to_string nest in
  let reparsed = Test_helpers.parse text in
  Alcotest.(check string) "fixpoint" text (Ir_printer.to_string reparsed);
  (* and it still computes x/3 *)
  let out =
    Interp.output_of reparsed
      (Interp.run reparsed ~inputs:[ ("x", [| 3.0; 6.0; 9.0; 12.0; 15.0; 18.0 |]) ])
  in
  Alcotest.(check (array (float 1e-12))) "x/3" [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] out

let test_loop_nest_helpers () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  let shifted =
    Loop_nest.map_body_exprs
      (fun (e : Affine.expr) -> { e with Affine.const = e.Affine.const + 0 })
      nest
  in
  Alcotest.(check bool) "identity rewrite keeps validity" true
    (Loop_nest.validate shifted = Ok ());
  Alcotest.(check bool) "buffer_shape raises on unknown" true
    (match Loop_nest.buffer_shape nest "nope" with
    | exception Not_found -> true
    | _ -> false)

let test_tempered_sampling_limits () =
  let rng = Util.Rng.create 99 in
  let lp =
    (* probabilities 0.7 / 0.3 *)
    Tensor.of_array [| 1; 2 |] [| log 0.7; log 0.3 |]
  in
  (* tiny temperature ~ argmax *)
  for _ = 1 to 50 do
    Alcotest.(check int) "T->0 is argmax" 0
      (Distributions.sample_tempered rng lp 0 ~temperature:0.05)
  done;
  (* large temperature ~ uniform *)
  let counts = [| 0; 0 |] in
  let n = 10_000 in
  for _ = 1 to n do
    let c = Distributions.sample_tempered rng lp 0 ~temperature:50.0 in
    counts.(c) <- counts.(c) + 1
  done;
  let p0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "T->inf is uniform (p0 = %.3f)" p0)
    true
    (Float.abs (p0 -. 0.5) < 0.03);
  Alcotest.(check bool) "T <= 0 rejected" true
    (match Distributions.sample_tempered rng lp 0 ~temperature:0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_autodiff_clamp_min_boundaries () =
  let tape = Autodiff.Tape.create () in
  let x = Autodiff.const tape (Tensor.of_array [| 3 |] [| -1.0; 0.5; 2.0 |]) in
  let c = Autodiff.clamp tape ~lo:0.0 ~hi:1.0 x in
  Alcotest.(check (array (float 1e-12))) "clamped"
    [| 0.0; 0.5; 1.0 |]
    (Test_helpers.tensor_to_array (Autodiff.value c));
  let y = Autodiff.const tape (Tensor.of_array [| 3 |] [| 0.0; 1.0; 1.0 |]) in
  let m = Autodiff.min_ tape c y in
  Alcotest.(check (array (float 1e-12))) "elementwise min"
    [| 0.0; 0.5; 1.0 |]
    (Test_helpers.tensor_to_array (Autodiff.value m))

let test_tensor_shape_errors () =
  let a = Tensor.zeros [| 2; 3 |] in
  let b = Tensor.zeros [| 2; 3 |] in
  Alcotest.(check bool) "matmul inner mismatch raises" true
    (match Tensor.matmul a b with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "map2_into shape mismatch raises" true
    (match
       Tensor.map2_into ( +. ) ~dst:(Tensor.zeros [| 2; 3 |]) a (Tensor.zeros [| 3; 2 |])
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_schedule_state_point_band_after_everything () =
  (* After a deep schedule the point band still has one loop per op dim
     in some order. *)
  let op = Test_helpers.small_conv () in
  let st =
    Result.get_ok
      (Sched_state.apply_all op
         [
           Schedule.Tile [| 0; 3; 2; 2; 0; 0; 0 |];
           Schedule.Swap 1;
           Schedule.Parallelize [| 2; 0; 0; 0; 0; 0; 0 |];
           Schedule.Swap 4;
         ])
  in
  let band = Loop_transforms.point_band st.Sched_state.nest in
  Alcotest.(check int) "seven point loops" 7 (Array.length band);
  let origins =
    List.sort compare
      (Array.to_list (Array.map (fun (l : Loop_nest.loop) -> l.Loop_nest.origin) band))
  in
  Alcotest.(check (list int)) "origins cover all dims" [ 0; 1; 2; 3; 4; 5; 6 ] origins

let test_evaluator_explored_monotone () =
  let ev = Evaluator.create () in
  let op = Test_helpers.small_matmul () in
  let before = Evaluator.explored ev in
  ignore (Evaluator.schedule_speedup ev op [ Schedule.Vectorize ]);
  Alcotest.(check int) "incremented" (before + 1) (Evaluator.explored ev)

let suite =
  [
    Alcotest.test_case "printer awkward constants" `Quick test_printer_awkward_constants;
    Alcotest.test_case "loop nest helpers" `Quick test_loop_nest_helpers;
    Alcotest.test_case "tempered sampling limits" `Quick test_tempered_sampling_limits;
    Alcotest.test_case "clamp/min boundaries" `Quick test_autodiff_clamp_min_boundaries;
    Alcotest.test_case "tensor shape errors" `Quick test_tensor_shape_errors;
    Alcotest.test_case "point band after deep schedule" `Quick
      test_schedule_state_point_band_after_everything;
    Alcotest.test_case "evaluator explored monotone" `Quick
      test_evaluator_explored_monotone;
  ]

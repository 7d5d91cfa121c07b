(* Tests for the affine expression/map machinery. *)

let expr_testable =
  Alcotest.testable
    (fun ppf (e : Affine.expr) ->
      Affine.pp_map ppf (Affine.map_of_exprs (Array.length e.Affine.coeffs) [ e ]))
    Affine.equal_expr

let map_testable = Alcotest.testable Affine.pp_map Affine.equal_map

let test_expr_builds () =
  let e = Affine.expr ~const:3 4 [ (0, 2); (2, 1) ] in
  Alcotest.(check (array int)) "coeffs" [| 2; 0; 1; 0 |] e.Affine.coeffs;
  Alcotest.(check int) "const" 3 e.Affine.const

let test_expr_merges_duplicate_dims () =
  let e = Affine.expr 3 [ (1, 2); (1, 3) ] in
  Alcotest.(check (array int)) "merged" [| 0; 5; 0 |] e.Affine.coeffs

let test_expr_rejects_bad_dim () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Affine.expr: dim out of range") (fun () ->
      ignore (Affine.expr 2 [ (2, 1) ]))

let test_eval_expr () =
  let e = Affine.expr ~const:1 3 [ (0, 2); (2, -1) ] in
  Alcotest.(check int) "2*5 - 7 + 1" 4 (Affine.eval_expr e [| 5; 9; 7 |])

(* Substitution scales each replacement by its coefficient and sums
   them: [2 * i0 + i1] with [i0 := a], [i1 := b] is [2a + b]. *)
let test_add_scale () =
  let a = Affine.expr ~const:1 2 [ (0, 1) ] in
  let b = Affine.expr ~const:2 2 [ (1, 3) ] in
  let s = Affine.substitute (Affine.expr 2 [ (0, 2); (1, 1) ]) [| a; b |] in
  Alcotest.(check expr_testable) "2a + b"
    (Affine.expr ~const:4 2 [ (0, 2); (1, 3) ])
    s

let test_identity_map () =
  let m = Affine.identity_map 3 in
  Alcotest.(check (array int)) "identity eval" [| 4; 5; 6 |]
    (Affine.eval_map m [| 4; 5; 6 |])

let test_projection_map () =
  let m = Affine.projection_map 3 [ 2; 0 ] in
  Alcotest.(check (array int)) "projection" [| 6; 4 |]
    (Affine.eval_map m [| 4; 5; 6 |])

let test_substitute () =
  (* e = 2*d0 + d1 + 1; substitute d0 := 4*e0 + e1, d1 := e2.
     Result: 8*e0 + 2*e1 + e2 + 1. *)
  let e = Affine.expr ~const:1 2 [ (0, 2); (1, 1) ] in
  let subst = [| Affine.expr 3 [ (0, 4); (1, 1) ]; Affine.dim 3 2 |] in
  Alcotest.(check expr_testable) "substituted"
    (Affine.expr ~const:1 3 [ (0, 8); (1, 2); (2, 1) ])
    (Affine.substitute e subst)

let test_substitute_identity_roundtrip () =
  let e = Affine.expr ~const:5 3 [ (0, 1); (1, 7); (2, -2) ] in
  let subst = Array.init 3 (fun d -> Affine.dim 3 d) in
  Alcotest.(check expr_testable) "identity subst" e (Affine.substitute e subst)

let test_uses_dim () =
  let m = Affine.projection_map 3 [ 0; 2 ] in
  Alcotest.(check bool) "uses d0" true (Affine.uses_dim m 0);
  Alcotest.(check bool) "skips d1" false (Affine.uses_dim m 1);
  Alcotest.(check bool) "uses d2" true (Affine.uses_dim m 2)

let test_to_matrix () =
  let m =
    Affine.map_of_exprs 2
      [ Affine.expr ~const:3 2 [ (0, 1) ]; Affine.expr 2 [ (1, 2) ] ]
  in
  Alcotest.(check (array (array int)))
    "figure-2 style matrix"
    [| [| 1; 0; 3 |]; [| 0; 2; 0 |] |]
    (Affine.to_matrix m)

let qcheck_eval_linear =
  (* eval(a + b) = eval a + eval b pointwise. *)
  let gen_expr =
    QCheck.Gen.(
      let* coeffs = array_size (return 3) (int_range (-4) 4) in
      let* const = int_range (-5) 5 in
      return { Affine.coeffs; const })
  in
  QCheck.Test.make ~name:"affine eval is linear in exprs" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple gen_expr gen_expr (array_size (return 3) (int_range 0 9))))
    (fun (a, b, pt) ->
      Affine.eval_expr (Affine.substitute (Affine.expr 2 [ (0, 1); (1, 1) ]) [| a; b |]) pt
      = Affine.eval_expr a pt + Affine.eval_expr b pt)

let suite =
  [
    Alcotest.test_case "expr builds" `Quick test_expr_builds;
    Alcotest.test_case "expr merges duplicates" `Quick test_expr_merges_duplicate_dims;
    Alcotest.test_case "expr rejects bad dim" `Quick test_expr_rejects_bad_dim;
    Alcotest.test_case "eval expr" `Quick test_eval_expr;
    Alcotest.test_case "add/scale" `Quick test_add_scale;
    Alcotest.test_case "identity map" `Quick test_identity_map;
    Alcotest.test_case "projection map" `Quick test_projection_map;
    Alcotest.test_case "substitute" `Quick test_substitute;
    Alcotest.test_case "substitute identity" `Quick test_substitute_identity_roundtrip;
    Alcotest.test_case "uses_dim" `Quick test_uses_dim;
    Alcotest.test_case "to_matrix" `Quick test_to_matrix;
    QCheck_alcotest.to_alcotest qcheck_eval_linear;
  ]

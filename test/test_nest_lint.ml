(* Lint pass behavior, and its agreement with [Loop_nest.validate]:
   lint reports an Error-severity diagnostic exactly when validate
   rejects the nest — checked directly and over every example nest
   shipped under examples/nests/. *)

let check = Alcotest.(check bool)
let parse = Test_helpers.parse

let lint_agrees nest =
  let diags = Nest_lint.run nest in
  let valid = Result.is_ok (Loop_nest.validate nest) in
  check "lint Error iff validate rejects" (not valid)
    (Nest_lint.has_error diags)

let test_examples_agree () =
  let dir = "../examples/nests" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nest")
    |> List.sort compare
  in
  check "found example nests" true (List.length files >= 5);
  List.iter
    (fun f ->
      let ic = open_in (Filename.concat dir f) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let nest = parse text in
      lint_agrees nest;
      (* shipped examples must be clean of Errors *)
      check (f ^ " has no Error diagnostics") false
        (Nest_lint.has_error (Nest_lint.run nest)))
    files

let test_diagnostics () =
  (* dead buffer: declared, never touched *)
  let nest =
    parse
      "func @dead { buffer a : [4] buffer unused : [4] \
       for %0 = 0 to 4 origin 0 { store a[%0] = 1.0 } }"
  in
  let diags = Nest_lint.run nest in
  check "dead buffer flagged" true
    (List.exists
       (fun d ->
         d.Nest_lint.severity = Nest_lint.Warning
         && Astring_contains.contains d.Nest_lint.loc "unused"
         && Astring_contains.contains d.Nest_lint.message "dead buffer")
       diags);
  (* read-modify-write without init *)
  let rmw =
    parse
      "func @rmw { buffer a : [4] \
       for %0 = 0 to 4 origin 0 { store a[%0] = add(load a[%0], 1.0) } }"
  in
  check "uninitialized read flagged" true
    (List.exists
       (fun d -> d.Nest_lint.severity = Nest_lint.Warning)
       (Nest_lint.run rmw));
  (* trip-count-1 loop *)
  let trivial =
    parse
      "func @one { buffer a : [4, 1] \
       for %0 = 0 to 4 origin 0 { for %1 = 0 to 1 origin 1 { \
       store a[%0, %1] = 2.0 } } }"
  in
  check "trip-count-1 loop flagged" true
    (List.exists
       (fun d ->
         d.Nest_lint.severity = Nest_lint.Info
         && Astring_contains.contains d.Nest_lint.message "trip-count-1")
       (Nest_lint.run trivial));
  (* redundant init: initialized but never read *)
  let redundant =
    parse
      "func @ri { buffer a : [4] init 3.0 \
       for %0 = 0 to 4 origin 0 { store a[%0] = 1.0 } }"
  in
  check "redundant init flagged" true
    (List.exists
       (fun d -> d.Nest_lint.severity = Nest_lint.Info)
       (Nest_lint.run redundant));
  (* a clean nest stays clean *)
  let clean =
    parse
      "func @ok { buffer a : [4] buffer b : [4] \
       for %0 = 0 to 4 origin 0 { store b[%0] = add(load a[%0], 1.0) } }"
  in
  check "clean nest has no diagnostics" true (Nest_lint.run clean = [])

let test_invalid_nest_is_error () =
  (* subscript out of bounds: validate rejects, lint must report Error *)
  let nest =
    {
      Loop_nest.name = "oob";
      loops = [| { Loop_nest.ub = 8; kind = Loop_nest.Seq; origin = 0 } |];
      body =
        [
          Loop_nest.Store
            ( { Loop_nest.buf = "a"; idx = [| Affine.expr ~const:1 1 [ (0, 1) ] |] },
              Loop_nest.Const 1.0 );
        ];
      buffers = [ ("a", [| 8 |]) ];
      inits = [];
    }
  in
  check "validate rejects" true (Result.is_error (Loop_nest.validate nest));
  lint_agrees nest

(* --- Loop_nest.validate corner-sign coverage (per-coefficient-sign
       corner checking: with mixed signs only one corner of the domain
       maximizes the subscript, and only one minimizes it) --- *)

let mixed_sign_nest ~const =
  (* a[%0 - %1 + const] over 0<=%0<4, 0<=%1<4: range [const-3, const+3] *)
  {
    Loop_nest.name = "mixed";
    loops =
      [|
        { Loop_nest.ub = 4; kind = Loop_nest.Seq; origin = 0 };
        { Loop_nest.ub = 4; kind = Loop_nest.Seq; origin = 1 };
      |];
    body =
      [
        Loop_nest.Store
          ( {
              Loop_nest.buf = "a";
              idx = [| Affine.expr ~const 2 [ (0, 1); (1, -1) ] |];
            },
            Loop_nest.Const 1.0 );
      ];
    buffers = [ ("a", [| 7 |]) ];
    inits = [];
  }

let test_validate_corner_signs () =
  (* const 3: range [0, 6] fits shape 7 exactly *)
  check "mixed signs in bounds" true
    (Result.is_ok (Loop_nest.validate (mixed_sign_nest ~const:3)));
  (* const 2: low corner underflows to -1, high corner fine *)
  check "only the low corner overflows" true
    (Result.is_error (Loop_nest.validate (mixed_sign_nest ~const:2)));
  (* const 4: high corner overflows to 7, low corner fine *)
  check "only the high corner overflows" true
    (Result.is_error (Loop_nest.validate (mixed_sign_nest ~const:4)));
  (* lint agrees on all three *)
  lint_agrees (mixed_sign_nest ~const:3);
  lint_agrees (mixed_sign_nest ~const:2);
  lint_agrees (mixed_sign_nest ~const:4)

let suite =
  [
    Alcotest.test_case "examples agree with validate and are clean" `Quick
      test_examples_agree;
    Alcotest.test_case "diagnostics fire on crafted nests" `Quick
      test_diagnostics;
    Alcotest.test_case "invalid nest surfaces as Error" `Quick
      test_invalid_nest_is_error;
    Alcotest.test_case "validate corner-sign bounds" `Quick
      test_validate_corner_signs;
  ]

(* Schedule notation: printing, parsing, round-trips. *)

let sched_testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Schedule.to_string s))
    Schedule.equal

let test_to_string () =
  let s =
    [
      Schedule.Tile [| 0; 32; 64 |];
      Schedule.Parallelize [| 4; 0; 0 |];
      Schedule.Swap 1;
      Schedule.Im2col;
      Schedule.Vectorize;
    ]
  in
  Alcotest.(check string) "notation" "T(0,32,64) P(4,0,0) S(1) C V"
    (Schedule.to_string s)

let test_of_string () =
  match Schedule.of_string "T(0,32,64) P(4,0,0) S(1) C V" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check sched_testable) "parsed"
        [
          Schedule.Tile [| 0; 32; 64 |];
          Schedule.Parallelize [| 4; 0; 0 |];
          Schedule.Swap 1;
          Schedule.Im2col;
          Schedule.Vectorize;
        ]
        s

let test_of_string_interchange () =
  match Schedule.of_string "I(2,0,1)" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check sched_testable) "parsed" [ Schedule.Interchange [| 2; 0; 1 |] ] s

let test_of_string_empty () =
  Alcotest.(check sched_testable) "empty" [] (Result.get_ok (Schedule.of_string "  "))

let test_of_string_rejects_unknown () =
  Alcotest.(check bool) "error" true (Result.is_error (Schedule.of_string "X(1)"))

let test_of_string_rejects_bad_ints () =
  Alcotest.(check bool) "error" true (Result.is_error (Schedule.of_string "T(1,a)"))

let test_of_string_rejects_multi_swap () =
  Alcotest.(check bool) "error" true (Result.is_error (Schedule.of_string "S(1,2)"))

let test_transformation_names () =
  Alcotest.(check string) "tiling" "tiling"
    (Schedule.transformation_name (Schedule.Tile [| 1 |]));
  Alcotest.(check string) "parallelization" "parallelization"
    (Schedule.transformation_name (Schedule.Parallelize [| 1 |]));
  Alcotest.(check string) "interchange" "interchange"
    (Schedule.transformation_name (Schedule.Swap 0));
  Alcotest.(check string) "im2col" "im2col" (Schedule.transformation_name Schedule.Im2col);
  Alcotest.(check string) "vectorization" "vectorization"
    (Schedule.transformation_name Schedule.Vectorize)

let qcheck_roundtrip =
  let gen_tr =
    QCheck.Gen.(
      oneof
        [
          map (fun l -> Schedule.Tile (Array.of_list l))
            (list_size (int_range 1 7) (int_range 0 128));
          map (fun l -> Schedule.Parallelize (Array.of_list l))
            (list_size (int_range 1 7) (int_range 0 128));
          map (fun l -> Schedule.Interchange (Array.of_list l))
            (list_size (int_range 1 7) (int_range 0 6));
          map (fun i -> Schedule.Swap i) (int_range 0 6);
          return Schedule.Im2col;
          return Schedule.Vectorize;
        ])
  in
  QCheck.Test.make ~name:"schedule notation roundtrips" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 7) gen_tr))
    (fun sched ->
      match Schedule.of_string (Schedule.to_string sched) with
      | Ok parsed -> Schedule.equal sched parsed
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "of_string" `Quick test_of_string;
    Alcotest.test_case "of_string interchange" `Quick test_of_string_interchange;
    Alcotest.test_case "of_string empty" `Quick test_of_string_empty;
    Alcotest.test_case "rejects unknown" `Quick test_of_string_rejects_unknown;
    Alcotest.test_case "rejects bad ints" `Quick test_of_string_rejects_bad_ints;
    Alcotest.test_case "rejects multi swap" `Quick test_of_string_rejects_multi_swap;
    Alcotest.test_case "transformation names" `Quick test_transformation_names;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
  ]

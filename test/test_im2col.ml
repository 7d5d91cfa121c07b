(* Im2col rewrite: GEMM dimensions and numerical equivalence. *)

let test_rewrite_dims () =
  let op = Test_helpers.small_conv () in
  (* batch 2, 8x8x3 input, 3x3 kernel, 4 filters, stride 1: oh=ow=6 *)
  match Im2col.rewrite op with
  | Error e -> Alcotest.fail e
  | Ok (gemm, `Packing_elements elems) ->
      Alcotest.(check (array int)) "gemm domain" [| 72; 4; 27 |] gemm.Linalg.domain;
      Alcotest.(check int) "packing elements" (72 * 27) elems

let test_rewrite_rejects_non_conv () =
  Alcotest.(check bool) "error" true
    (Result.is_error (Im2col.rewrite (Test_helpers.small_matmul ())))

let equivalence_check p =
  let conv = Linalg.conv2d p in
  let rng = Util.Rng.create 99 in
  let image =
    Test_helpers.buffer_of rng (p.Linalg.batch * p.Linalg.in_h * p.Linalg.in_w * p.Linalg.channels)
  in
  let filter =
    Test_helpers.buffer_of rng
      (p.Linalg.kernel_h * p.Linalg.kernel_w * p.Linalg.channels * p.Linalg.filters)
  in
  let conv_out =
    Linalg.execute_reference conv [ ("input", image); ("filter", filter) ]
  in
  let gemm, _ = Result.get_ok (Im2col.rewrite conv) in
  let packed = Im2col.pack_input p image in
  let gemm_out = Linalg.execute_reference gemm [ ("A", packed); ("B", filter) ] in
  Test_helpers.check_close "im2col == conv" gemm_out conv_out

let test_equivalence_stride1 () =
  equivalence_check
    {
      Linalg.batch = 2;
      in_h = 6;
      in_w = 7;
      channels = 3;
      kernel_h = 3;
      kernel_w = 2;
      filters = 5;
      stride = 1;
    }

let test_equivalence_stride2 () =
  equivalence_check
    {
      Linalg.batch = 1;
      in_h = 9;
      in_w = 9;
      channels = 2;
      kernel_h = 3;
      kernel_w = 3;
      filters = 4;
      stride = 2;
    }

let test_equivalence_1x1_kernel () =
  equivalence_check
    {
      Linalg.batch = 1;
      in_h = 4;
      in_w = 4;
      channels = 8;
      kernel_h = 1;
      kernel_w = 1;
      filters = 16;
      stride = 1;
    }

let test_pack_rejects_bad_size () =
  let op = Test_helpers.small_conv () in
  match op.Linalg.kind with
  | Linalg.Conv2d p ->
      Alcotest.(check bool) "raises" true
        (match Im2col.pack_input p [| 1.0 |] with
        | exception Invalid_argument _ -> true
        | _ -> false)
  | _ -> Alcotest.fail "expected conv"

let qcheck_equivalence_random =
  QCheck.Test.make ~name:"im2col equivalence on random conv shapes" ~count:20
    QCheck.(
      quad (int_range 1 2) (int_range 3 8) (int_range 1 3) (int_range 1 4))
    (fun (batch, spatial, channels, filters) ->
      equivalence_check
        {
          Linalg.batch;
          in_h = spatial;
          in_w = spatial;
          channels;
          kernel_h = min 3 spatial;
          kernel_w = min 2 spatial;
          filters;
          stride = 1;
        };
      true)

let suite =
  [
    Alcotest.test_case "rewrite dims" `Quick test_rewrite_dims;
    Alcotest.test_case "rejects non-conv" `Quick test_rewrite_rejects_non_conv;
    Alcotest.test_case "equivalence stride 1" `Quick test_equivalence_stride1;
    Alcotest.test_case "equivalence stride 2" `Quick test_equivalence_stride2;
    Alcotest.test_case "equivalence 1x1" `Quick test_equivalence_1x1_kernel;
    Alcotest.test_case "pack rejects bad size" `Quick test_pack_rejects_bad_size;
    QCheck_alcotest.to_alcotest qcheck_equivalence_random;
  ]

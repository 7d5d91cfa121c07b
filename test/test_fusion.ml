(* Producer-consumer fusion (paper §6.1 future work). *)

let rng () = Util.Rng.create 404

let buffers rng specs =
  List.map (fun (name, size) -> (name, Test_helpers.buffer_of rng size)) specs

(* Run [consumer] with [intermediate] at input [consumer_input] and its
   other inputs from [bindings] under their own names. *)
let consume consumer ~consumer_input intermediate bindings =
  let consumer_bindings =
    Array.to_list
      (Array.mapi
         (fun i (o : Linalg.operand) ->
           if i = consumer_input then (o.Linalg.name, intermediate)
           else
             match List.assoc_opt o.Linalg.name bindings with
             | Some buf -> (o.Linalg.name, buf)
             | None ->
                 invalid_arg
                   ("sequential_reference: missing buffer " ^ o.Linalg.name))
         consumer.Linalg.inputs)
  in
  Linalg.execute_reference consumer consumer_bindings

(* Ground truth: run producer then consumer sequentially on the given
   buffers (producer inputs under their "p_"-prefixed names) and return
   the final output. *)
let sequential_reference producer consumer ~consumer_input bindings =
  let producer_bindings =
    Array.to_list
      (Array.map
         (fun (o : Linalg.operand) ->
           match List.assoc_opt ("p_" ^ o.Linalg.name) bindings with
           | Some buf -> (o.Linalg.name, buf)
           | None ->
               invalid_arg
                 ("sequential_reference: missing buffer p_" ^ o.Linalg.name))
         producer.Linalg.inputs)
  in
  consume consumer ~consumer_input
    (Linalg.execute_reference producer producer_bindings)
    bindings

(* Execute [fused] on its inputs, looked up by name in [bindings], and
   compare with [expected]. *)
let check_fused fused expected bindings =
  let fused_inputs =
    Array.to_list
      (Array.map
         (fun (o : Linalg.operand) ->
           (o.Linalg.name, List.assoc o.Linalg.name bindings))
         fused.Linalg.inputs)
  in
  let got = Linalg.execute_reference fused fused_inputs in
  Test_helpers.check_close "fused == sequential" got expected

let check_fusion ~producer ~consumer ~consumer_input bindings =
  match Fusion.fuse ~producer ~consumer ~consumer_input with
  | Error e -> Alcotest.fail e
  | Ok fused ->
      check_fused fused
        (sequential_reference producer consumer ~consumer_input bindings)
        bindings;
      fused

let test_add_relu_fusion () =
  (* relu(x + y): the residual-block tail. *)
  let producer = Linalg.add [| 8; 16 |] in
  let consumer = Linalg.relu [| 8; 16 |] in
  let r = rng () in
  let bindings = buffers r [ ("p_in0", 128); ("p_in1", 128) ] in
  let fused = check_fusion ~producer ~consumer ~consumer_input:0 bindings in
  Alcotest.(check int) "two inputs" 2 (Array.length fused.Linalg.inputs);
  (* exactly one pass over memory: inputs are the original x and y *)
  Alcotest.(check (list string)) "input names" [ "p_in0"; "p_in1" ]
    (Array.to_list (Array.map (fun (o : Linalg.operand) -> o.Linalg.name) fused.Linalg.inputs))

let test_bias_relu_fusion () =
  let producer = Linalg.bias_add [| 8; 16 |] in
  let consumer = Linalg.relu [| 8; 16 |] in
  let r = rng () in
  let bindings = buffers r [ ("p_x", 128); ("p_bias", 16) ] in
  ignore (check_fusion ~producer ~consumer ~consumer_input:0 bindings)

let test_scale_into_matmul_fusion () =
  (* C = (x .* y) @ B : fusing an elementwise producer into a reduction
     consumer (the consumer's accumulator is untouched). *)
  let producer = Linalg.binary Linalg.Mul_k [| 8; 12 |] in
  let consumer = Linalg.matmul ~m:8 ~n:6 ~k:12 () in
  let r = rng () in
  let bindings = buffers r [ ("p_in0", 96); ("p_in1", 96); ("B", 72) ] in
  let fused = check_fusion ~producer ~consumer ~consumer_input:0 bindings in
  (* producer operands are now indexed by the matmul's (m, k) dims *)
  Alcotest.(check int) "three inputs" 3 (Array.length fused.Linalg.inputs)

let test_fused_op_schedulable () =
  let producer = Linalg.add [| 8; 16 |] in
  let consumer = Linalg.relu [| 8; 16 |] in
  let fused =
    Result.get_ok (Fusion.fuse ~producer ~consumer ~consumer_input:0)
  in
  Test_helpers.check_schedule_preserves fused
    [ Schedule.Parallelize [| 4; 0 |]; Schedule.Tile [| 2; 4 |]; Schedule.Vectorize ]

let test_fusion_saves_time () =
  (* The model must price the fused op below producer + consumer. *)
  let shape = [| 2048; 2048 |] in
  let producer = Linalg.bias_add shape in
  let consumer = Linalg.relu shape in
  let fused = Result.get_ok (Fusion.fuse ~producer ~consumer ~consumer_input:0) in
  let ev = Evaluator.create () in
  let t op = Evaluator.base_seconds ev op in
  Alcotest.(check bool)
    (Printf.sprintf "fused %.4g < %.4g + %.4g" (t fused) (t producer) (t consumer))
    true
    (t fused < t producer +. t consumer)

let test_fusion_rejects_reduction_producer () =
  let producer = Linalg.matmul ~m:8 ~n:16 ~k:4 () in
  let consumer = Linalg.relu [| 8; 16 |] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Fusion.fuse ~producer ~consumer ~consumer_input:0))

let test_fusion_rejects_shape_mismatch () =
  let producer = Linalg.add [| 4; 4 |] in
  let consumer = Linalg.relu [| 8; 16 |] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Fusion.fuse ~producer ~consumer ~consumer_input:0))

let test_fusion_rejects_bad_index () =
  let producer = Linalg.add [| 8; 16 |] in
  let consumer = Linalg.relu [| 8; 16 |] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Fusion.fuse ~producer ~consumer ~consumer_input:3))

let qcheck_chain_fusion =
  (* Random elementwise chains fuse correctly, also when the fused op is
     fused once more as the producer of a third stage. *)
  QCheck.Test.make ~name:"random elementwise chains fuse correctly" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Util.Rng.create seed in
      let shape = [| 1 + Util.Rng.int r 6; 1 + Util.Rng.int r 10 |] in
      let pick_binary () =
        Linalg.binary
          (Util.Rng.choice r [| Linalg.Add_k; Linalg.Sub_k; Linalg.Mul_k |])
          shape
      in
      let pick_unary () =
        Linalg.unary (Util.Rng.choice r [| Linalg.Exp_k; Linalg.Relu_k |]) shape
      in
      let pick_consumer () =
        let c = if Util.Rng.bool r then pick_unary () else pick_binary () in
        (c, Util.Rng.int r (Array.length c.Linalg.inputs))
      in
      let own_inputs c =
        List.init (Array.length c.Linalg.inputs) (fun i ->
            (Printf.sprintf "in%d" i, shape.(0) * shape.(1)))
      in
      let producer = pick_binary () in
      let consumer, ci = pick_consumer () in
      let bindings =
        buffers r
          (List.map (fun (n, s) -> ("p_" ^ n, s)) (own_inputs producer)
          @ own_inputs consumer)
      in
      let fused = check_fusion ~producer ~consumer ~consumer_input:ci bindings in
      (* Third stage: the fused op's inputs gain one more "p_" prefix;
         the new consumer's own inputs get fresh buffers. *)
      let consumer2, ci2 = pick_consumer () in
      let bindings2 = buffers r (own_inputs consumer2) in
      (match Fusion.fuse ~producer:fused ~consumer:consumer2 ~consumer_input:ci2 with
       | Error e -> Alcotest.fail e
       | Ok fused2 ->
           check_fused fused2
             (consume consumer2 ~consumer_input:ci2
                (sequential_reference producer consumer ~consumer_input:ci bindings)
                bindings2)
             (List.map (fun (n, b) -> ("p_" ^ n, b)) bindings @ bindings2));
      true)

let suite =
  [
    Alcotest.test_case "add+relu" `Quick test_add_relu_fusion;
    Alcotest.test_case "bias_add+relu" `Quick test_bias_relu_fusion;
    Alcotest.test_case "elementwise into matmul" `Quick test_scale_into_matmul_fusion;
    Alcotest.test_case "fused op schedulable" `Quick test_fused_op_schedulable;
    Alcotest.test_case "fusion saves time" `Quick test_fusion_saves_time;
    Alcotest.test_case "rejects reduction producer" `Quick
      test_fusion_rejects_reduction_producer;
    Alcotest.test_case "rejects shape mismatch" `Quick test_fusion_rejects_shape_mismatch;
    Alcotest.test_case "rejects bad index" `Quick test_fusion_rejects_bad_index;
    QCheck_alcotest.to_alcotest qcheck_chain_fusion;
  ]

(* Machine descriptions and cross-machine behaviour of the cost model. *)

let matmul () = Linalg.matmul ~m:512 ~n:512 ~k:512 ()

let best_time machine op =
  let ev = Evaluator.create ~machine () in
  let r = Beam_search.search ev op in
  Evaluator.base_seconds ev op /. r.Beam_search.best_speedup

let test_machine_sanity () =
  List.iter
    (fun (m : Machine.t) ->
      Alcotest.(check bool) (m.Machine.name ^ " cores") true (m.Machine.cores >= 1);
      Alcotest.(check bool) "lanes" true (m.Machine.vector_lanes >= 1);
      Alcotest.(check bool) "cache sizes ascend" true
        (m.Machine.l1.Machine.size_bytes < m.Machine.l2.Machine.size_bytes
        && m.Machine.l2.Machine.size_bytes < m.Machine.l3.Machine.size_bytes);
      Alcotest.(check bool) "latencies ascend" true
        (m.Machine.l1.Machine.latency_cycles < m.Machine.l2.Machine.latency_cycles
        && m.Machine.l2.Machine.latency_cycles < m.Machine.l3.Machine.latency_cycles
        && m.Machine.l3.Machine.latency_cycles < m.Machine.mem_latency_cycles);
      Alcotest.(check bool) "bandwidths" true
        (m.Machine.single_core_bw_gbs <= m.Machine.total_bw_gbs))
    [ Machine.e5_2680_v4; Machine.avx512_server; Machine.mobile_quad;
      Test_helpers.tiny_test_machine ]

let test_bigger_machine_is_faster () =
  (* Best achievable matmul time orders with machine capability. *)
  let op = matmul () in
  let xeon = best_time Machine.e5_2680_v4 op in
  let server = best_time Machine.avx512_server op in
  let mobile = best_time Machine.mobile_quad op in
  Alcotest.(check bool)
    (Printf.sprintf "server %.2g < xeon %.2g < mobile %.2g" server xeon mobile)
    true
    (server < xeon && xeon < mobile)

let test_single_core_restriction () =
  let xeon = Machine.e5_2680_v4 in
  let m = { xeon with Machine.cores = 1; total_bw_gbs = xeon.Machine.single_core_bw_gbs } in
  Alcotest.(check int) "one core" 1 m.Machine.cores;
  (* parallelization then buys nothing beyond launch overhead *)
  let op = matmul () in
  let ev = Evaluator.create ~machine:m () in
  let seq = Result.get_ok (Evaluator.schedule_speedup ev op [ Schedule.Vectorize ]) in
  let par =
    Result.get_ok
      (Evaluator.schedule_speedup ev op
         [ Schedule.Parallelize [| 64; 64; 0 |]; Schedule.Vectorize ])
  in
  Alcotest.(check bool) "no parallel win on 1 core" true (par <= seq *. 1.05)

let test_schedule_transfer_penalty () =
  (* A schedule tuned for machine A, run on machine B, is no better than
     B's natively tuned schedule. *)
  let op = matmul () in
  let tuned_for machine =
    let ev = Evaluator.create ~machine () in
    (Beam_search.search ev op).Beam_search.best_schedule
  in
  let speed_on machine sched =
    let ev = Evaluator.create ~machine () in
    Result.get_ok (Evaluator.schedule_speedup ev op sched)
  in
  let mobile_native = speed_on Machine.mobile_quad (tuned_for Machine.mobile_quad) in
  let mobile_with_server_sched =
    speed_on Machine.mobile_quad (tuned_for Machine.avx512_server)
  in
  Alcotest.(check bool)
    (Printf.sprintf "native %.1f >= transferred %.1f" mobile_native
       mobile_with_server_sched)
    true
    (mobile_native >= mobile_with_server_sched *. 0.999)

let test_vector_width_matters () =
  (* The same fully-vectorized compute-bound schedule gains more on the
     16-lane machine than on the 4-lane one. *)
  let op = matmul () in
  let gain machine =
    let ev = Evaluator.create ~machine () in
    let sched = [ Schedule.Swap 1; Schedule.Vectorize ] in
    Result.get_ok (Evaluator.schedule_speedup ev op sched)
  in
  Alcotest.(check bool) "wider SIMD gains more" true
    (gain Machine.avx512_server > gain Machine.mobile_quad)

let suite =
  [
    Alcotest.test_case "machine sanity" `Quick test_machine_sanity;
    Alcotest.test_case "capability ordering" `Quick test_bigger_machine_is_faster;
    Alcotest.test_case "single-core restriction" `Quick test_single_core_restriction;
    Alcotest.test_case "schedule transfer penalty" `Quick test_schedule_transfer_penalty;
    Alcotest.test_case "vector width matters" `Quick test_vector_width_matters;
  ]

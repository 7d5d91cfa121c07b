(* Shared helpers for the suites: random buffers, reference execution,
   semantic-equivalence checks for transformed nests. *)

(* Small caches and few cores, for tests that need cache effects to
   appear at toy problem sizes. *)
let tiny_test_machine =
  {
    Machine.name = "tiny-test";
    cores = 4;
    freq_ghz = 1.0;
    vector_lanes = 4;
    scalar_flops_per_cycle = 1.0;
    vector_flops_per_cycle = 8.0;
    fma_latency_cycles = 4.0;
    load_ports = 2;
    l1 = { Machine.size_bytes = 1024; line_bytes = 64; assoc = 2; latency_cycles = 2.0 };
    l2 = { Machine.size_bytes = 8 * 1024; line_bytes = 64; assoc = 4; latency_cycles = 8.0 };
    l3 = { Machine.size_bytes = 64 * 1024; line_bytes = 64; assoc = 8; latency_cycles = 24.0 };
    mem_latency_cycles = 100.0;
    single_core_bw_gbs = 2.0;
    total_bw_gbs = 6.0;
    parallel_launch_cycles = 1000.0;
    parallel_efficiency = 0.9;
    elem_bytes = 4;
  }

(* A fresh tensor with [t]'s shape and elements. *)
let copy_tensor (t : Tensor.t) =
  let out = Tensor.zeros (Tensor.dims t) in
  Bigarray.Array1.blit t.Tensor.data out.Tensor.data;
  out

(* Flat copy of the payload, row-major. *)
let tensor_to_array (t : Tensor.t) = Array.init (Tensor.numel t) (Tensor.get t)

(* Same shape and the same elements bit for bit: NaN equals NaN and 0.0
   differs from -0.0, unlike polymorphic [=] on floats, which would
   mis-answer "is this the same checkpoint" whenever a weight is NaN. *)
let tensor_equal (a : Tensor.t) (b : Tensor.t) =
  Tensor.dims a = Tensor.dims b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       (tensor_to_array a) (tensor_to_array b)

(* Same names, shapes and values, bit for bit. *)
let params_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Autodiff.Param.t) (y : Autodiff.Param.t) ->
         x.Autodiff.Param.name = y.Autodiff.Param.name
         && tensor_equal x.Autodiff.Param.data y.Autodiff.Param.data)
       a b

(* The bytes [write] puts on a channel, e.g. one checkpoint section. *)
let written write =
  let path = Filename.temp_file "mlir_rl_written" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path write;
      In_channel.with_open_bin path In_channel.input_all)

(* A line reader over [text], the way a sealed file's payload is
   handed to its parser: one line per call, [None] at the end. *)
let lines_of text =
  let rest = ref (String.split_on_char '\n' text) in
  fun () ->
    match !rest with
    | [] | [ "" ] -> None
    | line :: tl ->
        rest := tl;
        Some line

(* A nest from its printed form; malformed text fails the test. *)
let parse text =
  match Ir_parser.parse_result text with
  | Ok nest -> nest
  | Error msg -> Alcotest.failf "parse: %s" msg

let buffer_of rng size = Array.init size (fun _ -> Util.Rng.gaussian rng)

let input_buffers rng (op : Linalg.t) =
  Array.to_list
    (Array.map
       (fun (o : Linalg.operand) ->
         (o.Linalg.name, buffer_of rng (Array.fold_left ( * ) 1 o.Linalg.shape)))
       op.Linalg.inputs)

let arrays_close ?(tol = 1e-6) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol *. (1.0 +. Float.abs x)) a b

let check_close name a b =
  if not (arrays_close a b) then
    Alcotest.failf "%s: outputs differ (lengths %d vs %d)" name (Array.length a)
      (Array.length b)

(* Apply a schedule and check the transformed nest computes the same
   function as the original op. *)
let check_schedule_preserves ?(seed = 2024) op sched =
  let rng = Util.Rng.create seed in
  let inputs = input_buffers rng op in
  let expected = Linalg.execute_reference op inputs in
  match Sched_state.apply_all op sched with
  | Error msg -> Alcotest.failf "schedule %s failed: %s" (Schedule.to_string sched) msg
  | Ok st ->
      let has_im2col = List.mem Schedule.Im2col sched in
      if has_im2col then begin
        (* Im2col replaces the op; feed the packed input instead. *)
        match op.Linalg.kind with
        | Linalg.Conv2d p ->
            let image = List.assoc "input" inputs in
            let filter = List.assoc "filter" inputs in
            let packed = Im2col.pack_input p image in
            let bufs =
              Interp.run st.Sched_state.nest
                ~inputs:[ ("A", packed); ("B", filter) ]
            in
            check_close (Schedule.to_string sched)
              (Interp.output_of st.Sched_state.nest bufs)
              expected
        | _ -> Alcotest.fail "im2col schedule on a non-conv op"
      end
      else begin
        let bufs = Interp.run st.Sched_state.nest ~inputs in
        check_close (Schedule.to_string sched)
          (Interp.output_of st.Sched_state.nest bufs)
          expected
      end

let small_matmul () = Linalg.matmul ~m:8 ~n:12 ~k:16 ()

let small_conv () =
  Linalg.conv2d
    {
      Linalg.batch = 2;
      in_h = 8;
      in_w = 8;
      channels = 3;
      kernel_h = 3;
      kernel_w = 3;
      filters = 4;
      stride = 1;
    }

let small_maxpool () =
  Linalg.maxpool
    {
      Linalg.p_batch = 1;
      p_in_h = 8;
      p_in_w = 8;
      p_channels = 4;
      p_kernel = 2;
      p_stride = 2;
    }

(* Distinct real environment states — the (observation, masks) pairs
   [policy] visits while sampling episodes on a few small ops — for
   mixed batches in which rows take different branches. *)
let policy_states cfg policy =
  let rng = Util.Rng.create 77 in
  let seen = Hashtbl.create 64 in
  let states = ref [] in
  List.iter
    (fun op ->
      let env = Env.create cfg in
      let obs = ref (Env.reset env op) and live = ref true and steps = ref 0 in
      while !live && !steps < 6 do
        let masks = Env.masks env in
        if not (Hashtbl.mem seen !obs) then begin
          Hashtbl.add seen !obs ();
          states := (!obs, masks) :: !states
        end;
        let action, _, _ = Policy.act rng policy ~obs:!obs ~masks in
        let r = Env.step_hierarchical env action in
        obs := r.Env.obs;
        live := not r.Env.terminal;
        incr steps
      done)
    [
      Linalg.matmul ~m:64 ~n:64 ~k:64 ();
      Linalg.matmul ~m:128 ~n:32 ~k:16 ();
      small_matmul ();
      small_conv ();
      Linalg.add [| 64; 64 |];
      Linalg.relu [| 32; 16 |];
      small_maxpool ();
      Linalg.matmul ~m:32 ~n:8 ~k:8 ();
    ];
  Array.of_list (List.rev !states)

(* Shared helpers for the suites: random buffers, reference execution,
   semantic-equivalence checks for transformed nests. *)

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

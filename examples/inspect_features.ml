(* Feature-extraction walkthrough: the paper's Figure 1 pipeline and
   Figure 2 access matrices, shown live on a convolution as a schedule
   is applied step by step.

   Run with: dune exec examples/inspect_features.exe *)

let cfg = Env_config.default

let print_matrix title (op : Linalg.operand) state =
  let n = cfg.Env_config.n_max in
  let flat = Observation.access_matrix cfg state op in
  Format.printf "  %s (%s, rows = array dims, cols = loops + const):@." title
    op.Linalg.name;
  for row = 0 to cfg.Env_config.d_max - 1 do
    Format.printf "    [";
    for col = 0 to n do
      (* undo the 1/4 feature scaling for display *)
      Format.printf " %3.0f" (flat.((row * (n + 1)) + col) *. 4.0)
    done;
    Format.printf " ]@."
  done

let describe step state =
  Format.printf "--- after %s ---@."
    (match step with
    | None -> "reset (no transformation)"
    | Some tr -> Schedule.transformation_name tr ^ " (" ^ Schedule.to_string [ tr ] ^ ")");
  let info = Observation.loop_info cfg state in
  Format.printf "  loop info (log2 trip / 16): [%s]@."
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.3f") info)));
  let op = state.Sched_state.op in
  Array.iter (fun o -> print_matrix "load access matrix" o state) op.Linalg.inputs;
  print_matrix "store access matrix" op.Linalg.output state;
  let counts = Linalg.math_op_counts op in
  Format.printf "  math ops (add sub mul div exp log): [%s]@."
    (String.concat "; " (Array.to_list (Array.map string_of_int counts)));
  let obs = Observation.extract cfg state in
  Format.printf "  full observation vector: %d floats (Table 1)@.@."
    (Array.length obs)

let () =
  let conv =
    Linalg.conv2d
      {
        Linalg.batch = 1;
        in_h = 58;
        in_w = 58;
        channels = 64;
        kernel_h = 3;
        kernel_w = 3;
        filters = 128;
        stride = 2;
      }
  in
  Format.printf "Feature extraction for %s@.@." conv.Linalg.op_name;
  let state = ref (Sched_state.init conv) in
  describe None !state;
  let steps =
    [
      Schedule.Swap 2;
      (* point order is now (n, oh, f, ow, kh, kw, c) *)
      Schedule.Tile [| 0; 7; 16; 7; 0; 0; 16 |];
      Schedule.Vectorize;
    ]
  in
  List.iter
    (fun tr ->
      match Sched_state.apply !state tr with
      | Ok st ->
          state := st;
          describe (Some tr) st
      | Error e -> Format.printf "  step rejected: %s@." e)
    steps;
  Format.printf "History tensor (N x 3 x tau) now encodes the schedule %s@."
    (Schedule.to_string (Sched_state.applied !state))

let log2 x = log x /. log 2.0

let check_bounds (cfg : Env_config.t) (state : Sched_state.t) =
  let op = state.Sched_state.op in
  let n = Linalg.n_loops op in
  if n > cfg.Env_config.n_max then
    invalid_arg
      (Printf.sprintf "Observation: op has %d loops, config allows %d" n
         cfg.Env_config.n_max);
  if Array.length op.Linalg.inputs > cfg.Env_config.l_max then
    invalid_arg "Observation: too many input operands";
  Array.iter
    (fun (o : Linalg.operand) ->
      if Array.length o.Linalg.shape > cfg.Env_config.d_max then
        invalid_arg "Observation: operand rank exceeds d_max")
    op.Linalg.inputs;
  if Array.length op.Linalg.output.Linalg.shape > cfg.Env_config.d_max then
    invalid_arg "Observation: output rank exceeds d_max"

(* The op's iteration dims in the current loop order. *)
let point_origins (state : Sched_state.t) =
  Array.map
    (fun (l : Loop_nest.loop) -> l.Loop_nest.origin)
    (Loop_transforms.point_band state.Sched_state.nest)

(* Per-loop stats come from the shared helpers in Nest_stats — the
   surrogate feature extractor reads the same ones, so the two stay
   bit-identical. *)
let loop_info (cfg : Env_config.t) (state : Sched_state.t) =
  Nest_stats.trip_features ~n_max:cfg.Env_config.n_max state

let access_matrix (cfg : Env_config.t) (state : Sched_state.t)
    (operand : Linalg.operand) =
  let n = cfg.Env_config.n_max in
  let d = cfg.Env_config.d_max in
  let origins = point_origins state in
  let out = Array.make (d * (n + 1)) 0.0 in
  Array.iteri
    (fun row (e : Affine.expr) ->
      if row < d then begin
        Array.iteri
          (fun col origin ->
            if col < n then
              out.((row * (n + 1)) + col) <-
                float_of_int e.Affine.coeffs.(origin) /. 4.0)
          origins;
        out.((row * (n + 1)) + n) <- float_of_int e.Affine.const /. 4.0
      end)
    operand.Linalg.map.Affine.exprs;
  out

let history (cfg : Env_config.t) (state : Sched_state.t) =
  let n = cfg.Env_config.n_max in
  let tau = cfg.Env_config.tau in
  (* out.(l).(k).(s) flattened as ((l * 3) + k) * tau + s *)
  let out = Array.make (n * 3 * tau) 0.0 in
  let set l k s v =
    if l < n && s < tau then out.((((l * 3) + k) * tau) + s) <- v
  in
  let norm_size size = if size <= 0 then 0.0 else log2 (float_of_int size) /. 8.0 in
  List.iteri
    (fun s (tr : Schedule.transformation) ->
      match tr with
      | Schedule.Tile sizes ->
          Array.iteri (fun l size -> set l 0 s (norm_size size)) sizes
      | Schedule.Parallelize sizes ->
          Array.iteri (fun l size -> set l 1 s (norm_size size)) sizes
      | Schedule.Swap i -> set i 2 s (float_of_int (i + 1) /. float_of_int n)
      | Schedule.Interchange perm ->
          Array.iteri
            (fun l p -> set l 2 s (float_of_int (p + 1) /. float_of_int n))
            perm
      | Schedule.Im2col | Schedule.Vectorize | Schedule.Unroll _ -> ())
    (Sched_state.applied state);
  out

let math_counts (state : Sched_state.t) =
  Array.map
    (fun c -> float_of_int c /. 4.0)
    (Linalg.math_op_counts state.Sched_state.op)

let extract (cfg : Env_config.t) (state : Sched_state.t) =
  check_bounds cfg state;
  let op = state.Sched_state.op in
  let f = cfg.Env_config.features in
  let zeros n = Array.make n 0.0 in
  let gate enabled block size =
    if enabled then block () else zeros size
  in
  let matrix_size = cfg.Env_config.d_max * (cfg.Env_config.n_max + 1) in
  let loads =
    List.init cfg.Env_config.l_max (fun i ->
        if i < Array.length op.Linalg.inputs then
          gate f.Env_config.use_access_matrices
            (fun () -> access_matrix cfg state op.Linalg.inputs.(i))
            matrix_size
        else zeros matrix_size)
  in
  Array.concat
    ([ gate f.Env_config.use_loop_info (fun () -> loop_info cfg state)
         cfg.Env_config.n_max ]
    @ loads
    @ [
        gate f.Env_config.use_access_matrices
          (fun () -> access_matrix cfg state op.Linalg.output)
          matrix_size;
        gate f.Env_config.use_math_counts (fun () -> math_counts state) 6;
        gate f.Env_config.use_history (fun () -> history cfg state)
          (cfg.Env_config.n_max * 3 * cfg.Env_config.tau);
      ])

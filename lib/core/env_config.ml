type reward_mode = Immediate | Final

type features = {
  use_loop_info : bool;
  use_access_matrices : bool;
  use_math_counts : bool;
  use_history : bool;
}

type t = {
  n_max : int;
  n_tile_slots : int;
  max_tile_size : int;
  d_max : int;
  l_max : int;
  tau : int;
  reward_mode : reward_mode;
  timeout_penalty : float;
  compile_seconds : float;
  machine : Machine.t;
  features : features;
  static_legality : bool;
      (* intersect the paper's syntactic masks with the static
         dependence-analysis verdicts (lib/analysis) *)
}

let all_features =
  {
    use_loop_info = true;
    use_access_matrices = true;
    use_math_counts = true;
    use_history = true;
  }

let default =
  {
    n_max = 7;
    n_tile_slots = 5;
    max_tile_size = 128;
    d_max = 4;
    l_max = 3;
    tau = 7;
    reward_mode = Final;
    timeout_penalty = -5.0;
    compile_seconds = 2.0;
    machine = Machine.e5_2680_v4;
    features = all_features;
    static_legality = true;
  }

let with_reward_mode reward_mode t = { t with reward_mode }
let with_static_legality static_legality t = { t with static_legality }

let n_tile_choices t = t.n_tile_slots

let obs_dim t =
  let n = t.n_max in
  n
  + (t.l_max * t.d_max * (n + 1))
  + (t.d_max * (n + 1))
  + 6
  + (n * 3 * t.tau)

let n_transformations = 5

let validate t =
  if t.n_max <= 0 then Error "n_max must be positive"
  else if t.n_tile_slots < 2 then Error "need at least 2 tile slots"
  else if t.max_tile_size < 2 then Error "max_tile_size must be at least 2"
  else if t.d_max <= 0 then Error "d_max must be positive"
  else if t.l_max <= 0 then Error "l_max must be positive"
  else if t.tau <= 0 then Error "tau must be positive"
  else Ok ()

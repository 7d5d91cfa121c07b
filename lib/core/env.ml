type t = {
  cfg : Env_config.t;
  ev : Evaluator.t;
  robust : Robust_evaluator.t option;
  mutable sched : Sched_state.t option;
  mutable steps : int;
  mutable finished : bool;  (* a terminal step_result has been returned *)
  mutable prev_seconds : float;  (* last measured time (Immediate mode) *)
  mutable last_obs : float array;
  mutable measurement_seconds : float;
  mutable episode_measurement_seconds : float;
  mutable degraded_total : int;
  mutable episode_degraded : int;
}

type step_result = {
  obs : float array;
  reward : float;
  terminal : bool;
  timed_out : bool;
  noop : bool;
  invalid : bool;
  degraded : bool;
  error : Env_error.t option;
}

let create ?evaluator ?robust cfg =
  (match Env_config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Env.create: " ^ msg));
  let ev =
    match (robust, evaluator) with
    | Some r, _ -> Robust_evaluator.evaluator r
    | None, Some e -> e
    | None, None -> Evaluator.create ~machine:cfg.Env_config.machine ()
  in
  {
    cfg;
    ev;
    robust;
    sched = None;
    steps = 0;
    finished = false;
    prev_seconds = 0.0;
    last_obs = [||];
    measurement_seconds = 0.0;
    episode_measurement_seconds = 0.0;
    degraded_total = 0;
    episode_degraded = 0;
  }

let fork t =
  (* Worker-local environment for parallel episode collection: forked
     measurement stack (shared base cache, per-fork noise/fault streams
     and counters), fresh episode state and zeroed accounting. The
     trainer merges the per-episode accounting of consumed episodes back
     into the primary environment. *)
  let robust = Option.map Robust_evaluator.fork t.robust in
  let ev =
    match robust with
    | Some r -> Robust_evaluator.evaluator r
    | None -> Evaluator.fork t.ev
  in
  {
    cfg = t.cfg;
    ev;
    robust;
    sched = None;
    steps = 0;
    finished = false;
    prev_seconds = 0.0;
    last_obs = [||];
    measurement_seconds = 0.0;
    episode_measurement_seconds = 0.0;
    degraded_total = 0;
    episode_degraded = 0;
  }

let config t = t.cfg
let evaluator t = t.ev
let robust t = t.robust

let state t =
  match t.sched with
  | Some s -> s
  | None -> raise (Env_error.Error Env_error.No_episode)

let reset t op =
  let s = Sched_state.init op in
  t.sched <- Some s;
  t.steps <- 0;
  t.finished <- false;
  t.prev_seconds <- Evaluator.base_seconds t.ev op;
  t.episode_measurement_seconds <- 0.0;
  t.episode_degraded <- 0;
  let obs = Observation.extract t.cfg s in
  t.last_obs <- obs;
  obs

let masks t = Action_space.masks t.cfg (state t)

let charge_measurement t seconds =
  let total = t.cfg.Env_config.compile_seconds +. seconds in
  t.measurement_seconds <- t.measurement_seconds +. total;
  t.episode_measurement_seconds <- t.episode_measurement_seconds +. total

(* Price a state. Returns the (possibly capped) measurement plus the
   typed error when the backend had to degrade to the cost model. *)
let measure t s =
  match t.robust with
  | None ->
      let r = Evaluator.measure t.ev s in
      (match r with
      | `Seconds sec -> charge_measurement t sec
      | `Timeout capped -> charge_measurement t capped);
      (r, None)
  | Some rob ->
      let m = Robust_evaluator.measure rob s in
      charge_measurement t m.Robust_evaluator.charged;
      let error =
        match m.Robust_evaluator.quality with
        | Robust_evaluator.Exact -> None
        | Robust_evaluator.Degraded detail ->
            t.degraded_total <- t.degraded_total + 1;
            t.episode_degraded <- t.episode_degraded + 1;
            Some
              (Env_error.Backend_failure
                 {
                   Env_error.op_name = s.Sched_state.original.Linalg.op_name;
                   detail;
                   retries = m.Robust_evaluator.retries;
                 })
      in
      let r =
        if m.Robust_evaluator.timed_out then `Timeout m.Robust_evaluator.seconds
        else `Seconds m.Robust_evaluator.seconds
      in
      (r, error)

let current_speedup t =
  match t.sched with
  | None -> 1.0
  | Some s ->
      let base = Evaluator.base_seconds t.ev s.Sched_state.original in
      let now = Evaluator.state_seconds t.ev s in
      base /. now

let schedule t = Sched_state.applied (state t)

let measurement_seconds t = t.measurement_seconds
let episode_measurement_seconds t = t.episode_measurement_seconds
let degraded_measurements t = t.degraded_total
let episode_degraded t = t.episode_degraded

let restore_accounting t ~measurement_seconds ~degraded =
  t.measurement_seconds <- measurement_seconds;
  t.degraded_total <- degraded

let render t =
  match t.sched with
  | None -> "<no episode: call reset>"
  | Some s ->
      let base = Evaluator.base_seconds t.ev s.Sched_state.original in
      let now = Evaluator.state_seconds t.ev s in
      Format.asprintf
        "@[<v>op       : %s (%s)@,step     : %d/%d@,schedule : %s@,time     : %.6f s (base %.6f s)@,speedup  : %.2fx@,flags    : parallelized=%b vectorized=%b@]"
        s.Sched_state.original.Linalg.op_name
        (Linalg.kind_name s.Sched_state.original)
        t.steps t.cfg.Env_config.tau
        (match Sched_state.applied s with
        | [] -> "<empty>"
        | applied -> Schedule.to_string applied)
        now base (base /. now) s.Sched_state.parallelized
        s.Sched_state.vectorized

let finish_result ?(degraded = false) ?error t s ~reward ~terminal ~timed_out
    ~noop ~invalid =
  let obs = Observation.extract t.cfg s in
  t.last_obs <- obs;
  if terminal then t.finished <- true;
  { obs; reward; terminal; timed_out; noop; invalid; degraded; error }

(* Stepping a finished episode is a typed error, not a panic: the result
   echoes the last observation and stays terminal so a driver that
   ignores [error] still cannot loop forever. *)
let episode_over_result t =
  {
    obs = t.last_obs;
    reward = 0.0;
    terminal = true;
    timed_out = false;
    noop = false;
    invalid = false;
    degraded = false;
    error = Some Env_error.Episode_over;
  }

let step t (tr : Schedule.transformation option) =
  match t.sched with
  | None -> raise (Env_error.Error Env_error.No_episode)
  | Some s when t.finished || t.steps >= t.cfg.Env_config.tau ->
      ignore s;
      episode_over_result t
  | Some s -> (
      t.steps <- t.steps + 1;
      let out_of_steps = t.steps >= t.cfg.Env_config.tau in
      let immediate = t.cfg.Env_config.reward_mode = Env_config.Immediate in
      let base = Evaluator.base_seconds t.ev s.Sched_state.original in
      let conclude s' ~ended =
        (* Measure when the reward mode demands it. *)
        t.sched <- Some s';
        if immediate then begin
          match measure t s' with
          | `Timeout _, error ->
              finish_result t s' ~reward:t.cfg.Env_config.timeout_penalty
                ~terminal:true ~timed_out:true ~noop:false ~invalid:false
                ~degraded:(error <> None) ?error
          | `Seconds sec, error ->
              let reward = log (t.prev_seconds /. sec) in
              t.prev_seconds <- sec;
              finish_result t s' ~reward ~terminal:ended ~timed_out:false
                ~noop:false ~invalid:false ~degraded:(error <> None) ?error
        end
        else if ended then begin
          match measure t s' with
          | `Timeout _, error ->
              finish_result t s' ~reward:t.cfg.Env_config.timeout_penalty
                ~terminal:true ~timed_out:true ~noop:false ~invalid:false
                ~degraded:(error <> None) ?error
          | `Seconds sec, error ->
              finish_result t s' ~reward:(log (base /. sec)) ~terminal:true
                ~timed_out:false ~noop:false ~invalid:false
                ~degraded:(error <> None) ?error
        end
        else
          finish_result t s' ~reward:0.0 ~terminal:false ~timed_out:false
            ~noop:false ~invalid:false
      in
      match tr with
      | None ->
          (* Explicit no-op: consumes a step; at the last step the schedule
             so far is still measured under Final reward. *)
          if out_of_steps then conclude s ~ended:true
          else
            finish_result t s ~reward:0.0 ~terminal:false ~timed_out:false
              ~noop:true ~invalid:false
      | Some tr -> (
          match Sched_state.apply s tr with
          | Error msg ->
              (* Mirrors a failing compilation in the paper's pipeline;
                 the transform layer's reason is preserved. *)
              finish_result t s ~reward:t.cfg.Env_config.timeout_penalty
                ~terminal:true ~timed_out:false ~noop:false ~invalid:true
                ~error:(Env_error.Invalid_action msg)
          | Ok s' ->
              let ended = Sched_state.is_done s' || out_of_steps in
              conclude s' ~ended))

let step_hierarchical t action =
  let s = state t in
  step t (Action_space.to_transformation t.cfg s action)

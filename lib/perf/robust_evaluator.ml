type config = {
  min_repeats : int;
  max_repeats : int;
  stability_rsd : float;
  max_retries : int;
  backoff_base : float;
  backoff_factor : float;
  hang_cap : float;
}

let default_config =
  {
    min_repeats = 3;
    max_repeats = 9;
    stability_rsd = 0.05;
    max_retries = 4;
    backoff_base = 1.0;
    backoff_factor = 2.0;
    hang_cap = 60.0;
  }

type quality = Exact | Degraded of string

type measurement = {
  seconds : float;
  timed_out : bool;
  quality : quality;
  samples : int;
  retries : int;
  charged : float;
}

type t = {
  ev : Evaluator.t;
  faults : Faults.t option;
  mutable measurements : int;
  mutable degraded : int;
  mutable total_retries : int;
}

let create ?faults ev =
  { ev; faults; measurements = 0; degraded = 0; total_retries = 0 }

let fork t =
  (* Worker-local copy for parallel rollouts: forked evaluator (shared
     base cache, fresh jitter stream), forked fault injector (caller
     seeds both) and zeroed counters. The trainer merges counter deltas
     back with {!absorb} in deterministic episode order. *)
  {
    ev = Evaluator.fork t.ev;
    faults = Option.map Faults.fork t.faults;
    measurements = 0;
    degraded = 0;
    total_retries = 0;
  }

let absorb t ~measurements ~retries ~degraded =
  t.measurements <- t.measurements + measurements;
  t.total_retries <- t.total_retries + retries;
  t.degraded <- t.degraded + degraded

let evaluator t = t.ev
let faults t = t.faults
let measurements t = t.measurements
let degraded_count t = t.degraded
let retry_count t = t.total_retries

(* The degradation fallback: the noiseless analytical estimate, exactly
   what the plain evaluator would report with jitter disabled. *)
let estimate_seconds t (state : Sched_state.t) =
  Cost_model.seconds
    ~machine:(Evaluator.machine t.ev)
    ~iter_kinds:state.Sched_state.op.Linalg.iter_kinds
    ~packing_elements:state.Sched_state.packing_elements
    state.Sched_state.nest

let measure t (state : Sched_state.t) =
  let cfg = default_config in
  t.measurements <- t.measurements + 1;
  let base = Evaluator.base_seconds t.ev state.Sched_state.original in
  let cap = Evaluator.timeout_factor *. base in
  let samples = ref [] in
  let n_samples = ref 0 in
  let retries = ref 0 in
  let charged = ref 0.0 in
  let exhausted = ref false in
  let last_failure = ref "" in
  let stable () =
    !n_samples >= cfg.min_repeats
    &&
    let m = Util.Stats.mean !samples in
    m > 0.0 && Util.Stats.stddev !samples /. m <= cfg.stability_rsd
  in
  let fail f =
    last_failure := Faults.to_string f;
    if !retries >= cfg.max_retries then exhausted := true
    else begin
      incr retries;
      t.total_retries <- t.total_retries + 1;
      (* Exponential backoff, charged to the simulated wall clock. *)
      charged :=
        !charged
        +. (cfg.backoff_base *. (cfg.backoff_factor ** float_of_int (!retries - 1)))
    end
  in
  while (not (stable ())) && !n_samples < cfg.max_repeats && not !exhausted do
    let fault = match t.faults with None -> None | Some f -> Faults.draw f in
    match fault with
    | None | Some (Faults.Latency_outlier _) ->
        let s = Evaluator.state_seconds t.ev state in
        let s =
          match fault with Some (Faults.Latency_outlier k) -> s *. k | _ -> s
        in
        (* A run is killed at the adaptive cap, so never charge above it. *)
        charged := !charged +. Float.min s cap;
        samples := s :: !samples;
        incr n_samples
    | Some (Faults.Transient_timeout as f) ->
        charged := !charged +. cap;
        fail f
    | Some (Faults.Hang h as f) ->
        charged := !charged +. Float.min h cfg.hang_cap;
        fail f
    | Some ((Faults.Compile_failure | Faults.Crash) as f) -> fail f
  done;
  match !samples with
  | [] ->
      (* Retries exhausted with nothing measured: degrade gracefully
         to the pure cost-model estimate rather than aborting. *)
      t.degraded <- t.degraded + 1;
      let est = estimate_seconds t state in
      let timed_out = est > cap in
      {
        seconds = (if timed_out then cap else est);
        timed_out;
        quality = Degraded ("no samples: " ^ !last_failure);
        samples = 0;
        retries = !retries;
        charged = !charged;
      }
  | xs ->
      let agg = Util.Stats.median xs in
      let timed_out = agg > cap in
      let quality =
        if !exhausted && !n_samples < cfg.min_repeats then begin
          t.degraded <- t.degraded + 1;
          Degraded
            (Printf.sprintf "only %d/%d samples: %s" !n_samples
               cfg.min_repeats !last_failure)
        end
        else Exact
      in
      {
        seconds = (if timed_out then cap else agg);
        timed_out;
        quality;
        samples = !n_samples;
        retries = !retries;
        charged = !charged;
      }

type config = {
  failure_threshold : int;
  cooldown_s : float;
  success_threshold : int;
}

let default_config =
  { failure_threshold = 3; cooldown_s = 1.0; success_threshold = 2 }

let validate c =
  if c.failure_threshold < 1 then Error "failure_threshold must be >= 1"
  else if c.cooldown_s < 0.0 then Error "cooldown_s must be >= 0"
  else if c.success_threshold < 1 then Error "success_threshold must be >= 1"
  else Ok ()

type state = Closed | Open | Half_open

(* The stored state never holds Half_open: an Open breaker whose
   cooldown has elapsed *reads* as Half_open ({!state} is a function of
   the clock), which makes the transition impossible to miss — there is
   no tick that could arrive late. Outcome recording then moves the
   stored state. *)
type t = {
  cfg : config;
  mutable stored : state;
  mutable failures : int;  (** consecutive, while Closed *)
  mutable successes : int;  (** consecutive probes, while Half_open *)
  mutable opened_at : float;
}

let create ?(config = default_config) () =
  (match validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Breaker.create: " ^ e));
  {
    cfg = config;
    stored = Closed;
    failures = 0;
    successes = 0;
    opened_at = neg_infinity;
  }

let state t ~now =
  match t.stored with
  | Open when now -. t.opened_at >= t.cfg.cooldown_s -> Half_open
  | s -> s

let allow t ~now = state t ~now <> Open

let trip t ~now =
  t.stored <- Open;
  t.opened_at <- now;
  t.failures <- 0;
  t.successes <- 0

let close t =
  t.stored <- Closed;
  t.failures <- 0;
  t.successes <- 0

let record_success t ~now =
  match state t ~now with
  | Closed -> t.failures <- 0
  | Half_open ->
      (* materialize the clock-driven transition before counting *)
      t.stored <- Half_open;
      t.successes <- t.successes + 1;
      if t.successes >= t.cfg.success_threshold then close t
  | Open -> ()

let record_failure t ~now =
  match state t ~now with
  | Closed ->
      t.failures <- t.failures + 1;
      if t.failures >= t.cfg.failure_threshold then trip t ~now
  | Half_open -> trip t ~now
  | Open -> ()

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

(* Prometheus-friendly encoding, documented in docs/serving.md. *)
let state_to_float = function Closed -> 0.0 | Half_open -> 1.0 | Open -> 2.0

type config = {
  base_s : float;
  multiplier : float;
  cap_s : float;
  jitter : float;
}

let default_config = { base_s = 0.1; multiplier = 2.0; cap_s = 2.0; jitter = 0.1 }

let validate c =
  if c.base_s <= 0.0 then Error "base_s must be > 0"
  else if c.multiplier < 1.0 then Error "multiplier must be >= 1"
  else if c.cap_s < c.base_s then Error "cap_s must be >= base_s"
  else if c.jitter < 0.0 || c.jitter >= 1.0 then Error "jitter must be in [0, 1)"
  else Ok ()

type t = { cfg : config; rng : Util.Rng.t; mutable attempt : int }

let create ?(seed = 0x0b0f) cfg =
  (match validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Backoff.create: " ^ e));
  { cfg; rng = Util.Rng.create seed; attempt = 0 }

(* Deterministic given the seed: delay_n = min(cap, base * mult^n),
   scaled by a symmetric jitter factor in [1-j, 1+j] so a fleet of
   replicas restarting off the same crash does not reconnect in
   lockstep. The cap applies before the jitter, so the worst case is
   cap * (1 + jitter). *)
let next t =
  let raw =
    t.cfg.base_s *. (t.cfg.multiplier ** float_of_int t.attempt)
  in
  t.attempt <- t.attempt + 1;
  let capped = Float.min raw t.cfg.cap_s in
  if t.cfg.jitter = 0.0 then capped
  else
    let u = Util.Rng.uniform t.rng in
    capped *. (1.0 -. t.cfg.jitter +. (2.0 *. t.cfg.jitter *. u))

let reset t = t.attempt <- 0

let max_delay c = c.cap_s *. (1.0 +. c.jitter)

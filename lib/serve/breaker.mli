(** Per-replica circuit breaker.

    Pure state machine over an explicit clock — no threads, no
    [gettimeofday] — so every transition is unit-testable with a
    scripted [now].

    Closed: requests flow; [failure_threshold] {e consecutive} failures
    trip it Open. Open: requests are shed to other replicas; after
    [cooldown_s] the breaker {e reads} as Half_open (the transition is
    a function of the clock, not of a tick that could arrive late).
    Half_open: probe traffic is allowed; [success_threshold]
    consecutive successes close it, any failure re-opens it and
    restarts the cooldown. *)

type config = {
  failure_threshold : int;  (** consecutive failures that trip Open *)
  cooldown_s : float;  (** Open duration before probing resumes *)
  success_threshold : int;  (** consecutive probe successes that close *)
}

val default_config : config
(** 3 failures trip, 1s cooldown, 2 successes close. *)

val validate : config -> (unit, string) result

type state = Closed | Open | Half_open

type t

val create : ?config:config -> unit -> t
(** Starts Closed. Raises [Invalid_argument] on an invalid config. *)

val state : t -> now:float -> state

val allow : t -> now:float -> bool
(** Whether a request (or probe) may be routed here: true in Closed and
    Half_open, false in Open. *)

val record_success : t -> now:float -> unit

val record_failure : t -> now:float -> unit

val state_to_string : state -> string

val state_to_float : state -> float
(** Gauge encoding: closed 0, half-open 1, open 2. *)

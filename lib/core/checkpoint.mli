(** Crash-recoverable training state.

    A checkpoint is three sibling files derived from one path prefix:
    [<path>.meta] (iteration counter, RNG streams, accounting),
    [<path>.params] (policy weights, {!Serialize} format) and
    [<path>.optim] (Adam moments and step counter). Each file is
    written atomically (temp file + rename), so a kill at any moment
    leaves either the previous checkpoint or the new one — never a
    torn one.

    Restoring everything in [meta] makes a resumed run bit-identical
    to an uninterrupted one: the trainer RNG drives op selection,
    action sampling and minibatch shuffling; the noise and fault
    streams drive the measurement backend; the accounting fields
    restore the cumulative statistics. *)

type meta = {
  iteration : int;  (** completed training iterations *)
  rng_state : int64;  (** trainer update rng (PPO minibatch shuffling) *)
  episodes : int;
      (** global episode counter — per-episode rng streams are derived
          from it, so it must survive a resume *)
  best_speedup : float;
  measurement_seconds : float;  (** cumulative simulated measuring time *)
  explored : int;  (** evaluator's schedules-explored counter *)
  degraded : int;  (** cumulative degraded measurements *)
  noise_state : int64;  (** evaluator jitter stream *)
  fault_state : (int64 * int) option;  (** fault injector stream, if any *)
}

val save :
  path:string ->
  meta ->
  params:Autodiff.Param.t list ->
  optimizer:Optim.t ->
  unit
(** Write all three files atomically. Raises [Sys_error] on IO failure. *)

val exists : path:string -> bool
(** Whether [<path>.meta] exists. *)

val restore :
  path:string ->
  params:Autodiff.Param.t list ->
  optimizer:Optim.t ->
  (meta, string) result
(** Load metadata, then restore weights and optimizer state in place
    (names and shapes validated). Nothing is modified on error. *)

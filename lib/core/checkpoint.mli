(** Crash-recoverable training state.

    A checkpoint is one sealed [mlir-rl-checkpoint v3] file
    ({!Util.Atomic_file.write_sealed}): the metadata lines (iteration
    counter, RNG streams, accounting), then the policy weights and the
    Adam section (moments and step counter) as {!Serialize} records. It
    is committed by one rename, so a kill at any moment leaves either
    the previous checkpoint or the new one — never a torn one.

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
(** Write the checkpoint file atomically. Raises [Sys_error] on IO
    failure. *)

val exists : path:string -> bool
(** Whether [path] exists. *)

val restore :
  path:string ->
  params:Autodiff.Param.t list ->
  optimizer:Optim.t ->
  (meta, string) result
(** Load metadata, then restore weights and optimizer state in place
    (names and shapes validated). A missing, truncated or corrupted
    file is rejected before anything is modified. A sound file that
    does not fit (another architecture, a bad Adam step counter) is an
    [Error] too, but may leave [params] and [optimizer] partly
    restored. *)

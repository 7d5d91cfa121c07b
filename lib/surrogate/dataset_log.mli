(** Append-only evaluation log feeding the surrogate trainer.

    Rows are (structural digest, machine name, pure pre-jitter seconds,
    feature vector) tuples collected from the evaluator's measurement
    tap ({!Evaluator.set_measure_hook}). Deduplicated by
    (digest | machine); bounded by a FIFO rotation policy; persisted as
    a sealed [surrogate-log v2 dim=<Features.dim>] file of
    tab-separated rows (hex floats, so rows round-trip bit-exactly)
    through {!Util.Atomic_file}. *)

type entry = {
  digest : string;  (** {!Sched_state.digest} of the measured nest *)
  machine : string;  (** {!Machine.t} name the measurement priced *)
  seconds : float;  (** pure pre-jitter cost-model seconds *)
  features : float array;  (** {!Features.dim}-wide vector *)
}

type t

val create : ?capacity:int -> unit -> t
(** An empty in-memory log. [capacity] (default 200,000) bounds it:
    adding beyond rotates the oldest entries out. Thread-safe — the evaluator tap may fire
    from forked worker domains. *)

val add : t -> entry -> bool
(** [false] when the (digest | machine) key was already present. *)

val length : t -> int

type stats = {
  added : int;  (** distinct entries accepted so far *)
  duplicates : int;  (** adds rejected by dedup *)
  rotated : int;  (** entries dropped by the capacity bound *)
  size : int;  (** live entries *)
}

val stats : t -> stats

val entries : t -> entry array
(** Snapshot in insertion order (oldest first). *)

val attach : t -> Evaluator.t -> unit
(** Install this log as the evaluator's measurement tap: every distinct
    state-seconds computation is featurized (op blocks memoized per op
    digest) and recorded. Bit-invisible to the evaluator's consumers.
    Forked evaluators inherit the tap. *)

val detach : Evaluator.t -> unit
(** Clear the evaluator's measurement tap. *)

val save : t -> path:string -> (int, string) result
(** Atomically write the log to [path], returning the row count
    written. Rows already in the file are kept (file order first,
    deduplicated against memory), making repeated collection runs
    append-only at the file level; the capacity bound applies to the
    merged stream. A missing or zero-byte [path] holds no rows. A
    non-empty file that does not {!load} is an [Error], and its bytes
    stay unchanged. Raises [Sys_error] if the write fails. *)

val load : path:string -> (t, string) result
(** Load a file written by {!save}. Errors on a missing, truncated or
    corrupted file, another version or feature width, or a malformed
    row. *)

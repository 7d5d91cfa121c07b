(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (splitmix64) used everywhere in the
    project instead of [Stdlib.Random] so that dataset generation, agent
    initialization and exploration are reproducible from a single seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Two
    generators created from the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val derive : int -> stream:int -> t
(** [derive seed ~stream] is a pure, stateless split: the generator for
    logical stream [stream] of master seed [seed]. Calling it twice
    with the same arguments yields identical streams, and distinct
    [stream] ids yield decorrelated streams (both ids are run through
    the splitmix64 finalizer before being combined). [stream] may be
    negative — the trainer reserves negative ids for infrastructure
    streams (e.g. minibatch shuffling) and uses the global episode
    index for per-episode streams, which is what makes parallel
    episode collection bit-reproducible for any worker count. *)

val state : t -> int64
(** Raw generator state, for checkpointing. Restoring it with
    {!set_state} (or {!of_state}) resumes the exact stream. *)

val set_state : t -> int64 -> unit
(** Overwrite the generator state with one saved by {!state}. *)

val of_state : int64 -> t
(** A fresh generator positioned at a saved {!state}. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)

val uniform : t -> float
(** Uniform draw in [0, 1). *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : t -> float
(** Standard normal draw (Box-Muller). *)

val choice : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] picks [k] distinct elements.
    Raises [Invalid_argument] if [k > Array.length arr]. *)

(** Sound per-transformation legality verdicts for a loop nest.

    Built on {!Dependence}: [true] means "provably
    semantics-preserving", [false] means "could not prove it" —
    conservative false negatives are possible, false positives are a
    bug (enforced by the differential suite in test/test_dependence.ml).

    Loop indices are absolute positions in the nest; the action layer
    translates point-band-relative indices before asking.

    A [t] answers lazily: {!analyze} only prepares the nest's access
    pairs, and each verdict runs its dependence queries on first ask and
    memoizes the answer, so callers pay only for what they read (the
    action masks ask about the point band). The memo is unsynchronized
    mutable state: a [t] belongs to one domain. Build one per nest where
    it is needed — the environment builds one per masks call. *)

type t

val analyze : Loop_nest.t -> t
(** Prepares the access pairs; runs no query. *)

val n_loops : t -> int

val carries_dependence : t -> int -> bool
(** Loop [k] carries a dependence (textbook notion: some dependence has
    [=] on every outer loop and [<] on [k]). *)

val can_parallelize : t -> int -> bool
(** No dependence is sensitive to loop [k] in any direction context —
    iterations of [k] may run concurrently even after the chunk loop is
    hoisted above the band (the environment's tile-to-forall
    Parallelize). Strictly stronger than [not (carries_dependence t k)]. *)

val can_interchange : t -> int -> bool
(** Swapping adjacent loops [k] and [k+1] preserves every dependence
    (no [(<, >)] direction pair at those positions). Accumulator
    self-dependences ([C\[i\] = C\[i\] + ...]) are exempt: a sequential
    reordering of one cell's reduction updates only reassociates the
    reduction, which this environment treats as legal (parallelization
    does not get this exemption — concurrent updates race). *)

val can_vectorize : t -> bool
(** The innermost loop carries no dependence, except same-statement
    accumulator pairs (identical subscripts), which lower to vector
    reductions. *)

val can_tile : t -> band_start:int -> bool
(** The band [\[band_start, n)] is fully permutable, so rectangular
    tiling (which hoists chunk loops above untiled band members) is
    order-safe. Accumulator self-dependences are exempt, as in
    {!can_interchange}. Memoized per [band_start], like every verdict. *)

type verdicts = {
  parallelize : bool array;
  interchange : bool array;
  vectorize : bool;
  tile : bool;
  unroll : bool;
}

val verdicts : t -> verdicts
(** The whole legality table at once (CLI / docs convenience); [tile]
    is the verdict for the whole nest ([band_start] 0). *)

(** Polyhedral-lite dependence analysis over {!Loop_nest.t}.

    Decides, conservatively, whether two subscripted accesses to the
    same buffer can touch the same element at two (direction-related)
    points of the iteration domain, using the classic ZIV / GCD /
    Banerjee-bound tests over the {!Affine.expr} subscripts.

    All answers over-approximate: a "feasible" verdict may be a false
    positive, but "infeasible" is a proof. {!Legality} builds sound
    action masks on top of this guarantee. *)

type kind = Flow | Anti | Output

type dir = Lt | Eq | Gt
(** Direction of a dependence on one loop: source iteration before (Lt),
    equal to (Eq) or after (Gt) the destination iteration. *)

type constr = Any | Must of dir
(** Per-loop constraint of a feasibility query. *)

type dependence = {
  kind : kind;
  buf : string;
  src_stmt : int;
  dst_stmt : int;
  carrier : int option;
      (** Outermost loop with a [Lt] direction; [None] for a
          loop-independent (same-iteration) dependence. *)
  dirs : dir option array;
      (** One entry per loop; [None] prints as ['*'] — more than one
          direction remains feasible at that position. *)
}

val pp_dependence : Format.formatter -> dependence -> unit

type prepared
(** A nest's ordered same-buffer access pairs (at least one a store),
    each with its accumulator flag, built once per nest. *)

val prepare : Loop_nest.t -> prepared

val exists_dep : ?exclude_accumulator:bool -> prepared -> constr array -> bool
(** [exists_dep (prepare nest) cs] — does any ordered pair of
    same-buffer accesses (at least one a store) admit a dependence under
    the per-loop constraints [cs] (length = loop count)? Pairs are
    enumerated in both orders, so a [Must Lt] constraint also covers the
    symmetric [Gt] case of the reversed pair. With
    [~exclude_accumulator:true], same-statement pairs with identical
    subscripts (the [C += ...] reduction idiom) are skipped. One query
    costs O(pairs x subscript dims x loops). *)

val analyze : Loop_nest.t -> dependence list
(** All dependences of the nest: at most one loop-independent entry plus
    one entry per feasible carrier level, per ordered access pair. *)

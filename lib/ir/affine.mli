(** Affine expressions and maps over loop iterators.

    This mirrors the part of MLIR's affine machinery the paper relies on:
    array subscripts are linear combinations of loop iterators plus a
    constant, and a Linalg operand's indexing map is a list of such
    expressions, one per array dimension. The access-matrix observation of
    the paper (Figure 2) is exactly the coefficient matrix of such a map. *)

type expr = {
  coeffs : int array;  (** one coefficient per loop iterator *)
  const : int;  (** constant term *)
}
(** An affine expression [sum_i coeffs.(i) * iter_i + const] over a fixed
    number of loop iterators. *)

type map = {
  n_dims : int;  (** number of loop iterators the map reads *)
  exprs : expr array;  (** one expression per array dimension *)
}
(** An affine map from loop iterators to array subscripts. *)

val expr : ?const:int -> int -> (int * int) list -> expr
(** [expr ~const n_dims terms] builds an expression over [n_dims]
    iterators from [(dim, coeff)] pairs. Raises [Invalid_argument] if a
    dim index is out of range. *)

val dim : int -> int -> expr
(** [dim n_dims d] is the single-iterator expression [iter_d]. *)

val eval_expr : expr -> int array -> int
(** [eval_expr e iters] evaluates [e] at concrete iterator values. *)

val substitute : expr -> expr array -> expr
(** [substitute e subst] rewrites [e] by replacing iterator [i] with the
    expression [subst.(i)]; all [subst] entries must share one arity,
    which becomes the arity of the result. Used by tiling to re-express
    subscripts over the split loops. *)

val substitute_map : map -> expr array -> map
(** [substitute_map m subst] applies {!substitute} to every result. *)

val map_of_exprs : int -> expr list -> map
(** [map_of_exprs n_dims exprs] checks arities and packs a map. *)

val identity_map : int -> map
(** The map [(d0, ..., dn-1) -> (d0, ..., dn-1)]. *)

val projection_map : int -> int list -> map
(** [projection_map n_dims dims] maps iterators to the selected dims, e.g.
    [projection_map 3 [0; 2]] is [(d0, d1, d2) -> (d0, d2)]. *)

val eval_map : map -> int array -> int array
(** Evaluate every result expression at concrete iterator values. *)

val rank : map -> int
(** Number of result dimensions. *)

val uses_dim : map -> int -> bool
(** [uses_dim m d] is true when iterator [d] appears with a non-zero
    coefficient in some result expression. *)

val to_matrix : map -> int array array
(** The access matrix of Figure 2: one row per array dimension, columns
    are iterator coefficients followed by the constant, i.e. each row has
    [n_dims + 1] entries. *)

val equal_expr : expr -> expr -> bool
val equal_map : map -> map -> bool

val pp_map : Format.formatter -> map -> unit
(** Prints e.g. [(d0, d1, d2) -> (d0, d2 + 1)]. *)

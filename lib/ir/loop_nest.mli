(** Perfectly-nested affine loop programs.

    This is the Affine-dialect analog the environment lowers Linalg ops
    into before applying loop transformations. A nest is an ordered band
    of loops (outermost first, all with lower bound 0 and step 1) around a
    single perfectly-nested body of stores whose subscripts are affine
    expressions over the loop variables. Loops carry an execution kind
    (sequential, parallel, vector) that the performance model interprets
    but the reference interpreter ignores — so a transformed nest can be
    checked for semantic equality against the original by running both. *)

type loop_kind = Seq | Parallel | Vector

type loop = {
  ub : int;  (** trip count: iterates 0, 1, ..., ub-1 *)
  kind : loop_kind;
  origin : int;  (** index of the source op's iteration dim, for features *)
}

type mem_ref = {
  buf : string;
  idx : Affine.expr array;  (** subscripts over the nest's loop variables *)
}

type sexpr =
  | Load of mem_ref
  | Const of float
  | Binop of Linalg.binop * sexpr * sexpr
  | Unop of Linalg.unop * sexpr

type stmt = Store of mem_ref * sexpr

type t = {
  name : string;
  loops : loop array;  (** outermost first *)
  body : stmt list;  (** executed at every point of the loop band *)
  buffers : (string * int array) list;  (** every buffer with its shape *)
  inits : (string * float) list;  (** buffers pre-filled before the nest *)
}

val n_loops : t -> int
val trip_counts : t -> int array

val iteration_count : t -> int
(** Product of all trip counts. *)

val validate : t -> (unit, string) result
(** Checks that subscript expressions have the nest's arity, reference
    declared buffers, match buffer ranks and stay within bounds over the
    whole iteration space (subscript coefficients may be any sign; bounds
    are checked at both domain corners per coefficient sign). *)

val buffer_shape : t -> string -> int array
(** Raises [Not_found] for an undeclared buffer. *)

val refs_of_sexpr : mem_ref list -> sexpr -> mem_ref list
(** [refs_of_sexpr acc e] prepends the load references of [e] to [acc]
    in reverse evaluation order. *)

val loads_of_body : t -> mem_ref list
(** All load references appearing in the body, in evaluation order. *)

val stores_of_body : t -> mem_ref list
(** All store targets, in order. *)

val digest : t -> string
(** 128-bit structural fingerprint (32 hex chars) in O(nest size),
    without printing the nest: loops (trip count, kind, origin), body
    (every constructor tagged, float constants by IEEE bit pattern,
    subscripts coefficient by coefficient), buffer declarations and
    inits. The nest [name] is excluded — nothing downstream of lowering
    reads it, so renamed copies of a nest share memoization entries —
    but buffer names are included because aliasing is semantic. This is
    the key of the evaluator's state-seconds cache and the serving
    daemon's result cache. *)

val map_body_exprs : (Affine.expr -> Affine.expr) -> t -> t
(** Rewrite every subscript expression of every load and store. *)

(** Tape-based reverse-mode automatic differentiation over {!Tensor}.

    Operations executed under a {!Tape.t} record their backward closures;
    {!backward} replays the tape in reverse, accumulating gradients into
    each node and, for parameter leaves, into the parameter's persistent
    gradient buffer. Granularity is whole tensors (matmul, elementwise,
    softmax...), which keeps the overhead negligible next to the matrix
    products. *)

module Param : sig
  type t = {
    name : string;
    data : Tensor.t;  (** mutable storage updated by the optimizer *)
    grad : Tensor.t;  (** accumulated by {!val-backward} *)
  }

  val create : string -> Tensor.t -> t
  val zero_grad : t -> unit
  val numel : t -> int
end

module Tape : sig
  type t

  val create : ?ws:Tensor.Workspace.t -> unit -> t
  (** With [~ws], every node value and every gradient buffer is drawn
      from the workspace instead of the heap — a steady-state training
      step (same network each minibatch) allocates nothing. [create]
      resets [ws], invalidating buffers handed out to the previous tape
      on the same workspace: extract anything you keep (scalars,
      copies) before starting the next tape. Results are bit-identical
      to the allocating tape. Without [~ws], fresh allocation. *)

  val ws : t -> Tensor.Workspace.t option
  (** The arena this tape draws from, for staging related buffers
      (observation matrices, mask penalties) with the same lifetime. *)
end

type node
(** A value in the computation graph. *)

val value : node -> Tensor.t
val grad : node -> Tensor.t
(** Gradient accumulated so far (zeros before {!backward}). Only nodes
    with a parameter leaf upstream receive one: the grad of a {!const}
    leaf, and of any node computed from constants alone, stays zero
    after {!backward}. *)

val of_param : Tape.t -> Param.t -> node
(** Parameter leaf: backward adds into [Param.grad]. *)

val const : Tape.t -> Tensor.t -> node
(** Constant leaf: no gradient flows into or out of it, and backward
    skips every product that would only feed it (the observation's
    gradient in a network's first layer). *)

(* -- differentiable operations -- *)

val matmul : Tape.t -> node -> node -> node
val add : Tape.t -> node -> node -> node
val sub : Tape.t -> node -> node -> node
val mul : Tape.t -> node -> node -> node
val add_bias : Tape.t -> node -> node -> node
(** [add_bias t x b]: rank-2 [x] plus rank-1 bias [b] per row. *)

val relu : Tape.t -> node -> node
val exp_ : Tape.t -> node -> node
val neg : Tape.t -> node -> node
val scale : Tape.t -> float -> node -> node
val square : Tape.t -> node -> node

val clamp : Tape.t -> lo:float -> hi:float -> node -> node
(** Gradient passes through inside \[lo, hi\], zero outside (PPO clip). *)

val min_ : Tape.t -> node -> node -> node
(** Elementwise minimum; gradient routes to the smaller operand. *)

val log_softmax : Tape.t -> node -> node
(** Row-wise log-softmax of a rank-2 tensor, numerically stabilized. *)

val gather_cols : Tape.t -> node -> int array -> node
(** [gather_cols t x cols] picks [x.(i, cols.(i))] per row; result has
    shape [rows]. *)

val slice_cols : Tape.t -> node -> lo:int -> hi:int -> node
(** Columns [lo, hi) of a rank-2 tensor. *)

val gather_rows : Tape.t -> node -> int array -> node
(** [gather_rows t x rows]: row [j] of the result is row [rows.(j)] of
    [x], rows being slices along the leading dimension
    ({!Tensor.gather_rows_into}). The backward step adds each result
    row's gradient into its source row, so a repeated index
    accumulates. Raises [Invalid_argument] on an index out of range. *)

val scatter_rows : Tape.t -> node -> int array -> n:int -> node
(** [scatter_rows t x rows ~n], the adjoint of {!gather_rows}: a result
    with [n] rows, zero except that row [j] of [x] is added into row
    [rows.(j)]. [rows] has one entry per row of [x]; an index out of
    \[0, n) raises [Invalid_argument]. *)

val reshape : Tape.t -> node -> int array -> node
(** The same elements in row-major order under a new shape of equal
    size; the value is a view, not a copy. *)

val sum_rows : Tape.t -> node -> node
(** [m; n] -> [m]. *)

val sum_all : Tape.t -> node -> node
(** Any shape -> scalar (shape [1]). *)

val mean_all : Tape.t -> node -> node

val backward : Tape.t -> node -> unit
(** Seed the given (scalar) node's gradient with ones and propagate
    backwards through every node on the tape that has a parameter leaf
    upstream. Raises [Invalid_argument] if the node holds more than one
    element. *)

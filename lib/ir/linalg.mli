(** Linalg-style structured operations.

    A structured op is a perfectly-nested computation described by an
    iteration domain, per-operand affine indexing maps and a scalar body
    expression — the same abstraction MLIR's [linalg.generic] provides and
    the one the paper's environment optimizes. All five benchmark kinds of
    the paper (matmul, 2-d convolution, max-pooling, elementwise addition
    and ReLU) are expressible, and every transformation of the action
    space is legal on them without further checks (§3 of the paper). *)

type iter_kind = Parallel_iter | Reduction_iter

type binop = Add | Sub | Mul | Div | Max
type unop = Exp | Log | Neg

type scalar_expr =
  | Input of int  (** value loaded from the i-th input at its map *)
  | Output  (** current accumulator value (reductions only) *)
  | Const of float
  | Binop of binop * scalar_expr * scalar_expr
  | Unop of unop * scalar_expr

type operand = {
  name : string;  (** buffer name, unique within the op *)
  shape : int array;  (** array extents, row-major *)
  map : Affine.map;  (** iteration dims -> array subscripts *)
}

type conv_params = {
  batch : int;
  in_h : int;
  in_w : int;
  channels : int;
  kernel_h : int;
  kernel_w : int;
  filters : int;
  stride : int;
}

type pool_params = {
  p_batch : int;
  p_in_h : int;
  p_in_w : int;
  p_channels : int;
  p_kernel : int;
  p_stride : int;
}

type unary_kind = Exp_k | Log_k | Relu_k
type binary_kind = Add_k | Sub_k | Mul_k | Div_k

type kind =
  | Matmul of { m : int; n : int; k : int }
  | Batch_matmul of { bb : int; m : int; n : int; k : int }
  | Conv2d of conv_params
  | Conv2d_nchw of conv_params
  | Depthwise_conv2d of conv_params  (** filters = channel multiplier 1 *)
  | Maxpool of pool_params
  | Avgpool of pool_params
  | Add_op of int array
  | Relu_op of int array
  | Unary_op of unary_kind * int array
  | Binary_op of binary_kind * int array
  | Bias_add of int array  (** bias vector over the last dim *)
  | Generic_op

type t = {
  op_name : string;
  kind : kind;
  domain : int array;  (** iteration-space upper bounds (lb 0, step 1) *)
  iter_kinds : iter_kind array;
  inputs : operand array;
  output : operand;
  body : scalar_expr;  (** value yielded to the output point *)
  init : float option;  (** accumulator initialization, reductions only *)
}

val matmul : ?name:string -> m:int -> n:int -> k:int -> unit -> t
(** C\[m,n\] = sum_k A\[m,k\] * B\[k,n\]. Iteration domain (m, n, k). *)

val batch_matmul : b:int -> m:int -> n:int -> k:int -> unit -> t
(** C\[b,m,n\] = sum_k A\[b,m,k\] * B\[b,k,n\] — transformer attention
    batches. Iteration domain (b, m, n, k). *)

val conv2d : conv_params -> t
(** NHWC valid convolution, iteration domain
    (batch, out_h, out_w, filters, kernel_h, kernel_w, channels) — seven
    loops, matching the paper's N = 7. Raises [Invalid_argument] when the
    kernel does not fit the input. *)

val conv2d_nchw : conv_params -> t
(** The same convolution in NCHW layout: input \[n,c,h,w\], filter
    \[f,c,kh,kw\], output \[n,f,oh,ow\]. Same seven-loop iteration
    domain as {!conv2d}, but every access matrix changes — the layout
    ablation's subject. Not eligible for im2col (the packing helper
    assumes NHWC). *)

val depthwise_conv2d : conv_params -> t
(** NHWC depthwise convolution: each channel convolved with its own
    kernel ([filters] is ignored — the output has [channels] channels).
    Domain (batch, oh, ow, channels, kh, kw) — six loops. *)

val maxpool : pool_params -> t
(** NHWC max pooling, domain (batch, out_h, out_w, channels, kh, kw). *)

val avgpool : pool_params -> t
(** NHWC average pooling: accumulates input scaled by 1/(k*k). *)

val add : int array -> t
(** Elementwise addition of two arrays of the given shape. *)

val relu : int array -> t
(** Elementwise [max(x, 0)]. *)

val unary : unary_kind -> int array -> t
(** Elementwise exp / log / relu of one input. *)

val binary : binary_kind -> int array -> t
(** Elementwise add / sub / mul / div of two inputs. *)

val bias_add : int array -> t
(** [x + b] where [b] broadcasts over all but the last dimension — the
    canonical bias of a dense or conv layer. The bias operand's access
    matrix has a single non-zero column, exercising the broadcast case
    of the paper's Figure 2 features. *)

val generic :
  ?name:string ->
  domain:int array ->
  iter_kinds:iter_kind array ->
  inputs:operand list ->
  output:operand ->
  body:scalar_expr ->
  ?init:float ->
  unit ->
  t
(** Raw constructor for tests and extensions; validates like [validate]. *)

val validate : t -> (unit, string) result
(** Structural checks: map arities match the domain, operand ranks match
    their maps, subscripts stay in bounds over the whole domain, [Input]
    indices are valid, reductions have an [init]. *)

val n_loops : t -> int
(** Number of iteration dimensions. *)

val loop_bounds : t -> int array
(** Copy of the iteration-domain upper bounds. *)

val iteration_count : t -> int
(** Product of the domain bounds. *)

val is_conv : t -> bool
(** True for [Conv2d] ops — the only ones im2col applies to. *)

val math_op_counts : t -> int array
(** The six counters of the paper's observation (Table 1), in the order
    add, sub, mul, div, exp, log. *)

val flops_per_point : t -> int
(** Number of arithmetic operations evaluated per iteration-space point
    (max counts as one op). *)

val execute_reference : t -> (string * float array) list -> float array
(** [execute_reference op inputs] runs the op naively over its whole
    domain and returns the flattened output buffer. [inputs] binds every
    input operand name to a buffer of matching size; used as ground truth
    by the transformation tests. Raises [Invalid_argument] on a missing or
    mis-sized buffer. *)

val kind_name : t -> string
(** Short tag: "matmul", "conv2d", "maxpool", "add", "relu", "generic". *)

val digest : t -> string
(** Canonical identity of an op for caching: name, iteration-domain
    extents and iterator kinds. Two ops sharing a name but differing in
    shape get distinct digests. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary including domain, operands and maps. *)

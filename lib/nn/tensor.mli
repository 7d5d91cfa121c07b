(** Dense float64 tensors on Bigarray storage (row-major, c_layout).

    The minimal tensor type the policy networks need: rank-1/rank-2
    data, matrix multiplication, broadcasting of a bias vector over
    rows, and elementwise maps. The kernels are destination-passing:
    an [_into] kernel writes into a caller-supplied tensor, usually one
    drawn from a {!Workspace} arena. [matmul] and [add_bias] run the
    same kernels on a fresh tensor.

    The matmul family runs one row kernel that skips the exact-zero
    entries of its left operand and otherwise keeps the accumulation
    order of the naive triple loop, so for a finite right operand its
    results are bit-identical to that loop (see docs/performance.md,
    "Tensor kernels"). *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { shape : int array; data : buf }

val zeros : int array -> t

val of_array : int array -> float array -> t
(** Validates that the data length matches the shape product. *)

val init : int array -> (int -> float) -> t
(** [init shape f] fills index [i] (flat) with [f i]. *)

val numel : t -> int
val dims : t -> int array

val get : t -> int -> float
(** Flat indexing (bounds-checked). *)

val set : t -> int -> float -> unit

val unsafe_get : t -> int -> float
(** Flat indexing without bounds checks — hot loops only. *)

val get2 : t -> int -> int -> float
(** [get2 t i j] for rank-2 tensors. *)

(** Preallocated buffer arena for destination-passing kernels.

    [get ws shape] returns the next slot, allocating only when this
    position has never been handed out or needs more capacity than it
    has (smaller requests reuse the buffer as a prefix view); [reset ws]
    rewinds the hand-out cursor without freeing. A caller that resets
    once per inference call and requests a stable shape sequence reuses
    the same buffers forever.

    Tensors returned by [get] are valid only until the owner's next
    [reset] — never store one, and never share a workspace across
    domains (give each domain its own, e.g. via [Domain.DLS]). *)
module Workspace : sig
  type tensor := t
  type t

  val create : unit -> t
  val reset : t -> unit
  val get : t -> int array -> tensor

  val reallocs : t -> int
  (** [get] calls that had to allocate a buffer; a steady-state caller
      stops increasing this after the first pass. *)
end

val matmul : t -> t -> t
(** [matmul a b] for shapes ([m; k], [k; n]). Raises [Invalid_argument]
    on rank or dimension mismatch. Skips the zero entries of [a];
    bit-identical to the naive i-p-j loop whenever [b] is finite (a
    skipped [0 * inf] would have been NaN). *)

val matmul_into : dst:t -> t -> t -> t
(** [matmul_into ~dst a b] writes [a * b] into [dst] ([m; n]) and
    returns it. [dst] must not alias [a] or [b]. *)

val matmul_transpose_b_addto : dst:t -> t -> t -> unit
(** [matmul_transpose_b_addto ~dst a b]: dst += a * b^T for [b] of
    shape [n; k], skipping the zero entries of [a]. Each product row is
    formed in per-domain scratch and added once — bit-identical to
    allocating the product and [add_inplace]-ing it. *)

val transpose_into : dst:t -> t -> t
(** Rank-2 transpose. [dst] must not alias the source. *)

val slice_cols_into : dst:t -> t -> lo:int -> hi:int -> t
(** [slice_cols_into ~dst t ~lo ~hi] copies columns [lo, hi) of a
    rank-2 tensor into [dst] ([m; hi - lo]). *)

val gather_rows_into : dst:t -> t -> int array -> t
(** [gather_rows_into ~dst t rows]: row [j] of [dst] is a copy of row
    [rows.(j)] of [t], rows being slices along the leading dimension.
    [rows] may be empty, unsorted or repeat an index; [dst] has [t]'s
    shape with the leading dimension replaced by [Array.length rows].
    Raises [Invalid_argument] on a row index out of range or a
    mismatched [dst]. *)

val map_into : (float -> float) -> dst:t -> t -> t
val map2_into : (float -> float -> float) -> dst:t -> t -> t -> t
val relu_into : dst:t -> t -> t
val add_into : dst:t -> t -> t -> t
val sub_into : dst:t -> t -> t -> t
val mul_into : dst:t -> t -> t -> t

val add_bias : t -> t -> t
(** [add_bias x b] adds the vector [b] of shape [n] to each row of the
    rank-2 [x] of shape [m; n]. *)

val add_bias_into : dst:t -> t -> t -> t

val sum : t -> float

val sum_rows_into : dst:t -> t -> t
(** [sum_rows_into ~dst x] writes the row sums of [x] ([m; n]) into
    [dst] ([m]). *)

val argmax_row : t -> int -> int
(** Index of the max element of row [i] of a rank-2 tensor. *)

val add_inplace : t -> t -> unit
(** [add_inplace dst src]: dst += src. *)

val add_mul_inplace : t -> t -> t -> unit
(** [add_mul_inplace dst a b]: dst += a * b elementwise, fused. *)

val fill_inplace : t -> float -> unit

val xavier_uniform : Util.Rng.t -> fan_in:int -> fan_out:int -> int array -> t
(** Glorot/Xavier uniform initialization. *)

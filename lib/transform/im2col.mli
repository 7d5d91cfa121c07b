(** The im2col rewrite: convolution as matrix multiplication.

    Rewrites an NHWC valid convolution with domain
    (n, oh, ow, f, kh, kw, c) into a GEMM of shape
    M = n*oh*ow, N = f, K = kh*kw*c. The filter tensor (kh, kw, c, f) is
    already laid out as the (K, N) matrix row-major, and the GEMM output
    (M, N) is exactly the flattened (n, oh, ow, f) output, so only the
    input image needs packing into the column matrix — whose cost the
    performance model charges separately. *)

val rewrite : Linalg.t -> (Linalg.t * [ `Packing_elements of int ], string) result
(** [rewrite op] returns the equivalent matmul op and the number of
    elements materialized into the column matrix (M*K), or an error when
    [op] is not a convolution. *)

val pack_input : Linalg.conv_params -> float array -> float array
(** [pack_input p input] builds the column matrix for a flattened NHWC
    input buffer: row [(n*OH + oh)*OW + ow], column [(kh*KW + kw)*C + c]
    holds [input\[n, oh*s + kh, ow*s + kw, c\]]. Used by the equivalence
    tests. Raises [Invalid_argument] on a mis-sized buffer. *)

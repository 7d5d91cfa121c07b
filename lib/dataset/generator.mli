(** Benchmark and training-set generation (paper §5.1.1, Table 2).

    The paper scraped 121 models from TensorFlow Hub and Hugging Face and
    kept the most frequent operations with their input shapes. We stand
    in for the scrape with seeded sampling from shape menus typical of
    vision backbones and transformer blocks, reproducing the exact
    Table 2 counts: 1088 training ops and 67 validation ops across
    matmul, conv2d, maxpool, add and relu. *)

type split = { train : Linalg.t array; validation : Linalg.t array }

val generate : seed:int -> unit -> split
(** The Table 2 counts — train: matmul 175, conv2d 232, maxpool 200,
    add 248, relu 233; validation: matmul 15, conv2d 18, maxpool 10,
    add 10, relu 14. Deterministic in [seed]; op names are unique
    within the split. *)

val random_op : Util.Rng.t -> string -> Linalg.t
(** [random_op rng kind] draws one op of the given kind. The Table 2
    kinds are "matmul", "conv2d", "maxpool", "add" and "relu"; beyond
    the paper, "batch_matmul", "conv2d_nchw", "dwconv", "avgpool",
    "mul", "sub", "div", "exp", "log" and "bias_add" are also
    supported. Raises
    [Invalid_argument] on an unknown kind. *)

val kind_counts : Linalg.t array -> (string * int) list
(** Histogram by {!Linalg.kind_name}, sorted by name (for the Table 2
    bench). *)

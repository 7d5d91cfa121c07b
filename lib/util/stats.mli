(** Summary statistics used by the evaluation harness. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty list. *)

val geomean : float list -> float
(** Geometric mean of strictly positive values. Raises [Invalid_argument]
    on an empty list or on non-positive values. *)

val median : float list -> float
(** Median (average of the two middle values for even lengths). *)

val stddev : float list -> float
(** Population standard deviation. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [0, 100], nearest-rank method. *)

(** Schedules: sequences of code transformations.

    A schedule is the ordered list of actions the paper's agent emits for
    one operation. The printable notation follows the paper:
    [T(0,32,64)] tiles loops with those sizes (0 = untiled),
    [P(4,0,0)] tiles and parallelizes, [I(1,0,2)] interchanges with the
    given permutation, [S(2)] swaps adjacent point loops 2 and 3,
    [C] is im2col and [V] is vectorization. *)

type transformation =
  | Tile of int array  (** per point-loop tile sizes, 0 = untiled *)
  | Parallelize of int array  (** tile sizes; tile loops run in parallel *)
  | Interchange of int array  (** full permutation of the point band *)
  | Swap of int  (** adjacent transposition (i, i+1) of the point band *)
  | Im2col
  | Vectorize
  | Unroll of int
      (** unroll the innermost loop — a §6.1 future-work extension, not
          part of the default action space; notation [U(f)] *)

type t = transformation list

val to_string : t -> string
(** Compact notation, e.g. ["T(0,32,64) P(4,0,0) S(1) V"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; whitespace-separated, tolerant of extra
    spaces. *)

val dedup_key : t -> string
(** Injective encoding for dedup tables on hot search paths — several
    times cheaper than {!to_string} (single buffer, no [Printf]) but
    not human-oriented and not parseable. *)

val equal : t -> t -> bool

val transformation_name : transformation -> string
(** "tiling", "parallelization", "interchange", "im2col" or
    "vectorization" — the action labels used in logs and benches. *)

(* Sound legality verdicts for the environment's transformations,
   derived from {!Dependence} feasibility queries.

   Soundness contract: a [true] verdict means the transformation
   provably preserves semantics on this nest; [false] means "could not
   prove it" (the dependence tests are conservative), never "provably
   illegal". The differential suite in test/test_dependence.ml enforces
   the first half against the interpreter. *)

open Dependence

(* The questions the verdicts reduce to. Each is answered on first ask
   and memoized in its own cell: the action masks read only the point
   band's verdicts, a small share of the table. *)
type question = Carries of int | Parallel of int | Swap of int | Vectorize | Tile of int

type t = {
  deps : Dependence.prepared;
  n : int;
  memo : Bytes.t;  (* one cell per question: '?' until asked, then '0' or '1' *)
}

let constraints n f = Array.init n f

let decide t = function
  (* Does loop [k] carry a dependence — same iteration of every outer
     loop, source strictly before destination on [k]? *)
  | Carries k ->
      exists_dep t.deps
        (constraints t.n (fun i ->
             if i < k then Must Eq else if i = k then Must Lt else Any))
  (* Is no dependence at all sensitive to loop [k] (a non-[=] direction
     in any surrounding context)? Loops clean in this sense can run their
     iterations in any order — or concurrently — wherever they sit in the
     nest, which is what the environment's Parallelize (tile-to-forall,
     hoisting the chunk loop above the band) requires. *)
  | Parallel k ->
      not (exists_dep t.deps (constraints t.n (fun i -> if i = k then Must Lt else Any)))
  (* Adjacent interchange of [k] and [k+1] is illegal only when a
     dependence is carried by [k] with a [>] direction on [k+1]: swapping
     would make the destination execute first. Accumulator self-deps are
     excluded: interchange is a sequential reordering, and reordering the
     updates of one accumulation cell only reassociates the reduction —
     legal in this environment (like the paper's transformations, and
     like the vectorize verdict below). Parallelization must NOT make
     this exclusion: concurrent accumulator updates race rather than
     reassociate, so [Parallel] keeps every dependence. *)
  | Swap k ->
      not
        (exists_dep ~exclude_accumulator:true t.deps
           (constraints t.n (fun i ->
                if i < k then Must Eq
                else if i = k then Must Lt
                else if i = k + 1 then Must Gt
                else Any)))
  (* Vectorizing the innermost loop: no dependence carried by it, except
     the same-statement accumulator pattern (identical subscripts), which
     lowers to a vector reduction. *)
  | Vectorize ->
      t.n = 0
      || not
           (exists_dep ~exclude_accumulator:true t.deps
              (constraints t.n (fun i -> if i = t.n - 1 then Must Lt else Must Eq)))
  (* Tiling the band [band_start, n) inserts the chunk loops at
     [band_start], above untiled band members — an implicit interchange.
     It is legal when the band is fully permutable: no dependence carried
     inside the band has a [>] direction on any deeper band loop.
     Accumulator self-deps are excluded for the same reason as in
     [Swap]: tiling is sequential, so permuting one cell's reduction
     updates only reassociates. *)
  | Tile band_start ->
      let blocked = ref false in
      for c = band_start to t.n - 1 do
        for k = c + 1 to t.n - 1 do
          if not !blocked then
            if
              exists_dep ~exclude_accumulator:true t.deps
                (constraints t.n (fun i ->
                     if i < c then Must Eq
                     else if i = c then Must Lt
                     else if i = k then Must Gt
                     else Any))
            then blocked := true
        done
      done;
      not !blocked

let cell t = function
  | Carries k -> k
  | Parallel k -> t.n + k
  | Swap k -> (2 * t.n) + k
  | Vectorize -> 3 * t.n
  | Tile b -> (3 * t.n) + 1 + b

let ask t q =
  let i = cell t q in
  if Bytes.get t.memo i = '?' then
    Bytes.set t.memo i (if decide t q then '1' else '0');
  Bytes.get t.memo i = '1'

let analyze (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  (* cells: n carried, n parallel, n swap, vectorize, band starts 0..n *)
  { deps = Dependence.prepare nest; n; memo = Bytes.make ((4 * n) + 2) '?' }

let n_loops t = t.n
let carries_dependence t k = k >= 0 && k < t.n && ask t (Carries k)
let can_parallelize t k = k >= 0 && k < t.n && ask t (Parallel k)
let can_interchange t k = k >= 0 && k < t.n - 1 && ask t (Swap k)
let can_vectorize t = ask t Vectorize
let can_unroll (_ : t) = true  (* unrolling replicates the body in order *)

(* A band starting at or past [n] is empty, hence trivially permutable;
   one starting before 0 is the whole nest. *)
let can_tile t ~band_start = ask t (Tile (Int.max 0 (Int.min band_start t.n)))

(* The per-action legality table, for the CLI and the docs. *)
type verdicts = {
  parallelize : bool array;
  interchange : bool array;
  vectorize : bool;
  tile : bool;
  unroll : bool;
}

let verdicts t =
  {
    parallelize = Array.init t.n (fun k -> can_parallelize t k);
    interchange = Array.init (max (t.n - 1) 0) (fun k -> can_interchange t k);
    vectorize = can_vectorize t;
    tile = can_tile t ~band_start:0;
    unroll = can_unroll t;
  }

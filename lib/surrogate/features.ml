(* Fixed-width feature vectors for the learned latency surrogate.

   A vector has three blocks:

   - machine block: the cache hierarchy / parallelism / bandwidth
     descriptors of a {!Machine.t}, so one model conditions on several
     machine profiles;
   - op block: static features of the UNTRANSFORMED op — trip counts and
     iteration kinds, math-op mix, per-level footprints and reuse
     distances of the canonical nest (the shared {!Nest_stats} helpers
     Observation also uses), and the analytical cost model's own terms
     for the canonical nest (compute cycles, per-level miss lines, base
     seconds). Everything here depends only on the op, so rankers
     compute it once per op and reuse it for thousands of candidates;
   - schedule block: a cheap encoding of the candidate schedule itself
     (per-dim tile/parallel sizes, the final loop permutation, im2col /
     vectorize flags), derived from the [Schedule.t] alone — scoring a
     candidate never applies its transformations.

   The same vector is produced two ways: at logging time (the
   evaluator's measurement tap, from the measured state's original op
   and applied schedule) and at ranking time (from the op and a
   candidate). Both [assemble] the same (machine, op, schedule) parts,
   so they agree by construction. *)

let max_dims = 8
let machine_dim = 10
(* trips + iter kinds + per-level footprint/reuse (2*max_dims) + math
   mix (6) + shape scalars (6) + cost-model priors (6) *)
let op_dim = (4 * max_dims) + 18
let schedule_dim = (3 * max_dims) + 4
let dim = machine_dim + op_dim + schedule_dim

let log2 = Nest_stats.log2
let log2_norm64 x = log2 (1.0 +. x) /. 64.0

let machine_block (m : Machine.t) =
  [|
    log2 (float_of_int m.Machine.l1.Machine.size_bytes) /. 32.0;
    log2 (float_of_int m.Machine.l2.Machine.size_bytes) /. 32.0;
    log2 (float_of_int m.Machine.l3.Machine.size_bytes) /. 32.0;
    log2 (float_of_int m.Machine.cores) /. 8.0;
    log2 (float_of_int m.Machine.vector_lanes) /. 8.0;
    m.Machine.vector_flops_per_cycle /. 64.0;
    m.Machine.freq_ghz /. 4.0;
    m.Machine.mem_latency_cycles /. 256.0;
    m.Machine.single_core_bw_gbs /. 32.0;
    m.Machine.total_bw_gbs /. 256.0;
  |]

let op_block (op : Linalg.t) =
  let out = Array.make op_dim 0.0 in
  let trips = Linalg.loop_bounds op in
  Array.iteri
    (fun i trip ->
      if i < max_dims then out.(i) <- Nest_stats.log2_trip_norm trip)
    trips;
  Array.iteri
    (fun i kind ->
      if i < max_dims then
        out.(max_dims + i) <-
          (match kind with
          | Linalg.Reduction_iter -> 1.0
          | Linalg.Parallel_iter -> 0.0))
    op.Linalg.iter_kinds;
  let nest = Lower.to_loop_nest op in
  Array.blit
    (Nest_stats.band_footprint_features ~n_max:max_dims nest)
    0 out (2 * max_dims) (2 * max_dims);
  let o = 4 * max_dims in
  Array.iteri
    (fun i c -> out.(o + i) <- float_of_int c /. 4.0)
    (Linalg.math_op_counts op);
  (* Cost-model terms of the canonical nest — the surrogate gets the
     analytical model's own view of the untransformed op as priors
     (base seconds, compute cycles, per-level traffic), so it only has
     to learn the residual effect of the schedule. *)
  let report =
    Cost_model.estimate ~machine:Machine.e5_2680_v4
      ~iter_kinds:op.Linalg.iter_kinds nest
  in
  let o = o + 6 in
  out.(o) <- float_of_int (Linalg.n_loops op) /. 16.0;
  out.(o + 1) <- log2_norm64 (float_of_int (Linalg.iteration_count op));
  out.(o + 2) <- float_of_int (Linalg.flops_per_point op) /. 8.0;
  out.(o + 3) <- (if Linalg.is_conv op then 1.0 else 0.0);
  out.(o + 4) <- float_of_int (Array.length op.Linalg.inputs) /. 4.0;
  out.(o + 5) <- log2_norm64 (report.Cost_model.seconds *. 1e12);
  let o = o + 6 in
  out.(o) <- log2_norm64 report.Cost_model.compute_cycles;
  List.iteri
    (fun i (lt : Cost_model.level_traffic) ->
      if i < 4 then out.(o + 1 + i) <- log2_norm64 lt.Cost_model.miss_lines)
    report.Cost_model.traffic;
  out.(o + 5) <- report.Cost_model.parallel_factor /. 64.0;
  out

(* log2(size)/8 for transformation sizes, like the observation's history
   block (sizes are <= 256), from a table of the same values for those. *)
let size_norm_of size = log2 (float_of_int size) /. 8.0
let size_norms = Array.init 257 (fun size -> if size <= 0 then 0.0 else size_norm_of size)

let size_norm size =
  if size <= 0 then 0.0 else if size <= 256 then size_norms.(size) else size_norm_of size

let set_sizes out off sizes =
  for l = 0 to Int.min max_dims (Array.length sizes) - 1 do
    let size = sizes.(l) in
    if size > 0 then out.(off + l) <- size_norm size
  done

(* pos.(j) = current position of original point loop j; swaps and
   interchanges permute it. *)
let encode_step out pos (tr : Schedule.transformation) =
  match tr with
  | Schedule.Tile sizes -> set_sizes out 0 sizes
  | Schedule.Parallelize sizes -> set_sizes out max_dims sizes
  | Schedule.Swap i ->
      if i >= 0 && i + 1 < max_dims then
        for j = 0 to max_dims - 1 do
          let p = pos.(j) in
          if p = i then pos.(j) <- i + 1 else if p = i + 1 then pos.(j) <- i
        done
  | Schedule.Interchange perm ->
      let old = Array.copy pos in
      Array.iteri
        (fun j p ->
          if j < max_dims && p >= 0 && p < max_dims then
            Array.iteri (fun k pk -> if pk = j then pos.(k) <- p) old)
        perm
  | Schedule.Im2col -> out.((3 * max_dims) + 0) <- 1.0
  | Schedule.Vectorize -> out.((3 * max_dims) + 1) <- 1.0
  | Schedule.Unroll f -> out.((3 * max_dims) + 2) <- size_norm f

let rec encode_steps out pos n = function
  | [] -> n
  | tr :: rest ->
      encode_step out pos tr;
      encode_steps out pos (n + 1) rest

(* Called once per candidate a staged search ranks, so it runs as plain
   loops: no closure per step or per size. *)
let schedule_block_into (out : float array) (sched : Schedule.t) =
  Array.fill out 0 schedule_dim 0.0;
  let pos = Array.make max_dims 0 in
  for j = 1 to max_dims - 1 do
    pos.(j) <- j
  done;
  let n_steps = encode_steps out pos 0 sched in
  for j = 0 to max_dims - 1 do
    out.((2 * max_dims) + j) <- float_of_int pos.(j) /. 8.0
  done;
  out.((3 * max_dims) + 3) <- float_of_int n_steps /. 8.0

let schedule_block (sched : Schedule.t) =
  let out = Array.make schedule_dim 0.0 in
  schedule_block_into out sched;
  out

let assemble ~machine ~op ~sched =
  if
    Array.length machine <> machine_dim
    || Array.length op <> op_dim
    || Array.length sched <> schedule_dim
  then invalid_arg "Surrogate.Features.assemble: block size mismatch";
  Array.concat [ machine; op; sched ]

(* Op blocks are expensive relative to the rest (a Footprint pass and a
   cost-model estimate), and every consumer prices thousands of states
   of a handful of ops — memoize by op digest, domain-safe because the
   evaluator's measurement tap may fire from forked workers. *)
type cache = (string, float array) Util.Sharded_cache.t

let create_cache () = Util.Sharded_cache.create ~capacity:512 ()

let cached_op_block cache op =
  Util.Sharded_cache.find_or_compute cache (Linalg.digest op) (fun () ->
      op_block op)

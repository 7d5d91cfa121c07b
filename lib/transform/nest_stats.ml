(* Shared per-level loop statistics.

   Observation (the paper's Table 1 features) and the surrogate cost
   model's feature extractor both need the same per-loop numbers: log-
   scaled trip counts of the point band, and the per-level footprint /
   reuse-distance pair from the Footprint pass. This module is the one
   place those normalizations live, so the two consumers (and any
   future third) stay bit-identical by construction. *)

let log2 x = log x /. log 2.0

(* log2 of a trip count, scaled so realistic trips land in [0, 1]
   (2^16 iterations per loop). Matches the paper's loop-info block. *)
let log2_trip_norm trip = log2 (float_of_int (Int.max 1 trip)) /. 16.0

(* log2(1 + count), scaled for element counts (footprints, reuse
   distances — up to 2^32 elements). *)
let log2_count_norm e = log2 (1.0 +. float_of_int e) /. 32.0

(* Per-point-loop trip counts of [state], log-scaled, padded/truncated
   to [n_max] slots. *)
let trip_features ~n_max (state : Sched_state.t) =
  let out = Array.make n_max 0.0 in
  let trips = Sched_state.point_trip_counts state in
  Array.iteri
    (fun i trip -> if i < n_max then out.(i) <- log2_trip_norm trip)
    trips;
  out

(* Per-level footprint and reuse-distance features of [nest], aligned to
   the point band: slot j is the data footprint of one execution of the
   subtree under point loop j, slot n_max + j the reuse distance carried
   by that loop. Log-scaled like element counts. *)
let band_footprint_features ~n_max (nest : Loop_nest.t) =
  let out = Array.make (2 * n_max) 0.0 in
  let fp = Footprint.analyze nest in
  let band_start = Loop_transforms.point_band_start nest in
  let band = Loop_transforms.point_band nest in
  Array.iteri
    (fun j _ ->
      if j < n_max then begin
        out.(j) <- log2_count_norm (Footprint.level_elements fp (band_start + j));
        out.(n_max + j) <-
          log2_count_norm (Footprint.reuse_distance fp (band_start + j))
      end)
    band;
  out

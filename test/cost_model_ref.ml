(* The reference cost model: a direct implementation of
   [Cost_model.estimate] — per-reference line lists, a fold per cache
   level, one body walk per question and a sorted list for the store
   replication — written for clarity, not allocation. The
   allocation-light estimate in lib/perf must match it bit for bit on
   every report field (test_perf.ml, "estimate matches the reference
   bit for bit"). *)

(* The model's constants: the fraction of a cache level the working set
   may fill before re-entries count as evicted, and the multiplier on
   latency charges of prefetchable (last-dimension-contiguous)
   streams. *)
let fit_fraction = 0.5
let prefetch_discount = 0.2

(* Per-iteration branch/index-arithmetic overhead of scalar loops; the
   vectorizer amortizes it across lanes. *)
let scalar_loop_overhead_cycles = 1.0

(* A deduplicated memory reference of the nest body. References that
   share coefficient structure and differ only in constant offsets
   (unrolled copies, neighbouring stencil taps) are merged: their
   footprints overlap almost entirely, so we keep one representative and
   fold the constant spread into the per-dimension extents. *)
type ref_info = {
  shape : int array;
  idx : Affine.expr array;
  deps : bool array;  (* per loop: does the subscript use it? *)
  const_spread : int array;  (* max - min constant per array dim *)
  count : int;  (* occurrences in the body (loads + stores) *)
}

let gather_refs (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  (* Unseeded: this table's fold order is the group order, and the
     float sums over groups follow it, so a randomized table
     (OCAMLRUNPARAM=R) would price one nest to different bits. *)
  let tbl = Hashtbl.create ~random:false 16 in
  let add (r : Loop_nest.mem_ref) =
    let key = (r.buf, Array.map (fun (e : Affine.expr) -> e.coeffs) r.idx) in
    let consts = Array.map (fun (e : Affine.expr) -> e.const) r.idx in
    match Hashtbl.find_opt tbl key with
    | Some (info, lo, hi) ->
        let lo = Array.map2 min lo consts and hi = Array.map2 max hi consts in
        Hashtbl.replace tbl key ({ info with count = info.count + 1 }, lo, hi)
    | None ->
        let shape = Loop_nest.buffer_shape nest r.buf in
        let deps =
          Array.init n (fun d ->
              Array.exists (fun (e : Affine.expr) -> e.coeffs.(d) <> 0) r.idx)
        in
        Hashtbl.replace tbl key
          ( { shape; idx = r.idx; deps; const_spread = Array.map (fun _ -> 0) consts; count = 1 },
            consts,
            Array.copy consts )
  in
  List.iter add (Loop_nest.loads_of_body nest);
  List.iter add (Loop_nest.stores_of_body nest);
  Hashtbl.fold
    (fun _ (info, lo, hi) acc ->
      { info with const_spread = Array.map2 (fun h l -> h - l) hi lo } :: acc)
    tbl []

(* Reuse tables shared by every cache level of one estimate: per
   reference, its distinct lines at every region depth (lines.(d) for
   loops d..n-1 iterating, the others fixed), and per depth the total
   working-set bytes. One innermost-first sweep per reference keeps, per
   array dim, the bounding-box extent of the region as a running integer
   sum over the loops, and whether some loop of the region walks the last
   array dim densely; each depth's lines are then the capped extents'
   float product in array-dim order. Integer sums are exact, so this is
   bit-identical to recomputing every depth from scratch. The fold over
   [refs] keeps the reference order, so the footprint sums are too. *)
type reuse_tables = {
  ref_lines : (ref_info * float array) list;  (* gather_refs order *)
  footprints : float array;  (* bytes of the region at each depth *)
}

(* Distinct lines of [r] at every region depth. The last array dim is
   dense, enabling spatial line reuse, when some region loop steps it by
   at most the merged group's constant spread plus one: offsets {0..s}
   every c elements cover it whenever |c| <= s + 1 (e.g. plain unit
   stride, or an 8-way unrolled stride-8 access). *)
let ref_lines machine trips (r : ref_info) =
  let n = Array.length trips in
  let nd = Array.length r.shape in
  let lines = Array.make (n + 1) 1.0 in
  if nd > 0 then begin
    let elems_per_line =
      machine.Machine.l1.Machine.line_bytes / machine.Machine.elem_bytes
    in
    let last = nd - 1 in
    let max_step = r.const_spread.(last) + 1 in
    let ext = Array.map (fun s -> 1 + s) r.const_spread in
    let dense = ref false in
    for depth = n downto 0 do
      if depth < n then begin
        for d = 0 to last do
          ext.(d) <-
            ext.(d) + (abs r.idx.(d).Affine.coeffs.(depth) * (trips.(depth) - 1))
        done;
        let c = abs r.idx.(last).Affine.coeffs.(depth) in
        if c >= 1 && c <= max_step then dense := true
      end;
      let last_extent = min ext.(last) r.shape.(last) in
      let last_lines =
        if !dense then
          float_of_int ((last_extent + elems_per_line - 1) / elems_per_line)
        else float_of_int last_extent
      in
      let other = ref 1.0 in
      for d = 0 to last - 1 do
        other := !other *. float_of_int (min ext.(d) r.shape.(d))
      done;
      lines.(depth) <- Float.max 1.0 (!other *. last_lines)
    done
  end;
  lines

let reuse_tables machine refs trips =
  let n = Array.length trips in
  let ref_lines = List.map (fun r -> (r, ref_lines machine trips r)) refs in
  let line_bytes = float_of_int machine.Machine.l1.Machine.line_bytes in
  let footprints =
    Array.init (n + 1) (fun d ->
        List.fold_left
          (fun acc (_, lines) -> acc +. (lines.(d) *. line_bytes))
          0.0 ref_lines)
  in
  { ref_lines; footprints }

(* Miss lines brought into a cache of [capacity] bytes: the distinct
   lines of each reference, re-streamed across every outer loop the
   reference does not depend on whenever the working set inside that
   loop exceeds the cache. *)
let miss_lines tables trips ~capacity =
  let n = Array.length trips in
  (* fits.(d): working set of loops d..n-1 fits comfortably. *)
  let fits =
    Array.init (n + 1) (fun d ->
        tables.footprints.(d) <= fit_fraction *. float_of_int capacity)
  in
  List.map
    (fun (r, lines) ->
      let base = lines.(0) in
      let factor = ref 1.0 in
      for d = 0 to n - 1 do
        if (not r.deps.(d)) && not fits.(d + 1) then
          factor := !factor *. float_of_int trips.(d)
      done;
      (r, base *. !factor))
    tables.ref_lines

(* A reference whose innermost-varying traversal is last-dim contiguous
   benefits from hardware prefetching. *)
let is_streaming (r : ref_info) =
  let nd = Array.length r.idx in
  if nd = 0 then true
  else
    let last = r.idx.(nd - 1) in
    let max_step = r.const_spread.(nd - 1) + 1 in
    Array.exists (fun c -> abs c >= 1 && abs c <= max_step) last.Affine.coeffs

let flops_of_body (nest : Loop_nest.t) =
  let rec count (e : Loop_nest.sexpr) =
    match e with
    | Loop_nest.Load _ | Loop_nest.Const _ -> 0
    | Loop_nest.Binop (_, a, b) -> 1 + count a + count b
    | Loop_nest.Unop (_, a) -> 1 + count a
  in
  List.fold_left
    (fun acc (Loop_nest.Store (_, e)) -> acc + count e)
    0 nest.Loop_nest.body

let mem_ops_of_body (nest : Loop_nest.t) =
  List.length (Loop_nest.loads_of_body nest)
  + List.length (Loop_nest.stores_of_body nest)

(* Flat element stride of [r] when loop [d] advances by one. *)
let stride_wrt (r : ref_info) d =
  let nd = Array.length r.shape in
  let strides = Array.make nd 1 in
  for i = nd - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * r.shape.(i + 1)
  done;
  let s = ref 0 in
  Array.iteri
    (fun i (e : Affine.expr) -> s := !s + (e.coeffs.(d) * strides.(i)))
    r.idx;
  !s

let estimate ~machine ~(iter_kinds : Linalg.iter_kind array)
    ?(packing_elements = 0) (nest : Loop_nest.t) =
  let open Machine in
  let n = Loop_nest.n_loops nest in
  let trips = Loop_nest.trip_counts nest in
  let total_iters =
    Array.fold_left (fun acc t -> acc *. float_of_int t) 1.0 trips
  in
  let refs = gather_refs nest in
  (* --- vectorization --- *)
  let vectorized = n > 0 && nest.loops.(n - 1).Loop_nest.kind = Loop_nest.Vector in
  let vec_trip = if n > 0 then trips.(n - 1) else 1 in
  let contiguous =
    (not vectorized)
    || List.for_all
         (fun r ->
           if not r.deps.(n - 1) then true
           else abs (stride_wrt r (n - 1)) <= 1)
         refs
  in
  let vec_eff =
    if not vectorized then 0.0
    else
      let lane_fill =
        Float.min 1.0
          (float_of_int vec_trip /. float_of_int machine.vector_lanes)
      in
      lane_fill *. if contiguous then 1.0 else 0.3
  in
  (* --- issue model --- *)
  let flops = float_of_int (flops_of_body nest) in
  let mem_ops =
    if not vectorized then float_of_int (mem_ops_of_body nest)
    else begin
      (* Vectorized code hoists loop-invariant operands out of the vector
         loop, and keeps the accumulator in registers across an adjacent
         inner reduction loop (unroll-and-jam). *)
      let stores = Loop_nest.stores_of_body nest in
      let store_bufs =
        List.map (fun (r : Loop_nest.mem_ref) -> r.Loop_nest.buf) stores
      in
      let dep_on (r : Loop_nest.mem_ref) d =
        Array.exists (fun (e : Affine.expr) -> e.coeffs.(d) <> 0) r.idx
      in
      let reduction_at d =
        d >= 0
        &&
        let origin = nest.loops.(d).Loop_nest.origin in
        origin < Array.length iter_kinds
        && iter_kinds.(origin) = Linalg.Reduction_iter
      in
      let cost_of (r : Loop_nest.mem_ref) =
        if not (dep_on r (n - 1)) then 1.0 /. float_of_int vec_trip
        else if
          List.mem r.Loop_nest.buf store_bufs
          && n >= 2
          && reduction_at (n - 2)
          && not (dep_on r (n - 2))
        then 1.0 /. float_of_int trips.(n - 2)
        else 1.0
      in
      List.fold_left
        (fun acc r -> acc +. cost_of r)
        0.0
        (Loop_nest.loads_of_body nest @ stores)
    end
  in
  let flop_rate =
    if vectorized then Float.max machine.scalar_flops_per_cycle
        (machine.vector_flops_per_cycle *. vec_eff)
    else machine.scalar_flops_per_cycle
  in
  let load_rate =
    float_of_int machine.load_ports
    *.
    if vectorized then Float.max 1.0 (float_of_int machine.vector_lanes *. vec_eff)
    else 1.0
  in
  let issue = Float.max (flops /. flop_rate) (mem_ops /. load_rate) in
  (* Loop-carried reduction chain: innermost loop iterating a reduction
     dim serializes the accumulator updates. *)
  let innermost_is_reduction =
    n > 0
    &&
    let origin = nest.loops.(n - 1).Loop_nest.origin in
    origin < Array.length iter_kinds
    && iter_kinds.(origin) = Linalg.Reduction_iter
  in
  (* Body replication from unrolling: several stores to the same ref
     mean the accumulator is register-promoted across the unrolled copies
     (one memory round-trip per iteration instead of one per copy). *)
  let replication =
    let stores = Loop_nest.stores_of_body nest in
    let distinct =
      List.sort_uniq compare
        (List.map
           (fun (r : Loop_nest.mem_ref) ->
             ( r.Loop_nest.buf,
               Array.map (fun (e : Affine.expr) -> (e.coeffs, e.const)) r.idx ))
           stores)
    in
    max 1 (List.length stores / max 1 (List.length distinct))
  in
  let chain =
    if innermost_is_reduction && flops > 0.0 then
      if vectorized then
        (* The vectorizer promotes the accumulator to a vector register;
           the carried dependence costs one FMA latency per vector. *)
        machine.fma_latency_cycles /. float_of_int machine.vector_lanes
      else
        (* Unvectorized structured-op code round-trips the accumulator
           through memory every iteration: load-to-use plus FMA plus
           store-to-load forwarding serialize. Unrolled copies keep the
           accumulator in a register between them. *)
        (machine.fma_latency_cycles *. float_of_int replication)
        +. (2.0 *. machine.l1.latency_cycles)
    else 0.0
  in
  let overhead =
    scalar_loop_overhead_cycles
    /. if vectorized then Float.max 1.0 (float_of_int machine.vector_lanes *. vec_eff)
       else 1.0
  in
  let cycles_per_iter = Float.max issue chain +. overhead in
  let compute_cycles = total_iters *. cycles_per_iter in
  (* --- memory hierarchy traffic --- *)
  let tables = reuse_tables machine refs trips in
  let charge ~capacity ~next_latency =
    let per_ref = miss_lines tables trips ~capacity in
    List.fold_left
      (fun (lines, cycles) (r, l) ->
        let discount = if is_streaming r then prefetch_discount else 1.0 in
        (lines +. l, cycles +. (l *. next_latency *. discount)))
      (0.0, 0.0) per_ref
  in
  let l1_lines, l1_cycles =
    charge ~capacity:machine.l1.size_bytes
      ~next_latency:machine.l2.latency_cycles
  in
  let l2_lines, l2_cycles =
    charge ~capacity:machine.l2.size_bytes
      ~next_latency:machine.l3.latency_cycles
  in
  let l3_lines, l3_cycles =
    charge ~capacity:machine.l3.size_bytes
      ~next_latency:machine.mem_latency_cycles
  in
  (* Streaming DRAM floor: bytes cannot move faster than bandwidth. *)
  let mem_bytes = l3_lines *. float_of_int machine.l1.line_bytes in
  let freq = machine.freq_ghz *. 1e9 in
  let mem_seconds_lat = l3_cycles /. freq in
  let mem_seconds_bw = mem_bytes /. (machine.single_core_bw_gbs *. 1e9) in
  let mem_seconds_single = Float.max mem_seconds_lat mem_seconds_bw in
  let cache_cycles = l1_cycles +. l2_cycles in
  (* --- parallelism --- *)
  let par_iters =
    Array.fold_left
      (fun acc (l : Loop_nest.loop) ->
        if l.Loop_nest.kind = Loop_nest.Parallel then acc * l.Loop_nest.ub
        else acc)
      1 nest.loops
  in
  let first_parallel =
    let rec find i =
      if i >= n then None
      else if nest.loops.(i).Loop_nest.kind = Loop_nest.Parallel then Some i
      else find (i + 1)
    in
    find 0
  in
  let launches =
    match first_parallel with
    | None -> 0
    | Some p ->
        let acc = ref 1 in
        for d = 0 to p - 1 do
          acc := !acc * trips.(d)
        done;
        !acc
  in
  let parallel_factor =
    if par_iters <= 1 then 1.0
    else begin
      let workers = min machine.cores par_iters in
      let chunks = (par_iters + workers - 1) / workers in
      let imbalance =
        float_of_int par_iters /. float_of_int (chunks * workers)
      in
      Float.max 1.0
        (float_of_int workers *. imbalance *. machine.parallel_efficiency)
    end
  in
  let bw_scale =
    Float.min parallel_factor (machine.total_bw_gbs /. machine.single_core_bw_gbs)
  in
  let core_seconds = (compute_cycles +. cache_cycles) /. freq /. parallel_factor in
  let mem_seconds = mem_seconds_single /. Float.max 1.0 bw_scale in
  let launch_seconds =
    float_of_int launches *. machine.parallel_launch_cycles /. freq
  in
  (* --- im2col packing: one streamed copy pass over M*K elements --- *)
  let packing_seconds =
    if packing_elements = 0 then 0.0
    else
      let bytes = float_of_int (packing_elements * machine.elem_bytes) in
      Float.max
        (2.0 *. bytes /. (machine.single_core_bw_gbs *. 1e9))
        (float_of_int packing_elements *. 1.0 /. freq)
  in
  let seconds = core_seconds +. mem_seconds +. launch_seconds +. packing_seconds in
  {
    Cost_model.seconds;
    compute_cycles;
    traffic =
      [
        { Cost_model.level = "l1"; miss_lines = l1_lines; cycles = l1_cycles };
        { Cost_model.level = "l2"; miss_lines = l2_lines; cycles = l2_cycles };
        { Cost_model.level = "l3"; miss_lines = l3_lines; cycles = l3_cycles };
      ];
    parallel_factor;
    launches;
    packing_seconds;
    vectorized;
    vector_efficiency = vec_eff;
  }

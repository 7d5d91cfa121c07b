type level_traffic = { level : string; miss_lines : float; cycles : float }

type report = {
  seconds : float;
  compute_cycles : float;
  traffic : level_traffic list;
  parallel_factor : float;
  launches : int;
  packing_seconds : float;
  vectorized : bool;
  vector_efficiency : float;
}

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
type group = {
  shape : int array;
  idx : Affine.expr array;  (* the first occurrence's subscripts *)
  deps : bool array;  (* per loop: does the subscript use it? *)
  lo : int array;  (* min constant per array dim *)
  hi : int array;  (* max constant per array dim *)
}

let spread g d = g.hi.(d) - g.lo.(d)

(* What one walk of the body gathers: the reference groups, the body's
   memory operations and flops, and — when the innermost loop is a
   vector loop — the vectorized issue cost of its references, summed in
   walk order. Vectorized code hoists loop-invariant operands out of the
   vector loop, and keeps the accumulator in registers across an
   adjacent inner reduction loop (unroll-and-jam). *)
type body = {
  nest : Loop_nest.t;
  (* Keyed by (buffer, coefficients); the fold order of this table fixes
     the group order, and with it the float sums over groups. *)
  groups : (string * int array array, group) Hashtbl.t;
  mutable mem_ops : int;  (* loads + stores *)
  mutable flops : int;
  vectorized : bool;
  vec_trip : int;
  (* The loop outside the vector loop iterates a reduction dim: an
     accumulator stored by the body stays in a register across it. *)
  outer_reduction : bool;
  outer_trip : int;
  vector_cost : float array;
      (* one cell: a mutable float field of this record would box on
         every add *)
}

let new_group nest (r : Loop_nest.mem_ref) =
  let n = Loop_nest.n_loops nest in
  let deps = Array.make n false in
  for i = 0 to Array.length r.idx - 1 do
    for d = 0 to n - 1 do
      if r.idx.(i).Affine.coeffs.(d) <> 0 then deps.(d) <- true
    done
  done;
  let consts = Array.map (fun (e : Affine.expr) -> e.const) r.idx in
  {
    shape = Loop_nest.buffer_shape nest r.buf;
    idx = r.idx;
    deps;
    lo = consts;
    hi = Array.copy consts;
  }

(* Loads are walked before stores, each in body order, as the group
   order and the vectorized cost sum require. *)
let add_ref b (r : Loop_nest.mem_ref) =
  b.mem_ops <- b.mem_ops + 1;
  let key = (r.buf, Array.map (fun (e : Affine.expr) -> e.coeffs) r.idx) in
  let g =
    match Hashtbl.find_opt b.groups key with
    | Some g ->
        for d = 0 to Array.length r.idx - 1 do
          let c = r.idx.(d).Affine.const in
          if c < g.lo.(d) then g.lo.(d) <- c;
          if c > g.hi.(d) then g.hi.(d) <- c
        done;
        g
    | None ->
        let g = new_group b.nest r in
        Hashtbl.replace b.groups key g;
        g
  in
  if b.vectorized then begin
    let n = Array.length g.deps in
    b.vector_cost.(0) <-
      b.vector_cost.(0)
      +.
      if not g.deps.(n - 1) then 1.0 /. float_of_int b.vec_trip
      else if
        b.outer_reduction
        && (not g.deps.(n - 2))
        && List.exists
             (fun (Loop_nest.Store (s, _)) -> s.Loop_nest.buf = r.buf)
             b.nest.Loop_nest.body
      then 1.0 /. float_of_int b.outer_trip
      else 1.0
  end

let rec walk_loads b (e : Loop_nest.sexpr) =
  match e with
  | Loop_nest.Load r -> add_ref b r
  | Loop_nest.Const _ -> ()
  | Loop_nest.Binop (_, x, y) ->
      b.flops <- b.flops + 1;
      walk_loads b x;
      walk_loads b y
  | Loop_nest.Unop (_, x) ->
      b.flops <- b.flops + 1;
      walk_loads b x

(* Distinct stores: by buffer and subscripts, coefficients and
   constants both. *)
let rec distinct_stores = function
  | [] -> 0
  | Loop_nest.Store (r, _) :: rest ->
      let repeated = List.exists (fun (Loop_nest.Store (r', _)) -> r' = r) rest in
      (if repeated then 0 else 1) + distinct_stores rest

(* Distinct lines of [g] at every region depth (loops depth..n-1
   iterating, the others fixed), each depth's bytes added to
   [footprints.(depth)], and the whole nest's lines (depth 0) returned
   in [base.(i)]. One innermost-first sweep keeps, per array dim, the
   bounding-box extent of the region as a running integer sum over the
   loops; integer sums are exact, so this is bit-identical to
   recomputing every depth from scratch, and the footprint sums add the
   groups in group order. The last array dim is dense, enabling spatial
   line reuse, when some region loop steps it by at most the group's
   constant spread plus one: offsets {0..s} every c elements cover it
   whenever |c| <= s + 1 (e.g. plain unit stride, or an 8-way unrolled
   stride-8 access). *)
let add_lines machine trips ~line_bytes footprints base i g =
  let n = Array.length trips in
  let nd = Array.length g.shape in
  if nd = 0 then begin
    for depth = 0 to n do
      footprints.(depth) <- footprints.(depth) +. (1.0 *. line_bytes)
    done;
    base.(i) <- 1.0
  end
  else begin
    let elems_per_line =
      machine.Machine.l1.Machine.line_bytes / machine.Machine.elem_bytes
    in
    let last = nd - 1 in
    let max_step = spread g last + 1 in
    let ext = Array.init nd (fun d -> 1 + spread g d) in
    let dense = ref false in
    for depth = n downto 0 do
      if depth < n then begin
        for d = 0 to last do
          ext.(d) <-
            ext.(d) + (abs g.idx.(d).Affine.coeffs.(depth) * (trips.(depth) - 1))
        done;
        let c = abs g.idx.(last).Affine.coeffs.(depth) in
        if c >= 1 && c <= max_step then dense := true
      end;
      let last_extent = Int.min ext.(last) g.shape.(last) in
      let last_lines =
        if !dense then
          float_of_int ((last_extent + elems_per_line - 1) / elems_per_line)
        else float_of_int last_extent
      in
      let other = ref 1.0 in
      for d = 0 to last - 1 do
        other := !other *. float_of_int (Int.min ext.(d) g.shape.(d))
      done;
      let lines = Float.max 1.0 (!other *. last_lines) in
      footprints.(depth) <- footprints.(depth) +. (lines *. line_bytes);
      if depth = 0 then base.(i) <- lines
    done
  end

(* A reference whose innermost-varying traversal is last-dim contiguous
   benefits from hardware prefetching. *)
let is_streaming g =
  let nd = Array.length g.idx in
  nd = 0
  ||
  let max_step = spread g (nd - 1) + 1 in
  Array.exists
    (fun c -> abs c >= 1 && abs c <= max_step)
    g.idx.(nd - 1).Affine.coeffs

(* Miss lines brought into a cache of [capacity] bytes, and the cycles
   they cost: the distinct lines of each group, re-streamed across every
   outer loop the group does not depend on whenever the working set
   inside that loop exceeds the cache; summed in group order into
   [out.(k)] and [out.(k + 1)]. *)
let charge groups base footprints trips ~capacity ~next_latency out k =
  let n = Array.length trips in
  let limit = fit_fraction *. float_of_int capacity in
  let lines = ref 0.0 and cycles = ref 0.0 in
  for i = 0 to Array.length groups - 1 do
    let g = groups.(i) in
    let factor = ref 1.0 in
    for d = 0 to n - 1 do
      (* the working set of loops d+1..n-1 does not fit comfortably *)
      if (not g.deps.(d)) && not (footprints.(d + 1) <= limit) then
        factor := !factor *. float_of_int trips.(d)
    done;
    let l = base.(i) *. !factor in
    let discount = if is_streaming g then prefetch_discount else 1.0 in
    lines := !lines +. l;
    cycles := !cycles +. (l *. next_latency *. discount)
  done;
  out.(k) <- !lines;
  out.(k + 1) <- !cycles

(* Flat element stride of [g] when loop [d] advances by one. *)
let stride_wrt g d =
  let s = ref 0 and stride = ref 1 in
  for i = Array.length g.shape - 1 downto 0 do
    s := !s + (g.idx.(i).Affine.coeffs.(d) * !stride);
    stride := !stride * g.shape.(i)
  done;
  !s

let estimate ~machine ~(iter_kinds : Linalg.iter_kind array)
    ?(packing_elements = 0) (nest : Loop_nest.t) =
  let open Machine in
  let n = Loop_nest.n_loops nest in
  let trips = Loop_nest.trip_counts nest in
  let total_iters = ref 1.0 in
  for d = 0 to n - 1 do
    total_iters := !total_iters *. float_of_int trips.(d)
  done;
  let total_iters = !total_iters in
  let reduction_at d =
    let origin = nest.loops.(d).Loop_nest.origin in
    origin < Array.length iter_kinds
    && iter_kinds.(origin) = Linalg.Reduction_iter
  in
  (* --- one walk of the body: loads, then stores --- *)
  let vectorized = n > 0 && nest.loops.(n - 1).Loop_nest.kind = Loop_nest.Vector in
  let vec_trip = if n > 0 then trips.(n - 1) else 1 in
  let body =
    {
      nest;
      groups = Hashtbl.create 16;
      mem_ops = 0;
      flops = 0;
      vectorized;
      vec_trip;
      outer_reduction = vectorized && n >= 2 && reduction_at (n - 2);
      outer_trip = (if n >= 2 then trips.(n - 2) else 1);
      vector_cost = [| 0.0 |];
    }
  in
  List.iter (fun (Loop_nest.Store (_, e)) -> walk_loads body e) nest.body;
  List.iter (fun (Loop_nest.Store (r, _)) -> add_ref body r) nest.body;
  let groups =
    Array.of_list (Hashtbl.fold (fun _ g acc -> g :: acc) body.groups [])
  in
  (* --- vectorization --- *)
  let contiguous =
    (not vectorized)
    || Array.for_all
         (fun g -> (not g.deps.(n - 1)) || abs (stride_wrt g (n - 1)) <= 1)
         groups
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
  let flops = float_of_int body.flops in
  let mem_ops =
    if vectorized then body.vector_cost.(0) else float_of_int body.mem_ops
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
  let innermost_is_reduction = n > 0 && reduction_at (n - 1) in
  (* Body replication from unrolling: several stores to the same ref
     mean the accumulator is register-promoted across the unrolled copies
     (one memory round-trip per iteration instead of one per copy). *)
  let replication =
    Int.max 1 (List.length nest.body / Int.max 1 (distinct_stores nest.body))
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
  let line_bytes = float_of_int machine.l1.line_bytes in
  let footprints = Array.make (n + 1) 0.0 in
  let base = Array.make (Array.length groups) 0.0 in
  Array.iteri (add_lines machine trips ~line_bytes footprints base) groups;
  let traffic = Array.make 6 0.0 in
  charge groups base footprints trips ~capacity:machine.l1.size_bytes
    ~next_latency:machine.l2.latency_cycles traffic 0;
  charge groups base footprints trips ~capacity:machine.l2.size_bytes
    ~next_latency:machine.l3.latency_cycles traffic 2;
  charge groups base footprints trips ~capacity:machine.l3.size_bytes
    ~next_latency:machine.mem_latency_cycles traffic 4;
  let l1_lines = traffic.(0) and l1_cycles = traffic.(1) in
  let l2_lines = traffic.(2) and l2_cycles = traffic.(3) in
  let l3_lines = traffic.(4) and l3_cycles = traffic.(5) in
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
      let workers = Int.min machine.cores par_iters in
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
    seconds;
    compute_cycles;
    traffic =
      [
        { level = "l1"; miss_lines = l1_lines; cycles = l1_cycles };
        { level = "l2"; miss_lines = l2_lines; cycles = l2_cycles };
        { level = "l3"; miss_lines = l3_lines; cycles = l3_cycles };
      ];
    parallel_factor;
    launches;
    packing_seconds;
    vectorized;
    vector_efficiency = vec_eff;
  }

let seconds ~machine ~iter_kinds ?packing_elements nest =
  (estimate ~machine ~iter_kinds ?packing_elements nest).seconds

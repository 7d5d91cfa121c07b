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

(* [Float.max] and [Float.min] without their [caml_signbit] calls when
   the operands are ordered or equal and non-zero; equal zeros and NaNs
   still go through them, so the result is theirs on every input. *)
let[@inline] fmax (x : float) y =
  if x > y then x
  else if y > x then y
  else if x = y && x <> 0.0 then x
  else Float.max x y

let[@inline] fmin (x : float) y =
  if x < y then x
  else if y < x then y
  else if x = y && x <> 0.0 then x
  else Float.min x y

(* A deduplicated memory reference of the nest body. References that
   share coefficient structure and differ only in constant offsets
   (unrolled copies, neighbouring stencil taps) are merged: their
   footprints overlap almost entirely, so we keep one representative and
   fold the constant spread into the per-dimension extents. *)
type group = {
  buf : string;
  shape : int array;
  idx : Affine.expr array;  (* the first occurrence's subscripts *)
  deps : bool array;  (* per loop: does the subscript use it? *)
  lo : int array;  (* min constant per array dim *)
  hi : int array;  (* max constant per array dim *)
  hash : int;  (* [Hashtbl.hash (buf, coefficient arrays)]: see [order_groups] *)
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
  mutable groups : group array;  (* the first [count], in first-occurrence order *)
  mutable count : int;
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

(* A group's key is its buffer and the coefficient arrays of its
   subscripts; two keys are equal when the polymorphic compare of
   [(buf, coefficient arrays)] says so. *)
let rec same_ints (a : int array) (b : int array) i =
  i = Array.length a || (a.(i) = b.(i) && same_ints a b (i + 1))

let rec same_coeffs (a : Affine.expr array) (b : Affine.expr array) d =
  d = Array.length a
  ||
  let ca = a.(d).Affine.coeffs and cb = b.(d).Affine.coeffs in
  (ca == cb || (Array.length ca = Array.length cb && same_ints ca cb 0))
  && same_coeffs a b (d + 1)

let rec find_group b (r : Loop_nest.mem_ref) i =
  if i = b.count then -1
  else
    let g = b.groups.(i) in
    if
      String.equal g.buf r.buf
      && Array.length g.idx = Array.length r.idx
      && same_coeffs g.idx r.idx 0
    then i
    else find_group b r (i + 1)

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
    buf = r.buf;
    shape = Loop_nest.buffer_shape nest r.buf;
    idx = r.idx;
    deps;
    lo = consts;
    hi = Array.copy consts;
    hash = Hashtbl.hash (r.buf, Array.map (fun (e : Affine.expr) -> e.coeffs) r.idx);
  }

let push_group b g =
  let len = Array.length b.groups in
  if b.count = len then begin
    let grown = Array.make (Int.max 4 (2 * len)) g in
    Array.blit b.groups 0 grown 0 len;
    b.groups <- grown
  end;
  b.groups.(b.count) <- g;
  b.count <- b.count + 1

let rec stores_into buf = function
  | [] -> false
  | Loop_nest.Store (s, _) :: rest -> String.equal s.Loop_nest.buf buf || stores_into buf rest

let add_ref b (r : Loop_nest.mem_ref) =
  b.mem_ops <- b.mem_ops + 1;
  let i = find_group b r 0 in
  let g =
    if i >= 0 then begin
      let g = b.groups.(i) in
      for d = 0 to Array.length r.idx - 1 do
        let c = r.idx.(d).Affine.const in
        if c < g.lo.(d) then g.lo.(d) <- c;
        if c > g.hi.(d) then g.hi.(d) <- c
      done;
      g
    end
    else begin
      let g = new_group b.nest r in
      push_group b g;
      g
    end
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
        && stores_into r.buf b.nest.Loop_nest.body
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

let rec walk_stored b = function
  | [] -> ()
  | Loop_nest.Store (_, e) :: rest ->
      walk_loads b e;
      walk_stored b rest

let rec walk_stores b = function
  | [] -> ()
  | Loop_nest.Store (r, _) :: rest ->
      add_ref b r;
      walk_stores b rest

(* Loads are walked before stores, each in body order, as the group
   order and the vectorized cost sum require. *)
let walk_body b stmts =
  walk_stored b stmts;
  walk_stores b stmts

(* The group order fixes the float sums over groups, so it is part of
   every price. It is the order in which a [Hashtbl.create ~random:false
   16] keyed by (buffer, coefficient arrays) folds the groups into a
   list: by bucket [hash land (size - 1)] from the highest bucket down,
   and by first occurrence within a bucket, where [size] starts at 16
   and doubles while the group count exceeds twice it. A stable
   insertion sort by bucket gives it from first-occurrence order; each
   key is hashed once, with the unseeded hash, so the order does not
   depend on OCAMLRUNPARAM's [R] flag. *)
let order_groups groups count =
  let size = ref 16 in
  while count > 2 * !size do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  for i = 1 to count - 1 do
    let g = groups.(i) in
    let bucket = g.hash land mask in
    let j = ref (i - 1) in
    while !j >= 0 && groups.(!j).hash land mask < bucket do
      groups.(!j + 1) <- groups.(!j);
      decr j
    done;
    groups.(!j + 1) <- g
  done

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
   loops in [ext]; integer sums are exact, so this is bit-identical to
   recomputing every depth from scratch, and the footprint sums add the
   groups in group order. The last array dim is dense, enabling spatial
   line reuse, when some region loop steps it by at most the group's
   constant spread plus one: offsets {0..s} every c elements cover it
   whenever |c| <= s + 1 (e.g. plain unit stride, or an 8-way unrolled
   stride-8 access). A group dense over the whole nest, or one of rank
   0, is a hardware-prefetched stream: [discount.(i)] gets its latency
   multiplier. *)
let add_lines ~elems_per_line ~line_bytes trips footprints base discount ext i g =
  let n = Array.length trips in
  let nd = Array.length g.shape in
  if nd = 0 then begin
    for depth = 0 to n do
      footprints.(depth) <- footprints.(depth) +. (1.0 *. line_bytes)
    done;
    base.(i) <- 1.0;
    discount.(i) <- prefetch_discount
  end
  else begin
    let last = nd - 1 in
    let max_step = spread g last + 1 in
    for d = 0 to last do
      ext.(d) <- 1 + spread g d
    done;
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
      let lines = fmax 1.0 (!other *. last_lines) in
      footprints.(depth) <- footprints.(depth) +. (lines *. line_bytes);
      if depth = 0 then base.(i) <- lines
    done;
    discount.(i) <- (if !dense then prefetch_discount else 1.0)
  end

(* Miss lines brought into L1, L2 and L3, and the cycles they cost: the
   distinct lines of each group, re-streamed across every outer loop the
   group does not depend on whenever the working set inside that loop
   exceeds the level's cache; summed in group order into [out.(0..5)],
   lines then cycles per level. *)
let charge (machine : Machine.t) groups count base discount footprints trips out =
  let n = Array.length trips in
  let limit (c : Machine.cache) = fit_fraction *. float_of_int c.Machine.size_bytes in
  let limit1 = limit machine.l1 and limit2 = limit machine.l2 in
  let limit3 = limit machine.l3 in
  let lat1 = machine.l2.latency_cycles and lat2 = machine.l3.latency_cycles in
  let lat3 = machine.mem_latency_cycles in
  for i = 0 to count - 1 do
    let deps = groups.(i).deps in
    let f1 = ref 1.0 and f2 = ref 1.0 and f3 = ref 1.0 in
    for d = 0 to n - 1 do
      (* the working set of loops d+1..n-1 does not fit comfortably *)
      if not deps.(d) then begin
        let fp = footprints.(d + 1) and trip = float_of_int trips.(d) in
        if not (fp <= limit1) then f1 := !f1 *. trip;
        if not (fp <= limit2) then f2 := !f2 *. trip;
        if not (fp <= limit3) then f3 := !f3 *. trip
      end
    done;
    let lines = base.(i) and disc = discount.(i) in
    let l1 = lines *. !f1 and l2 = lines *. !f2 and l3 = lines *. !f3 in
    out.(0) <- out.(0) +. l1;
    out.(1) <- out.(1) +. (l1 *. lat1 *. disc);
    out.(2) <- out.(2) +. l2;
    out.(3) <- out.(3) +. (l2 *. lat2 *. disc);
    out.(4) <- out.(4) +. l3;
    out.(5) <- out.(5) +. (l3 *. lat3 *. disc)
  done

(* Flat element stride of [g] when loop [d] advances by one. *)
let stride_wrt g d =
  let s = ref 0 and stride = ref 1 in
  for i = Array.length g.shape - 1 downto 0 do
    s := !s + (g.idx.(i).Affine.coeffs.(d) * !stride);
    stride := !stride * g.shape.(i)
  done;
  !s

let reduction_at ~(iter_kinds : Linalg.iter_kind array) (nest : Loop_nest.t) d =
  let origin = nest.loops.(d).Loop_nest.origin in
  origin < Array.length iter_kinds && iter_kinds.(origin) = Linalg.Reduction_iter

(* Parallel-region forks: the iterations of the loops outside the first
   parallel loop, 0 without one. *)
let rec launches_from (loops : Loop_nest.loop array) d acc =
  if d = Array.length loops then 0
  else if loops.(d).Loop_nest.kind = Loop_nest.Parallel then acc
  else launches_from loops (d + 1) (acc * loops.(d).Loop_nest.ub)

(* The cells of [price]'s [out] after the six traffic cells. *)
let out_compute = 6
let out_parallel = 7
let out_packing = 8
let out_vec_eff = 9
let out_cells = 10

(* The one pricing path of [estimate] and [seconds]: returns the
   seconds, and leaves the other report numbers in [out]. *)
let price ~(machine : Machine.t) ~iter_kinds ~packing_elements
    (nest : Loop_nest.t) out =
  let n = Loop_nest.n_loops nest in
  let trips = Loop_nest.trip_counts nest in
  let total_iters = ref 1.0 in
  for d = 0 to n - 1 do
    total_iters := !total_iters *. float_of_int trips.(d)
  done;
  let total_iters = !total_iters in
  (* --- one walk of the body: loads, then stores --- *)
  let vectorized = n > 0 && nest.loops.(n - 1).Loop_nest.kind = Loop_nest.Vector in
  let vec_trip = if n > 0 then trips.(n - 1) else 1 in
  let body =
    {
      nest;
      groups = [||];
      count = 0;
      mem_ops = 0;
      flops = 0;
      vectorized;
      vec_trip;
      outer_reduction = vectorized && n >= 2 && reduction_at ~iter_kinds nest (n - 2);
      outer_trip = (if n >= 2 then trips.(n - 2) else 1);
      vector_cost = [| 0.0 |];
    }
  in
  walk_body body nest.body;
  let groups = body.groups and count = body.count in
  order_groups groups count;
  (* --- vectorization --- *)
  let contiguous = ref true in
  if vectorized then
    for i = 0 to count - 1 do
      let g = groups.(i) in
      if g.deps.(n - 1) && abs (stride_wrt g (n - 1)) > 1 then contiguous := false
    done;
  let vec_eff =
    if not vectorized then 0.0
    else
      let lane_fill =
        fmin 1.0 (float_of_int vec_trip /. float_of_int machine.vector_lanes)
      in
      lane_fill *. if !contiguous then 1.0 else 0.3
  in
  (* --- issue model --- *)
  let flops = float_of_int body.flops in
  let mem_ops =
    if vectorized then body.vector_cost.(0) else float_of_int body.mem_ops
  in
  let flop_rate =
    if vectorized then
      fmax machine.scalar_flops_per_cycle (machine.vector_flops_per_cycle *. vec_eff)
    else machine.scalar_flops_per_cycle
  in
  let load_rate =
    float_of_int machine.load_ports
    *.
    if vectorized then fmax 1.0 (float_of_int machine.vector_lanes *. vec_eff)
    else 1.0
  in
  let issue = fmax (flops /. flop_rate) (mem_ops /. load_rate) in
  (* Loop-carried reduction chain: innermost loop iterating a reduction
     dim serializes the accumulator updates. *)
  let innermost_is_reduction = n > 0 && reduction_at ~iter_kinds nest (n - 1) in
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
           accumulator in a register between them: several stores to
           the same ref mean it is register-promoted across the unrolled
           copies (one memory round-trip per iteration instead of one
           per copy). *)
        let replication =
          Int.max 1
            (List.length nest.body / Int.max 1 (distinct_stores nest.body))
        in
        (machine.fma_latency_cycles *. float_of_int replication)
        +. (2.0 *. machine.l1.latency_cycles)
    else 0.0
  in
  let overhead =
    scalar_loop_overhead_cycles
    /. if vectorized then fmax 1.0 (float_of_int machine.vector_lanes *. vec_eff)
       else 1.0
  in
  let cycles_per_iter = fmax issue chain +. overhead in
  let compute_cycles = total_iters *. cycles_per_iter in
  (* --- memory hierarchy traffic --- *)
  let line_bytes = float_of_int machine.l1.line_bytes in
  let elems_per_line = machine.l1.line_bytes / machine.elem_bytes in
  let footprints = Array.make (n + 1) 0.0 in
  let base = Array.make count 0.0 and discount = Array.make count 0.0 in
  let max_rank = ref 0 in
  for i = 0 to count - 1 do
    max_rank := Int.max !max_rank (Array.length groups.(i).shape)
  done;
  let ext = Array.make !max_rank 0 in
  for i = 0 to count - 1 do
    add_lines ~elems_per_line ~line_bytes trips footprints base discount ext i
      groups.(i)
  done;
  charge machine groups count base discount footprints trips out;
  let l3_lines = out.(4) and l3_cycles = out.(5) in
  (* Streaming DRAM floor: bytes cannot move faster than bandwidth. *)
  let mem_bytes = l3_lines *. float_of_int machine.l1.line_bytes in
  let freq = machine.freq_ghz *. 1e9 in
  let mem_seconds_lat = l3_cycles /. freq in
  let mem_seconds_bw = mem_bytes /. (machine.single_core_bw_gbs *. 1e9) in
  let mem_seconds_single = fmax mem_seconds_lat mem_seconds_bw in
  let cache_cycles = out.(1) +. out.(3) in
  (* --- parallelism --- *)
  let par_iters = ref 1 in
  for d = 0 to n - 1 do
    let l = nest.loops.(d) in
    if l.Loop_nest.kind = Loop_nest.Parallel then par_iters := !par_iters * l.Loop_nest.ub
  done;
  let par_iters = !par_iters in
  let launches = launches_from nest.loops 0 1 in
  let parallel_factor =
    if par_iters <= 1 then 1.0
    else begin
      let workers = Int.min machine.cores par_iters in
      let chunks = (par_iters + workers - 1) / workers in
      let imbalance =
        float_of_int par_iters /. float_of_int (chunks * workers)
      in
      fmax 1.0
        (float_of_int workers *. imbalance *. machine.parallel_efficiency)
    end
  in
  let bw_scale =
    fmin parallel_factor (machine.total_bw_gbs /. machine.single_core_bw_gbs)
  in
  let core_seconds = (compute_cycles +. cache_cycles) /. freq /. parallel_factor in
  let mem_seconds = mem_seconds_single /. fmax 1.0 bw_scale in
  let launch_seconds =
    float_of_int launches *. machine.parallel_launch_cycles /. freq
  in
  (* --- im2col packing: one streamed copy pass over M*K elements --- *)
  let packing_seconds =
    if packing_elements = 0 then 0.0
    else
      let bytes = float_of_int (packing_elements * machine.elem_bytes) in
      fmax
        (2.0 *. bytes /. (machine.single_core_bw_gbs *. 1e9))
        (float_of_int packing_elements *. 1.0 /. freq)
  in
  out.(out_compute) <- compute_cycles;
  out.(out_parallel) <- parallel_factor;
  out.(out_packing) <- packing_seconds;
  out.(out_vec_eff) <- vec_eff;
  core_seconds +. mem_seconds +. launch_seconds +. packing_seconds

let estimate ~machine ~iter_kinds ?(packing_elements = 0) (nest : Loop_nest.t) =
  let out = Array.make out_cells 0.0 in
  let seconds = price ~machine ~iter_kinds ~packing_elements nest out in
  let n = Loop_nest.n_loops nest in
  {
    seconds;
    compute_cycles = out.(out_compute);
    traffic =
      [
        { level = "l1"; miss_lines = out.(0); cycles = out.(1) };
        { level = "l2"; miss_lines = out.(2); cycles = out.(3) };
        { level = "l3"; miss_lines = out.(4); cycles = out.(5) };
      ];
    parallel_factor = out.(out_parallel);
    launches = launches_from nest.loops 0 1;
    packing_seconds = out.(out_packing);
    vectorized = n > 0 && nest.loops.(n - 1).Loop_nest.kind = Loop_nest.Vector;
    vector_efficiency = out.(out_vec_eff);
  }

let seconds ~machine ~iter_kinds ?(packing_elements = 0) nest =
  price ~machine ~iter_kinds ~packing_elements nest (Array.make out_cells 0.0)

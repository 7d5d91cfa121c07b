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

(* --- [Hashtbl.hash] of a group's key, transcribed -------------------

   The group order (see [order_groups]) is the one a table keyed by
   [(buffer, coefficient arrays)] gives, which follows [Hashtbl.hash]
   of that pair. A candidate priced through a column map has no such
   pair, so the hash is computed from the coefficient table instead:
   this is the runtime's MurmurHash3 walk over the pair on a 64-bit
   little-endian runtime, for [Hashtbl.hash]'s limits of ten
   meaningful values and a 100-value queue. It mixes the pair's header,
   the buffer name, the subscript array's header, every coefficient
   array's header and then the first nine coefficients in breadth-first
   (row-major) order, each as its tagged word folded to 32 bits. The
   reference model in test/cost_model_ref.ml keys a real [Hashtbl], so
   the bit-for-bit reference test in [test_perf] holds every price's
   group order to [Hashtbl.hash]. *)

let mask32 = 0xffff_ffff
let[@inline] rotl32 x k = ((x lsl k) lor (x lsr (32 - k))) land mask32

(* MurmurHash3's mix of a 32-bit word [d] into [h], split in two: the
   word's own scramble, and the step that folds a scrambled word in. *)
let[@inline] scramble d = (rotl32 ((d * 0xcc9e2d51) land mask32) 15 * 0x1b873593) land mask32
let[@inline] step h k = ((rotl32 (h lxor k) 13 * 5) + 0xe6546b64) land mask32
let[@inline] mix h d = step h (scramble d)

(* A block of [size] fields with tag 0. *)
let[@inline] header size = scramble (size lsl 10)

(* The int [c] as the word [d = 2c+1] folded as [(d >> 32) ^ (d >> 63) ^ d]. *)
let[@inline] int_word c = ((c asr 31) lxor (c asr 62) lxor ((2 * c) + 1)) land mask32

(* Most coefficients are 0. *)
let scrambled_zero = scramble (int_word 0)

let[@inline] byte s i = Char.code (String.unsafe_get s i)

(* Little-endian 32-bit words, the last one zero-padded, then the
   length. *)
let mix_string h s =
  let len = String.length s in
  let h = ref h and i = ref 0 in
  while !i + 4 <= len do
    h :=
      mix !h
        (byte s !i
        lor (byte s (!i + 1) lsl 8)
        lor (byte s (!i + 2) lsl 16)
        lor (byte s (!i + 3) lsl 24));
    i := !i + 4
  done;
  if len land 3 > 0 then begin
    let w = ref 0 in
    for k = (len land 3) - 1 downto 0 do
      w := (!w lsl 8) lor byte s (!i + k)
    done;
    h := mix !h !w
  end;
  !h lxor (len land mask32)

let final_mix h =
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land mask32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land mask32 in
  h lxor (h lsr 16)

(* The hash state after the pair's header, [buf] and the header of an
   array of [rank] subscripts. *)
let key_prefix buf rank = step (mix_string (step 0 (header 2)) buf) (header rank)

(* --- The walk ---------------------------------------------------------

   One walk of a nest's body, loads in body order and then stores,
   gathers what pricing needs that column maps do not change: the
   reference groups in first-occurrence order, each reference's group
   in walk order, flops and memory operations. A group is a buffer with
   one set of subscript coefficients; references that differ only in
   constant offsets (unrolled copies, neighbouring stencil taps) share
   it, and their constant spread widens its extents. Tiling and
   swapping map distinct coefficient arrays to distinct ones and leave
   constants alone, so a head's walk holds for every candidate after
   it. A walk is read-only once built: every domain pricing candidates
   of one head reads the same walk. *)
type walk = {
  body : Loop_nest.stmt list;  (* for the store-replication count *)
  arity : int;  (* loops of the walked nest *)
  mutable count : int;  (* groups *)
  first : Loop_nest.mem_ref array;  (* per group: its first reference *)
  shape : int array array;  (* per group *)
  stored : bool array;  (* per group: the body stores into its buffer *)
  row0 : int array;
      (* per group and one past the last: group [g]'s subscripts are
         rows [row0.(g)] to [row0.(g+1) - 1] of the coefficient table *)
  lo : int array;  (* per row: min constant *)
  hi : int array;  (* per row: max constant *)
  key : int array;  (* per group: [key_prefix] of its buffer and rank *)
  refs : int array;  (* per reference, in walk order: its group *)
  mutable nrefs : int;  (* loads + stores *)
  mutable flops : int;
}

let weight rows (r : Loop_nest.mem_ref) = if rows then Array.length r.idx else 1

let rec tally_loads rows acc = function
  | Loop_nest.Load r -> acc + weight rows r
  | Loop_nest.Const _ -> acc
  | Loop_nest.Binop (_, x, y) -> tally_loads rows (tally_loads rows acc x) y
  | Loop_nest.Unop (_, x) -> tally_loads rows acc x

(* The body's references ([rows = false]) or their subscripts. *)
let rec tally rows acc = function
  | [] -> acc
  | Loop_nest.Store (r, e) :: rest ->
      tally rows (tally_loads rows (acc + weight rows r) e) rest

(* Two groups are one when the polymorphic compare of
   [(buf, coefficient arrays)] says so. *)
let rec same_ints (a : int array) (b : int array) i =
  i = Array.length a || (a.(i) = b.(i) && same_ints a b (i + 1))

let rec same_coeffs (a : Affine.expr array) (b : Affine.expr array) d =
  d = Array.length a
  ||
  let ca = a.(d).Affine.coeffs and cb = b.(d).Affine.coeffs in
  (ca == cb || (Array.length ca = Array.length cb && same_ints ca cb 0))
  && same_coeffs a b (d + 1)

let rec find_group w (r : Loop_nest.mem_ref) g =
  if g = w.count then -1
  else
    let f = w.first.(g) in
    if
      String.equal f.buf r.buf
      && Array.length f.idx = Array.length r.idx
      && same_coeffs f.idx r.idx 0
    then g
    else find_group w r (g + 1)

let rec stores_into buf = function
  | [] -> false
  | Loop_nest.Store (s, _) :: rest -> String.equal s.Loop_nest.buf buf || stores_into buf rest

let add_ref nest w (r : Loop_nest.mem_ref) =
  let g = find_group w r 0 in
  let g =
    if g >= 0 then begin
      let r0 = w.row0.(g) in
      for d = 0 to Array.length r.idx - 1 do
        let c = r.idx.(d).Affine.const in
        if c < w.lo.(r0 + d) then w.lo.(r0 + d) <- c;
        if c > w.hi.(r0 + d) then w.hi.(r0 + d) <- c
      done;
      g
    end
    else begin
      let g = w.count and rank = Array.length r.idx in
      let r0 = w.row0.(g) in
      w.first.(g) <- r;
      w.shape.(g) <- Loop_nest.buffer_shape nest r.buf;
      w.stored.(g) <- stores_into r.buf w.body;
      w.row0.(g + 1) <- r0 + rank;
      for d = 0 to rank - 1 do
        let c = r.idx.(d).Affine.const in
        w.lo.(r0 + d) <- c;
        w.hi.(r0 + d) <- c
      done;
      w.key.(g) <- key_prefix r.buf rank;
      w.count <- g + 1;
      g
    end
  in
  w.refs.(w.nrefs) <- g;
  w.nrefs <- w.nrefs + 1

let rec walk_loads nest w (e : Loop_nest.sexpr) =
  match e with
  | Loop_nest.Load r -> add_ref nest w r
  | Loop_nest.Const _ -> ()
  | Loop_nest.Binop (_, x, y) ->
      w.flops <- w.flops + 1;
      walk_loads nest w x;
      walk_loads nest w y
  | Loop_nest.Unop (_, x) ->
      w.flops <- w.flops + 1;
      walk_loads nest w x

let rec walk_stored nest w = function
  | [] -> ()
  | Loop_nest.Store (_, e) :: rest ->
      walk_loads nest w e;
      walk_stored nest w rest

let rec walk_stores nest w = function
  | [] -> ()
  | Loop_nest.Store (r, _) :: rest ->
      add_ref nest w r;
      walk_stores nest w rest

let no_ref = { Loop_nest.buf = ""; idx = [||] }

(* Every array is sized by a first count of the body's references and
   their subscripts. *)
let walk (nest : Loop_nest.t) =
  let refs = tally false 0 nest.body and rows = tally true 0 nest.body in
  let w =
    {
      body = nest.body;
      arity = Loop_nest.n_loops nest;
      count = 0;
      first = Array.make refs no_ref;
      shape = Array.make refs [||];
      stored = Array.make refs false;
      row0 = Array.make (refs + 1) 0;
      lo = Array.make rows 0;
      hi = Array.make rows 0;
      key = Array.make refs 0;
      refs = Array.make refs 0;
      nrefs = 0;
      flops = 0;
    }
  in
  walk_stored nest w nest.body;
  walk_stores nest w nest.body;
  w

let spread w row = w.hi.(row) - w.lo.(row)

(* --- The coefficient table ---------------------------------------------

   Pricing reads every group's subscripts from one flat table: row
   [row0.(g) + d] holds subscript [d] of group [g], one column per loop
   of the priced nest, so entry [(row * n) + j] is the coefficient of
   loop [j]. Each domain keeps its own table and pricing buffers; a
   pricing that starts while another holds them (systhreads of one
   domain) gets fresh ones. *)
type scratch = {
  mutable busy : bool;
  mutable table : int array;
  mutable deps : bool array;  (* (g * n) + j: does group [g] use loop [j] *)
  mutable order : int array;  (* the groups in pricing order *)
  mutable bucket : int array;  (* per group *)
  mutable lines : float array;  (* per position in [order] *)
  mutable discount : float array;  (* per position in [order] *)
  mutable footprints : float array;  (* per region depth *)
  mutable ext : int array;  (* per array dim *)
  out : float array;  (* see [out_cells] *)
}

(* The cells of [out] after the six traffic cells. *)
let out_compute = 6
let out_parallel = 7
let out_packing = 8
let out_vec_eff = 9
let out_cells = 10

let fresh_scratch () =
  {
    busy = false;
    table = [||];
    deps = [||];
    order = [||];
    bucket = [||];
    lines = [||];
    discount = [||];
    footprints = [||];
    ext = [||];
    out = Array.make out_cells 0.0;
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* Buffers large enough to price [w] over [n] loops, held until
   [release]. *)
let acquire w n =
  let s = Domain.DLS.get scratch_key in
  let s = if s.busy then fresh_scratch () else s in
  s.busy <- true;
  let rows = w.row0.(w.count) in
  if Array.length s.table < rows * n then
    s.table <- Array.make (Int.max (rows * n) (2 * Array.length s.table)) 0;
  if Array.length s.deps < w.count * n then
    s.deps <- Array.make (Int.max (w.count * n) (2 * Array.length s.deps)) false;
  if Array.length s.order < w.count then begin
    let len = Int.max w.count (2 * Array.length s.order) in
    s.order <- Array.make len 0;
    s.bucket <- Array.make len 0;
    s.lines <- Array.make len 0.0;
    s.discount <- Array.make len 0.0
  end;
  if Array.length s.footprints < n + 1 then
    s.footprints <- Array.make (Int.max (n + 1) (2 * Array.length s.footprints)) 0.0;
  if Array.length s.ext < rows then
    s.ext <- Array.make (Int.max rows (2 * Array.length s.ext)) 0;
  s

let release s = s.busy <- false

(* The table of the walked nest itself. *)
let fill_walked w s =
  let n = w.arity and tbl = s.table and deps = s.deps in
  for g = 0 to w.count - 1 do
    let idx = w.first.(g).Loop_nest.idx and r0 = w.row0.(g) in
    for j = 0 to n - 1 do
      deps.((g * n) + j) <- false
    done;
    for d = 0 to Array.length idx - 1 do
      let c = idx.(d).Affine.coeffs and base = (r0 + d) * n in
      for j = 0 to n - 1 do
        let v = c.(j) in
        tbl.(base + j) <- v;
        if v <> 0 then deps.((g * n) + j) <- true
      done
    done
  done

(* The table of the walked nest's subscripts after [map]. *)
let fill_mapped w s { Loop_transforms.src; factor } =
  let n = Array.length src and tbl = s.table and deps = s.deps in
  for g = 0 to w.count - 1 do
    let idx = w.first.(g).Loop_nest.idx and r0 = w.row0.(g) in
    for j = 0 to n - 1 do
      deps.((g * n) + j) <- false
    done;
    for d = 0 to Array.length idx - 1 do
      let c = idx.(d).Affine.coeffs and base = (r0 + d) * n in
      for j = 0 to n - 1 do
        let v = factor.(j) * c.(src.(j)) in
        tbl.(base + j) <- v;
        if v <> 0 then deps.((g * n) + j) <- true
      done
    done
  done

(* Does a subscript of group [g] use loop [j]? *)
let uses s n g j = s.deps.((g * n) + j)

(* [row_header] is [header n]. *)
let group_hash w tbl n row_header g =
  let r0 = w.row0.(g) and r1 = w.row0.(g + 1) in
  let h = ref w.key.(g) in
  for _ = r0 to r1 - 1 do
    h := step !h row_header
  done;
  for k = r0 * n to Int.min (r1 * n) ((r0 * n) + 9) - 1 do
    let c = tbl.(k) in
    h := step !h (if c = 0 then scrambled_zero else scramble (int_word c))
  done;
  final_mix !h land 0x3fff_ffff

(* The group order fixes the float sums over groups, so it is part of
   every price. It is the order in which a [Hashtbl.create ~random:false
   16] keyed by (buffer, coefficient arrays) folds the groups into a
   list: by bucket [hash land (size - 1)] from the highest bucket down,
   and by first occurrence within a bucket, where [size] starts at 16
   and doubles while the group count exceeds twice it. A stable
   insertion sort of the group indices by bucket gives it from
   first-occurrence order; each key is hashed once, with the unseeded
   hash, so the order does not depend on OCAMLRUNPARAM's [R] flag. *)
let order_groups w tbl n s =
  let count = w.count and order = s.order and bucket = s.bucket in
  let size = ref 16 in
  while count > 2 * !size do
    size := 2 * !size
  done;
  let mask = !size - 1 and row_header = header n in
  for g = 0 to count - 1 do
    bucket.(g) <- group_hash w tbl n row_header g land mask
  done;
  for i = 0 to count - 1 do
    let b = bucket.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && bucket.(order.(!j)) < b do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- i
  done

(* Distinct stores: by buffer and subscripts, coefficients and
   constants both. *)
let rec distinct_stores = function
  | [] -> 0
  | Loop_nest.Store (r, _) :: rest ->
      let repeated = List.exists (fun (Loop_nest.Store (r', _)) -> r' = r) rest in
      (if repeated then 0 else 1) + distinct_stores rest

(* Distinct lines of group [g] at every region depth (loops depth..n-1
   iterating, the others fixed), each depth's bytes added to
   [footprints.(depth)], and the whole nest's lines (depth 0) returned
   in [lines.(i)]. One innermost-first sweep keeps, per array dim, the
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
let add_lines ~elems_per_line ~line_bytes w tbl (loops : Loop_nest.loop array) s i g =
  let n = Array.length loops in
  let footprints = s.footprints and ext = s.ext in
  let shape = w.shape.(g) and r0 = w.row0.(g) in
  let nd = Array.length shape in
  if nd = 0 then begin
    for depth = 0 to n do
      footprints.(depth) <- footprints.(depth) +. (1.0 *. line_bytes)
    done;
    s.lines.(i) <- 1.0;
    s.discount.(i) <- prefetch_discount
  end
  else begin
    let last = nd - 1 in
    let max_step = spread w (r0 + last) + 1 in
    for d = 0 to last do
      ext.(d) <- 1 + spread w (r0 + d)
    done;
    let dense = ref false in
    for depth = n downto 0 do
      if depth < n then begin
        let trip = loops.(depth).Loop_nest.ub in
        for d = 0 to last do
          ext.(d) <- ext.(d) + (abs tbl.(((r0 + d) * n) + depth) * (trip - 1))
        done;
        let c = abs tbl.(((r0 + last) * n) + depth) in
        if c >= 1 && c <= max_step then dense := true
      end;
      let last_extent = Int.min ext.(last) shape.(last) in
      let last_lines =
        if !dense then
          float_of_int ((last_extent + elems_per_line - 1) / elems_per_line)
        else float_of_int last_extent
      in
      let other = ref 1.0 in
      for d = 0 to last - 1 do
        other := !other *. float_of_int (Int.min ext.(d) shape.(d))
      done;
      let lines = fmax 1.0 (!other *. last_lines) in
      footprints.(depth) <- footprints.(depth) +. (lines *. line_bytes);
      if depth = 0 then s.lines.(i) <- lines
    done;
    s.discount.(i) <- (if !dense then prefetch_discount else 1.0)
  end

(* Miss lines brought into L1, L2 and L3, and the cycles they cost: the
   distinct lines of each group, re-streamed across every outer loop the
   group does not depend on whenever the working set inside that loop
   exceeds the level's cache; summed in group order into [out.(0..5)],
   lines then cycles per level. *)
let charge (machine : Machine.t) w (loops : Loop_nest.loop array) s =
  let n = Array.length loops and out = s.out and footprints = s.footprints in
  let limit (c : Machine.cache) = fit_fraction *. float_of_int c.Machine.size_bytes in
  let limit1 = limit machine.l1 and limit2 = limit machine.l2 in
  let limit3 = limit machine.l3 in
  let lat1 = machine.l2.latency_cycles and lat2 = machine.l3.latency_cycles in
  let lat3 = machine.mem_latency_cycles in
  for i = 0 to w.count - 1 do
    let g = s.order.(i) in
    let f1 = ref 1.0 and f2 = ref 1.0 and f3 = ref 1.0 in
    for d = 0 to n - 1 do
      (* the working set of loops d+1..n-1 does not fit comfortably *)
      if not (uses s n g d) then begin
        let fp = footprints.(d + 1) and trip = float_of_int loops.(d).Loop_nest.ub in
        if not (fp <= limit1) then f1 := !f1 *. trip;
        if not (fp <= limit2) then f2 := !f2 *. trip;
        if not (fp <= limit3) then f3 := !f3 *. trip
      end
    done;
    let lines = s.lines.(i) and disc = s.discount.(i) in
    let l1 = lines *. !f1 and l2 = lines *. !f2 and l3 = lines *. !f3 in
    out.(0) <- out.(0) +. l1;
    out.(1) <- out.(1) +. (l1 *. lat1 *. disc);
    out.(2) <- out.(2) +. l2;
    out.(3) <- out.(3) +. (l2 *. lat2 *. disc);
    out.(4) <- out.(4) +. l3;
    out.(5) <- out.(5) +. (l3 *. lat3 *. disc)
  done

(* Flat element stride of group [g] when loop [d] advances by one. *)
let stride_wrt w tbl n g d =
  let shape = w.shape.(g) and r0 = w.row0.(g) in
  let s = ref 0 and stride = ref 1 in
  for i = Array.length shape - 1 downto 0 do
    s := !s + (tbl.(((r0 + i) * n) + d) * !stride);
    stride := !stride * shape.(i)
  done;
  !s

let reduction_at ~(iter_kinds : Linalg.iter_kind array) (loops : Loop_nest.loop array) d =
  let origin = loops.(d).Loop_nest.origin in
  origin < Array.length iter_kinds && iter_kinds.(origin) = Linalg.Reduction_iter

(* The vectorized issue cost of the references, summed in walk order.
   Vectorized code hoists loop-invariant operands out of the vector
   loop, and keeps the accumulator in registers across an adjacent
   inner reduction loop (unroll-and-jam). *)
let vector_cost ~iter_kinds w s (loops : Loop_nest.loop array) =
  let n = Array.length loops in
  let vec_trip = loops.(n - 1).Loop_nest.ub in
  (* The loop outside the vector loop iterates a reduction dim: an
     accumulator stored by the body stays in a register across it. *)
  let outer_reduction = n >= 2 && reduction_at ~iter_kinds loops (n - 2) in
  let outer_trip = if n >= 2 then loops.(n - 2).Loop_nest.ub else 1 in
  let cost = ref 0.0 in
  for k = 0 to w.nrefs - 1 do
    let g = w.refs.(k) in
    cost :=
      !cost
      +.
      if not (uses s n g (n - 1)) then 1.0 /. float_of_int vec_trip
      else if outer_reduction && (not (uses s n g (n - 2))) && w.stored.(g)
      then 1.0 /. float_of_int outer_trip
      else 1.0
  done;
  !cost

(* Parallel-region forks: the iterations of the loops outside the first
   parallel loop, 0 without one. *)
let rec launches_from (loops : Loop_nest.loop array) d acc =
  if d = Array.length loops then 0
  else if loops.(d).Loop_nest.kind = Loop_nest.Parallel then acc
  else launches_from loops (d + 1) (acc * loops.(d).Loop_nest.ub)

(* The one pricing path: [w] priced over [loops], with the subscripts in
   the table of [s]. Returns the seconds and leaves the other report
   numbers in [s.out]. *)
let price ~(machine : Machine.t) ~iter_kinds ~packing_elements w
    (loops : Loop_nest.loop array) s =
  let n = Array.length loops and count = w.count in
  let tbl = s.table and out = s.out in
  for c = 0 to 5 do
    out.(c) <- 0.0
  done;
  let total_iters = ref 1.0 in
  for d = 0 to n - 1 do
    total_iters := !total_iters *. float_of_int loops.(d).Loop_nest.ub
  done;
  let total_iters = !total_iters in
  order_groups w tbl n s;
  (* --- vectorization --- *)
  let vectorized = n > 0 && loops.(n - 1).Loop_nest.kind = Loop_nest.Vector in
  let vec_trip = if n > 0 then loops.(n - 1).Loop_nest.ub else 1 in
  let contiguous = ref true in
  if vectorized then
    for g = 0 to count - 1 do
      if uses s n g (n - 1) && abs (stride_wrt w tbl n g (n - 1)) > 1 then
        contiguous := false
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
  let flops = float_of_int w.flops in
  let mem_ops =
    if vectorized then vector_cost ~iter_kinds w s loops
    else float_of_int w.nrefs
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
  let innermost_is_reduction = n > 0 && reduction_at ~iter_kinds loops (n - 1) in
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
           per copy). Column maps keep equal stores equal and distinct
           ones distinct, so the walked body gives the count. *)
        let replication =
          Int.max 1 (List.length w.body / Int.max 1 (distinct_stores w.body))
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
  for d = 0 to n do
    s.footprints.(d) <- 0.0
  done;
  for i = 0 to count - 1 do
    add_lines ~elems_per_line ~line_bytes w tbl loops s i s.order.(i)
  done;
  charge machine w loops s;
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
    let l = loops.(d) in
    if l.Loop_nest.kind = Loop_nest.Parallel then par_iters := !par_iters * l.Loop_nest.ub
  done;
  let par_iters = !par_iters in
  let launches = launches_from loops 0 1 in
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

let seconds_walked ~machine ~iter_kinds ~packing_elements w loops map =
  let s = acquire w (Array.length loops) in
  match
    (match map with
    | None -> fill_walked w s
    | Some map -> fill_mapped w s map);
    price ~machine ~iter_kinds ~packing_elements w loops s
  with
  | seconds ->
      release s;
      seconds
  | exception e ->
      release s;
      raise e

let seconds ~machine ~iter_kinds ?(packing_elements = 0) (nest : Loop_nest.t) =
  seconds_walked ~machine ~iter_kinds ~packing_elements (walk nest) nest.loops None

let report s seconds (loops : Loop_nest.loop array) =
  let out = s.out and n = Array.length loops in
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
    launches = launches_from loops 0 1;
    packing_seconds = out.(out_packing);
    vectorized = n > 0 && loops.(n - 1).Loop_nest.kind = Loop_nest.Vector;
    vector_efficiency = out.(out_vec_eff);
  }

let estimate ~machine ~iter_kinds ?(packing_elements = 0) (nest : Loop_nest.t) =
  let w = walk nest in
  let s = acquire w (Loop_nest.n_loops nest) in
  match
    fill_walked w s;
    report s (price ~machine ~iter_kinds ~packing_elements w nest.loops s) nest.loops
  with
  | r ->
      release s;
      r
  | exception e ->
      release s;
      raise e

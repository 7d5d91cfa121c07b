(* Polyhedral-lite dependence analysis over [Loop_nest.t].

   Every pair of accesses to the same buffer (at least one of them a
   store) induces a dependence system: the two subscript vectors must be
   equal at two iteration points of the (rectangular) loop domain,
   subject to a per-loop direction constraint between the points. The
   system is decided conservatively with the classic battery:

   - ZIV: a subscript dimension that uses no loop variable depends only
     on the constants — equal constants or no dependence.
   - GCD: the gcd of the live coefficients must divide the constant
     difference, else the diophantine equation has no solution.
   - Banerjee bounds: the range of [f_a(i) - f_b(j)] over the
     (direction-constrained) domain must contain 0. Under a [<] or [>]
     constraint the range is evaluated at the vertices of the triangular
     region — exact for a linear form, hence a sound over-approximation
     of the lattice range.

   "Feasible" answers are over-approximations: the analysis may report a
   dependence that no execution realizes, but it never misses one —
   every "no dependence" verdict is backed by one of the disproofs
   above. Legality built on top (see {!Legality}) therefore only errs
   toward conservatism. *)

type kind = Flow | Anti | Output
type dir = Lt | Eq | Gt
type constr = Any | Must of dir

type dependence = {
  kind : kind;
  buf : string;
  src_stmt : int;
  dst_stmt : int;
  carrier : int option;  (* outermost loop with a [<] direction; None =
                            loop-independent (same iteration) *)
  dirs : dir option array;  (* per loop; None prints as '*' (undetermined) *)
}

let kind_label = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

let dir_label = function
  | Some Lt -> "<"
  | Some Eq -> "="
  | Some Gt -> ">"
  | None -> "*"

let pp_dependence ppf d =
  Format.fprintf ppf "%s %s: stmt %d -> stmt %d, %s, dirs (%s)" (kind_label d.kind)
    d.buf d.src_stmt d.dst_stmt
    (match d.carrier with
    | None -> "loop-independent"
    | Some c -> Printf.sprintf "carried by loop %d" c)
    (String.concat ", " (Array.to_list (Array.map dir_label d.dirs)))

(* ------------------------------------------------------------------ *)
(* Access collection                                                  *)
(* ------------------------------------------------------------------ *)

type access = {
  stmt : int;
  seq : int;  (* execution position inside the statement: loads 0, store 1 *)
  is_store : bool;
  mref : Loop_nest.mem_ref;
}

let rec load_refs acc = function
  | Loop_nest.Load r -> r :: acc
  | Loop_nest.Const _ -> acc
  | Loop_nest.Binop (_, a, b) -> load_refs (load_refs acc a) b
  | Loop_nest.Unop (_, e) -> load_refs acc e

let accesses (nest : Loop_nest.t) =
  List.concat
    (List.mapi
       (fun s (Loop_nest.Store (r, e)) ->
         let loads = List.rev (load_refs [] e) in
         List.map (fun lr -> { stmt = s; seq = 0; is_store = false; mref = lr }) loads
         @ [ { stmt = s; seq = 1; is_store = true; mref = r } ])
       nest.Loop_nest.body)

(* ------------------------------------------------------------------ *)
(* Feasibility of one direction-constrained system                    *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Range [term_lo, term_hi] of [a*i - b*j] with [0 <= i, j <= u-1] under
   the constraint. A [<] or [>] constraint needs [u >= 2] (a nonempty
   region); queries check that once, up front, with [region_nonempty]. *)
let term_lo ~u a b = function
  | Must Eq -> Int.min 0 ((a - b) * (u - 1))
  | Any -> Int.min 0 (a * (u - 1)) + Int.min 0 (-b * (u - 1))
  | Must Lt ->
      (* vertices of {0 <= i < j <= u-1}: (0,1), (0,u-1), (u-2,u-1) *)
      Int.min (-b) (Int.min (-b * (u - 1)) ((a * (u - 2)) - (b * (u - 1))))
  | Must Gt ->
      (* vertices of {0 <= j < i <= u-1}: (1,0), (u-1,0), (u-1,u-2) *)
      Int.min a (Int.min (a * (u - 1)) ((a * (u - 1)) - (b * (u - 2))))

(* max f = -(min -f), and [-f] is the same form with negated coefficients *)
let term_hi ~u a b c = -term_lo ~u (-a) (-b) c

let region_nonempty (loops : Loop_nest.loop array) cs =
  let ok = ref true in
  Array.iteri
    (fun k c ->
      match c with
      | Must Lt | Must Gt -> if loops.(k).Loop_nest.ub < 2 then ok := false
      | Must Eq | Any -> ())
    cs;
  !ok

(* One subscript dimension: can [ea(i) = eb(j)] hold under [cs]? The
   region must be nonempty. *)
let dim_feasible (loops : Loop_nest.loop array) (ea : Affine.expr)
    (eb : Affine.expr) cs =
  let n = Array.length loops in
  let a = ea.Affine.coeffs and b = eb.Affine.coeffs in
  (* Banerjee bounds *)
  let lo = ref (ea.Affine.const - eb.Affine.const) in
  let hi = ref !lo in
  for k = 0 to n - 1 do
    let u = loops.(k).Loop_nest.ub in
    lo := !lo + term_lo ~u a.(k) b.(k) cs.(k);
    hi := !hi + term_hi ~u a.(k) b.(k) cs.(k)
  done;
  if !lo > 0 || !hi < 0 then false
  else begin
    (* GCD / ZIV: sum_k (a_k i_k - b_k j_k) = cb - ca must have an
       integer solution. Each live loop contributes only multiples of its
       pair gcd: [a_k - b_k] when pinned by [Eq] (the two variables
       merge), [gcd a_k b_k] otherwise; trip-count-1 loops contribute
       nothing (their variable is 0), and 0 is the gcd identity.
       [suffix.(k)] is the gcd over loops [k..n-1], so [suffix.(0)] is
       the whole system's. *)
    let pair_gcd k =
      if loops.(k).Loop_nest.ub <= 1 then 0
      else
        match cs.(k) with
        | Must Eq -> abs (a.(k) - b.(k))
        | Any | Must Lt | Must Gt -> gcd a.(k) b.(k)
    in
    let suffix = Array.make (n + 1) 0 in
    for k = n - 1 downto 0 do
      suffix.(k) <- gcd suffix.(k + 1) (pair_gcd k)
    done;
    let diff = eb.Affine.const - ea.Affine.const in
    let g = suffix.(0) in
    if g = 0 then diff = 0
    else if diff mod g <> 0 then false
    else begin
      (* Per-dimension stride refinement. Writing the system as
         [sum_k t_k = diff] with [t_k = a_k i - b_k j] ranging over k's
         term range, each pair contributes only multiples of its own
         gcd. So for every live k there must exist [t] in k's range with
         [t = diff (mod gcd of the others)]; the gcd of the others is
         [gcd prefix suffix.(k+1)] with [prefix] the running gcd of the
         loops before k, one pass in all. This catches post-tiling
         subscripts like [8*ic + ip] where a [<] on the point loop
         bounds [t] to [-7, -1] but the chunk pair only supplies
         multiples of 8 — the plain GCD test (gcd = 1) cannot see it. *)
      let feasible = ref true and prefix = ref 0 and k = ref 0 in
      while !feasible && !k < n do
        let u = loops.(!k).Loop_nest.ub in
        if u > 1 then begin
          let gr = gcd !prefix suffix.(!k + 1) in
          let lo = term_lo ~u a.(!k) b.(!k) cs.(!k)
          and hi = term_hi ~u a.(!k) b.(!k) cs.(!k) in
          feasible :=
            if gr = 0 then lo <= diff && diff <= hi
            else lo + ((((diff - lo) mod gr) + gr) mod gr) <= hi;
          prefix := gcd !prefix (pair_gcd !k)
        end;
        incr k
      done;
      !feasible
    end
  end

let refs_feasible (loops : Loop_nest.loop array) (ra : Loop_nest.mem_ref)
    (rb : Loop_nest.mem_ref) cs =
  Array.length ra.Loop_nest.idx = Array.length rb.Loop_nest.idx
  &&
  let ok = ref true and d = ref 0 in
  while !ok && !d < Array.length ra.Loop_nest.idx do
    ok := dim_feasible loops ra.Loop_nest.idx.(!d) rb.Loop_nest.idx.(!d) cs;
    incr d
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Prepared access pairs and existence queries                        *)
(* ------------------------------------------------------------------ *)

let same_subscripts (ra : Loop_nest.mem_ref) (rb : Loop_nest.mem_ref) =
  Array.length ra.Loop_nest.idx = Array.length rb.Loop_nest.idx
  && Array.for_all2 Affine.equal_expr ra.Loop_nest.idx rb.Loop_nest.idx

let pair_kind a b =
  match (a.is_store, b.is_store) with
  | true, false -> Flow
  | false, true -> Anti
  | true, true -> Output
  | false, false -> assert false

(* A statement is an accumulator when it loads the very cell it stores
   ([C[i] = C[i] + ...]): its self-dependences lower to a reduction, so
   reordering them only changes float rounding, not which value wins. A
   statement that merely rewrites the same cell each iteration WITHOUT
   reading it back ([C[i] = f(k)]) is order-sensitive — its output
   self-dependence must not be excluded. *)
let accumulator_stmt (Loop_nest.Store (r, e)) =
  List.exists (fun lr -> same_subscripts lr r && lr.Loop_nest.buf = r.Loop_nest.buf)
    (load_refs [] e)

type pair = {
  src : access;
  dst : access;
  accumulator : bool;
      (* same accumulator statement, identical subscripts: the [C += ...]
         reduction pair [~exclude_accumulator] skips *)
}

type prepared = { loops : Loop_nest.loop array; pairs : pair array }

(* Ordered pairs (src, dst) of accesses to the same buffer with at least
   one store (so the buffer is a stored one). The same unordered pair
   appears in both orders, so a query constraining some loop to [<] also
   covers the symmetric [>] case of the reverse pair. *)
let prepare (nest : Loop_nest.t) =
  let accs = accesses nest in
  let acc_stmts = Array.of_list (List.map accumulator_stmt nest.Loop_nest.body) in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a.mref.Loop_nest.buf = b.mref.Loop_nest.buf && (a.is_store || b.is_store)
            then
              Some
                {
                  src = a;
                  dst = b;
                  accumulator =
                    a.stmt = b.stmt && acc_stmts.(a.stmt)
                    && same_subscripts a.mref b.mref;
                }
            else None)
          accs)
      accs
  in
  { loops = nest.Loop_nest.loops; pairs = Array.of_list pairs }

(* [exists_dep p cs] — is there any access pair whose dependence system
   is feasible under the per-loop constraints [cs]?
   [~exclude_accumulator:true] additionally skips same-subscript pairs
   within one accumulator statement (the [C += ...] reduction pattern),
   used by the vectorization verdict. *)
let exists_dep ?(exclude_accumulator = false) p cs =
  region_nonempty p.loops cs
  && Array.exists
       (fun pr ->
         (not (exclude_accumulator && pr.accumulator))
         && refs_feasible p.loops pr.src.mref pr.dst.mref cs)
       p.pairs

(* ------------------------------------------------------------------ *)
(* Full analysis: dependences with direction vectors                  *)
(* ------------------------------------------------------------------ *)

let textually_before a b = (a.stmt, a.seq) < (b.stmt, b.seq)

let analyze (nest : Loop_nest.t) =
  let { loops; pairs } = prepare nest in
  let n = Array.length loops in
  let feasible pr cs =
    region_nonempty loops cs && refs_feasible loops pr.src.mref pr.dst.mref cs
  in
  (* For each unconstrained loop, which single direction (if any) is
     feasible with everything else fixed? *)
  let refine_dirs pr cs =
    Array.mapi
      (fun k c ->
        match c with
        | Must d -> Some d
        | Any ->
            let feasible_with d =
              let cs' = Array.copy cs in
              cs'.(k) <- Must d;
              feasible pr cs'
            in
            let options = List.filter feasible_with [ Lt; Eq; Gt ] in
            (match options with [ d ] -> Some d | _ -> None))
      cs
  in
  let deps = ref [] in
  Array.iter
    (fun pr ->
      let a = pr.src and b = pr.dst in
      let emit carrier dirs =
        deps :=
          {
            kind = pair_kind a b;
            buf = a.mref.Loop_nest.buf;
            src_stmt = a.stmt;
            dst_stmt = b.stmt;
            carrier;
            dirs;
          }
          :: !deps
      in
      (* Loop-independent dependence: same iteration, [a] executes
         before [b] in the body. *)
      if textually_before a b && feasible pr (Array.make n (Must Eq)) then
        emit None (Array.make n (Some Eq));
      (* Carried dependences, one per feasible carrier level. *)
      for c = 0 to n - 1 do
        let cs = Array.init n (fun k -> if k < c then Must Eq else Any) in
        cs.(c) <- Must Lt;
        if feasible pr cs then emit (Some c) (refine_dirs pr cs)
      done)
    pairs;
  List.rev !deps

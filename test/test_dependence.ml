(* Differential soundness suite for the static dependence analysis.

   Contract under test (see lib/analysis/legality.mli): a [true] verdict
   means the transformation provably preserves semantics. So on every
   randomized nest, every legal verdict is cross-checked against the
   reference interpreter: a legal loop reversal / interchange / tiling
   must leave every buffer byte-identical (a truly independent
   reordering preserves each memory location's read/write sequence, so
   even float results are exactly equal). Any mismatch is unsoundness
   and fails the suite. Conservative false negatives are allowed and not
   checked here beyond non-vacuity counters. *)

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Random nest generator                                              *)
(* ------------------------------------------------------------------ *)

(* Range of an affine expr over the rectangular domain. *)
let expr_range (ubs : int array) (e : Affine.expr) =
  let lo = ref e.Affine.const and hi = ref e.Affine.const in
  Array.iteri
    (fun k c ->
      let v = c * (ubs.(k) - 1) in
      lo := !lo + min 0 v;
      hi := !hi + max 0 v)
    e.Affine.coeffs;
  (!lo, !hi)

(* Shift the expr so its minimum over the domain is >= 0. *)
let normalize ubs (e : Affine.expr) =
  let lo, _ = expr_range ubs e in
  if lo < 0 then { e with Affine.const = e.Affine.const - lo } else e

(* One random subscript over [n] loop variables: identity, shifted,
   negated (reversed access), scaled, or coupled (i + j). *)
let gen_subscript rng n ubs =
  let dim k = Affine.dim n k in
  let k = Util.Rng.int rng n in
  let e =
    match Util.Rng.int rng 6 with
    | 0 -> dim k
    | 1 -> Affine.expr ~const:(1 - Util.Rng.int rng 3) n [ (k, 1) ]
    | 2 -> Affine.expr ~const:0 n [ (k, -1) ] (* reversed *)
    | 3 -> Affine.expr ~const:(Util.Rng.int rng 2) n [ (k, 2) ]
    | 4 when n >= 2 ->
        let j = (k + 1) mod n in
        Affine.expr ~const:0 n [ (k, 1); (j, 1) ]
    | _ -> Affine.expr ~const:0 n [ (k, 1) ]
  in
  normalize ubs e

let gen_nest rng =
  let n = 1 + Util.Rng.int rng 3 in
  let ubs = Array.init n (fun _ -> 2 + Util.Rng.int rng 4) in
  let rank = 1 + Util.Rng.int rng (min n 2) in
  (* Store target and an optional load of the same buffer per statement,
     plus a load from the input buffer. *)
  let n_stmts = 1 + Util.Rng.int rng 2 in
  let stmts =
    List.init n_stmts (fun _ ->
        let st = Array.init rank (fun _ -> gen_subscript rng n ubs) in
        let self_load =
          match Util.Rng.int rng 3 with
          | 0 -> None (* no self dependence from this statement *)
          | 1 -> Some (Array.copy st) (* accumulator pattern *)
          | _ -> Some (Array.init rank (fun _ -> gen_subscript rng n ubs))
        in
        let in_load = Array.init rank (fun _ -> gen_subscript rng n ubs) in
        (st, self_load, in_load))
  in
  (* Buffer shapes must bound every subscript used on each dim. *)
  let shape_of refs =
    Array.init rank (fun d ->
        List.fold_left
          (fun acc (idx : Affine.expr array) ->
            let _, hi = expr_range ubs idx.(d) in
            max acc (hi + 1))
          1 refs)
  in
  let out_refs =
    List.concat_map
      (fun (st, self, _) -> st :: Option.to_list self)
      stmts
  in
  let in_refs = List.map (fun (_, _, l) -> l) stmts in
  let body =
    List.map
      (fun (st, self, in_load) ->
        let rhs =
          let input = Loop_nest.Load { Loop_nest.buf = "A"; idx = in_load } in
          match self with
          | None -> Loop_nest.Binop (Linalg.Add, input, Loop_nest.Const 1.0)
          | Some idx ->
              Loop_nest.Binop
                (Linalg.Add, Loop_nest.Load { Loop_nest.buf = "O"; idx }, input)
        in
        Loop_nest.Store ({ Loop_nest.buf = "O"; idx = st }, rhs))
      stmts
  in
  {
    Loop_nest.name = "rand";
    loops =
      Array.init n (fun k ->
          { Loop_nest.ub = ubs.(k); kind = Loop_nest.Seq; origin = k });
    body;
    buffers = [ ("O", shape_of out_refs); ("A", shape_of in_refs) ];
    inits = [ ("O", 0.5) ];
  }

let input_data rng (nest : Loop_nest.t) =
  let shape = Loop_nest.buffer_shape nest "A" in
  let len = Array.fold_left ( * ) 1 shape in
  [ ("A", Array.init len (fun i -> (4.0 *. Util.Rng.uniform rng) +. float_of_int i)) ]

(* ------------------------------------------------------------------ *)
(* Differential machinery                                             *)
(* ------------------------------------------------------------------ *)

let reverse_loop k (nest : Loop_nest.t) =
  let n = Array.length nest.Loop_nest.loops in
  let subst =
    Array.init n (fun j ->
        if j = k then
          Affine.expr
            ~const:(nest.Loop_nest.loops.(k).Loop_nest.ub - 1)
            n
            [ (k, -1) ]
        else Affine.dim n j)
  in
  Loop_nest.map_body_exprs (fun e -> Affine.substitute e subst) nest

let run_all nest ~inputs =
  List.sort compare (Interp.run nest ~inputs)

(* Exact comparison for transformations that preserve each memory
   location's read/write sequence. [~tol:true] allows relative float
   error: legal reorderings of an accumulator statement's updates
   reassociate the reduction, which changes rounding but nothing else. *)
let same_result ?(tol = false) r1 r2 =
  let close a b =
    a = b || (tol && Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a))
  in
  List.length r1 = List.length r2
  && List.for_all2
       (fun (n1, a1) (n2, a2) ->
         n1 = n2
         && Array.length a1 = Array.length a2
         && Array.for_all2 close a1 a2)
       r1 r2

(* Does any statement load exactly what it stores (C += ... pattern)?
   Reordering such a reduction changes float rounding, so the innermost
   reversal check skips these nests. *)
let has_accumulator (nest : Loop_nest.t) =
  List.exists
    (fun (Loop_nest.Store (st, e)) ->
      let rec loads acc = function
        | Loop_nest.Load r -> r :: acc
        | Loop_nest.Const _ -> acc
        | Loop_nest.Binop (_, a, b) -> loads (loads acc a) b
        | Loop_nest.Unop (_, x) -> loads acc x
      in
      List.exists
        (fun (r : Loop_nest.mem_ref) ->
          r.Loop_nest.buf = st.Loop_nest.buf
          && Array.length r.Loop_nest.idx = Array.length st.Loop_nest.idx
          && Array.for_all2 Affine.equal_expr r.Loop_nest.idx st.Loop_nest.idx)
        (loads [] e))
    nest.Loop_nest.body

(* Smallest usable tile size: the least prime factor, or the trip count
   itself when prime (tiling by the full trip count is still legal). *)
let smallest_divisor x =
  if x mod 2 = 0 then 2 else if x mod 3 = 0 then 3 else x

(* Counters proving the corpus is not vacuous: both legal and illegal
   verdicts of every kind must actually occur. *)
type tally = {
  mutable par_legal : int;
  mutable par_illegal : int;
  mutable swap_legal : int;
  mutable swap_illegal : int;
  mutable tile_legal : int;
  mutable tile_illegal : int;
  mutable vec_checked : int;
}

let new_tally () =
  { par_legal = 0; par_illegal = 0; swap_legal = 0; swap_illegal = 0;
    tile_legal = 0; tile_illegal = 0; vec_checked = 0 }

(* Swap loops [k] and [k+1] anywhere in the nest, outer chunk loops
   included ([Loop_transforms.swap_adjacent] only reaches the point
   band). *)
let swap_loops k (nest : Loop_nest.t) =
  let n = Array.length nest.Loop_nest.loops in
  let src j = if j = k then k + 1 else if j = k + 1 then k else j in
  Loop_nest.map_body_exprs
    (fun e ->
      { e with Affine.coeffs = Array.init n (fun j -> e.Affine.coeffs.(src j)) })
    { nest with Loop_nest.loops = Array.init n (fun j -> nest.Loop_nest.loops.(src j)) }

(* Every claimed-legal verdict is replayed on the interpreter. Loop
   indices are absolute; transformations the environment applies to the
   point band [p0, n) only — forall parallelization and tiling — are
   checked there, at the band start the action masks ask about. *)
let check_nest tally rng nest =
  match Loop_nest.validate nest with
  | Error e -> Alcotest.failf "generator produced an invalid nest: %s" e
  | Ok () ->
      let n = Loop_nest.n_loops nest in
      let p0 = Loop_transforms.point_band_start nest in
      let leg = Legality.analyze nest in
      let inputs = input_data rng nest in
      let reference = run_all nest ~inputs in
      let expect_equal ?tol what nest' =
        if not (same_result ?tol reference (run_all nest' ~inputs)) then
          Alcotest.failf "UNSOUND %s on:@.%s" what (Ir_printer.to_string nest)
      in
      (* interchange/tile verdicts exempt accumulator self-deps, so on
         accumulator nests a legal reordering may reassociate the
         reduction: compare those with a tolerance, everything else
         exactly *)
      let reassoc = has_accumulator nest in
      (* parallel verdict: reversal of the loop must be exact *)
      for k = 0 to n - 1 do
        if Legality.can_parallelize leg k then begin
          tally.par_legal <- tally.par_legal + 1;
          expect_equal (Printf.sprintf "parallelize loop %d" k)
            (reverse_loop k nest);
          (* and through the env's actual Parallelize path: tile the loop
             to a forall and reverse the hoisted chunk loop *)
          let sizes = Array.make (n - p0) 0 in
          let ub = nest.Loop_nest.loops.(k).Loop_nest.ub in
          if k >= p0 then sizes.(k - p0) <- smallest_divisor ub;
          if k >= p0 && sizes.(k - p0) < ub then
            match Loop_transforms.tile ~parallel:true sizes nest with
            | Error e -> Alcotest.failf "tile ~parallel rejected: %s" e
            | Ok tiled ->
                expect_equal
                  (Printf.sprintf "parallelize (forall) loop %d" k)
                  (reverse_loop p0 tiled)
        end
        else tally.par_illegal <- tally.par_illegal + 1
      done;
      (* interchange verdict *)
      for k = 0 to n - 2 do
        if Legality.can_interchange leg k then begin
          tally.swap_legal <- tally.swap_legal + 1;
          let swapped =
            if k < p0 then Ok (swap_loops k nest)
            else Loop_transforms.swap_adjacent (k - p0) nest
          in
          match swapped with
          | Error e -> Alcotest.failf "swap_adjacent rejected: %s" e
          | Ok swapped ->
              expect_equal ~tol:reassoc
                (Printf.sprintf "interchange %d<->%d" k (k + 1))
                swapped
        end
        else tally.swap_illegal <- tally.swap_illegal + 1
      done;
      (* tile verdict: point-band rectangular tiling must be exact *)
      if Legality.can_tile leg ~band_start:p0 then begin
        tally.tile_legal <- tally.tile_legal + 1;
        let sizes =
          Array.map
            (fun (l : Loop_nest.loop) -> smallest_divisor l.Loop_nest.ub)
            (Array.sub nest.Loop_nest.loops p0 (n - p0))
        in
        match Loop_transforms.tile sizes nest with
        | Error e -> Alcotest.failf "tile rejected: %s" e
        | Ok tiled -> expect_equal ~tol:reassoc "tile" tiled
      end
      else tally.tile_illegal <- tally.tile_illegal + 1;
      (* vectorize verdict: with no accumulator statement the innermost
         loop's iterations must be order-independent *)
      if n > 0 && Legality.can_vectorize leg && not (has_accumulator nest)
      then begin
        tally.vec_checked <- tally.vec_checked + 1;
        expect_equal "vectorize (innermost reversal)" (reverse_loop (n - 1) nest)
      end

let test_randomized () =
  let rng = Util.Rng.create 2024 in
  let tally = new_tally () in
  for _ = 1 to 300 do
    check_nest tally rng (gen_nest rng)
  done;
  (* the corpus must exercise both sides of every verdict *)
  check "some parallel-legal" true (tally.par_legal > 50);
  check "some parallel-illegal" true (tally.par_illegal > 50);
  check "some swap-legal" true (tally.swap_legal > 20);
  check "some swap-illegal" true (tally.swap_illegal > 5);
  check "some tile-legal" true (tally.tile_legal > 50);
  check "some tile-illegal" true (tally.tile_illegal > 10);
  check "some vectorize checks" true (tally.vec_checked > 20)

(* The action masks ask about the point band, which sits behind the
   chunk loops of earlier tilings and parallelizations. Deepen each
   random nest by one or two point-band tilings with random divisor
   sizes (sequential or forall) and hold the deeper nest's verdicts to
   the same rule: every claimed-legal one must replay exactly on the
   interpreter. The deepened nest is its own reference — the tilings
   need not be legal on the shallow nest. *)
let deepen rng (nest : Loop_nest.t) =
  let p0 = Loop_transforms.point_band_start nest in
  let point = Array.sub nest.Loop_nest.loops p0 (Loop_nest.n_loops nest - p0) in
  let random_divisor (l : Loop_nest.loop) =
    let ds = List.filter (fun d -> d > 1) (Loop_transforms.divisors l.Loop_nest.ub) in
    List.nth ds (Util.Rng.int rng (List.length ds))
  in
  let sizes =
    Array.map (fun l -> if Util.Rng.int rng 3 = 0 then 0 else random_divisor l) point
  in
  if Array.for_all (fun s -> s = 0) sizes then begin
    let i = Util.Rng.int rng (Array.length sizes) in
    sizes.(i) <- random_divisor point.(i)
  end;
  match Loop_transforms.tile ~parallel:(Util.Rng.int rng 2 = 0) sizes nest with
  | Ok deeper -> deeper
  | Error e -> Alcotest.failf "deepening tile rejected: %s" e

let test_randomized_deep () =
  let rng = Util.Rng.create 4049 in
  let tally = new_tally () in
  let deep = ref 0 in
  for _ = 1 to 200 do
    let nest = deepen rng (gen_nest rng) in
    let nest = if Util.Rng.int rng 2 = 0 then deepen rng nest else nest in
    if Loop_nest.n_loops nest >= 4 then incr deep;
    check_nest tally rng nest
  done;
  check "some nests four loops deep" true (!deep > 50);
  check "some parallel-legal" true (tally.par_legal > 50);
  check "some parallel-illegal" true (tally.par_illegal > 50);
  check "some swap-legal" true (tally.swap_legal > 20);
  check "some swap-illegal" true (tally.swap_illegal > 5);
  check "some tile-legal" true (tally.tile_legal > 50);
  check "some tile-illegal" true (tally.tile_illegal > 10);
  check "some vectorize checks" true (tally.vec_checked > 20)

(* ------------------------------------------------------------------ *)
(* Precision: known verdicts on canonical nests                       *)
(* ------------------------------------------------------------------ *)

let parse = Test_helpers.parse

let recurrence =
  "func @rec { buffer b : [16] init 1.0 \
   for %0 = 0 to 15 origin 0 { store b[%0 + 1] = add(load b[%0], 1.0) } }"

let skewed =
  "func @skew { buffer C : [9, 9] init 0.0 \
   for %0 = 0 to 8 origin 0 { for %1 = 0 to 8 origin 1 { \
   store C[%0 + 1, %1] = add(load C[%0, %1 + 1], 1.0) } } }"

let columnwise =
  "func @col { buffer C : [9, 8] init 0.0 \
   for %0 = 0 to 8 origin 0 { for %1 = 0 to 8 origin 1 { \
   store C[%0 + 1, %1] = add(load C[%0, %1], 1.0) } } }"

let test_recurrence () =
  let leg = Legality.analyze (parse recurrence) in
  check "recurrence: loop carries dep" true (Legality.carries_dependence leg 0);
  check "recurrence: not parallel" false (Legality.can_parallelize leg 0);
  check "recurrence: not vectorizable" false (Legality.can_vectorize leg);
  check "recurrence: tile 1-loop band ok" true (Legality.can_tile leg ~band_start:0);
  check "recurrence: unroll ok" true ((Legality.verdicts leg).Legality.unroll)

let test_skewed () =
  let leg = Legality.analyze (parse skewed) in
  check "skewed: interchange blocked" false (Legality.can_interchange leg 0);
  check "skewed: tile blocked" false (Legality.can_tile leg ~band_start:0);
  check "skewed: outer not parallel" false (Legality.can_parallelize leg 0);
  check "skewed: inner not parallel" false (Legality.can_parallelize leg 1);
  check "skewed: vectorize ok (inner iterations independent)" true
    (Legality.can_vectorize leg)

let test_columnwise () =
  let leg = Legality.analyze (parse columnwise) in
  check "columnwise: interchange ok" true (Legality.can_interchange leg 0);
  check "columnwise: outer not parallel" false (Legality.can_parallelize leg 0);
  check "columnwise: inner parallel" true (Legality.can_parallelize leg 1);
  check "columnwise: vectorize ok" true (Legality.can_vectorize leg)

let test_matmul () =
  let op =
    match Op_spec.parse "matmul:8x8x8" with
    | Ok op -> op
    | Error e -> Alcotest.fail e
  in
  let nest = Lower.to_loop_nest op in
  let leg = Legality.analyze nest in
  check "matmul: i parallel" true (Legality.can_parallelize leg 0);
  check "matmul: j parallel" true (Legality.can_parallelize leg 1);
  check "matmul: k not parallel" false (Legality.can_parallelize leg 2);
  check "matmul: k carries the reduction" true (Legality.carries_dependence leg 2);
  check "matmul: band permutable" true (Legality.can_tile leg ~band_start:0);
  check "matmul: vectorize ok (reduction lowers to vector reduce)" true
    (Legality.can_vectorize leg);
  check "matmul: interchange i<->j" true (Legality.can_interchange leg 0);
  check "matmul: interchange j<->k" true (Legality.can_interchange leg 1);
  (* the full analysis names the accumulator dependences *)
  let deps = Dependence.analyze nest in
  check "matmul: has a flow dep" true
    (List.exists (fun d -> d.Dependence.kind = Dependence.Flow) deps);
  check "matmul: has an output dep" true
    (List.exists (fun d -> d.Dependence.kind = Dependence.Output) deps);
  check "matmul: reduction carried by k" true
    (List.exists (fun d -> d.Dependence.carrier = Some 2) deps);
  check "matmul: nothing carried by i" false
    (List.exists (fun d -> d.Dependence.carrier = Some 0) deps)

let test_conv () =
  let op =
    match Op_spec.parse "conv2d:8x8x4,k3,f8,s1" with
    | Ok op -> op
    | Error e -> Alcotest.fail e
  in
  let leg = Legality.analyze (Lower.to_loop_nest op) in
  let n = Legality.n_loops leg in
  (* reduction (kernel) dims: reassociation makes sequential reorderings
     legal, but concurrent updates still race *)
  check "conv: band permutable (reduction reassociates)" true
    (Legality.can_tile leg ~band_start:0);
  check "conv: kernel dims interchange" true
    (Legality.can_interchange leg (n - 2));
  check "conv: spatial dim parallel" true (Legality.can_parallelize leg 1);
  check "conv: kernel dim not parallel" false
    (Legality.can_parallelize leg (n - 1));
  check "conv: vectorize ok" true (Legality.can_vectorize leg)

(* Masks must shrink, never grow, when static legality is enabled — and
   they must actually shrink on a nest the syntactic masks get wrong. *)
let test_mask_intersection () =
  let op =
    match Op_spec.parse "matmul:16x16x16" with
    | Ok op -> op
    | Error e -> Alcotest.fail e
  in
  let st = Sched_state.init op in
  let with_leg = Env_config.default in
  let without = Env_config.with_static_legality false Env_config.default in
  let m1 = Action_space.masks with_leg st in
  let m0 = Action_space.masks without st in
  let subset a b = Array.for_all2 (fun x y -> (not x) || y) a b in
  check "t_mask shrinks" true
    (subset m1.Action_space.t_mask m0.Action_space.t_mask);
  check "swap_mask shrinks" true
    (subset m1.Action_space.swap_mask m0.Action_space.swap_mask);
  (* on the dataset ops nothing is lost *)
  check "matmul t_mask unchanged" true
    (m1.Action_space.t_mask = m0.Action_space.t_mask)

let test_certificates () =
  let op =
    match Op_spec.parse "matmul:8x8x8" with
    | Ok op -> op
    | Error e -> Alcotest.fail e
  in
  let prev = Sched_state.certify_enabled () in
  Sched_state.set_certify true;
  Fun.protect
    ~finally:(fun () -> Sched_state.set_certify prev)
    (fun () ->
      (* a fully legal schedule certifies end to end *)
      (match
         Sched_state.apply_all op
           [
             Schedule.Parallelize [| 4; 4; 0 |];
             Schedule.Tile [| 2; 2; 4 |];
             Schedule.Swap 1;
             Schedule.Vectorize;
           ]
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "legal schedule rejected: %s" e);
      (* forcing an unprovable transformation trips the certificate: a
         synthetic state whose nest is a recurrence but whose op metadata
         calls the dim parallel slips past the paper's syntactic mask,
         and only the certificate catches it *)
      let rec_nest = parse recurrence in
      let st =
        {
          Sched_state.original = op;
          op;
          nest = rec_nest;
          history = [];
          packing_elements = 0;
          parallelized = false;
          vectorized = false;
        }
      in
      check "certificate rejects parallelizing a recurrence" true
        (try
           (match Sched_state.apply st (Schedule.Parallelize [| 3 |]) with
           | Ok _ -> false (* certificate failed to fire: unsound *)
           | Error _ -> false (* masked before the certificate: not the
                                 path under test *))
         with Failure m -> Astring_contains.contains m "legality certificate"))

(* ------------------------------------------------------------------ *)
(* Pinned legality bytes                                              *)
(* ------------------------------------------------------------------ *)

let bits b = String.init (Array.length b) (fun i -> if b.(i) then '1' else '0')

(* Every verdict of one fresh analysis, rendered in one canonical layout.
   [~reverse:true] asks them in the opposite order — vectorize first,
   band starts and loops from the innermost out — so a memo whose answer
   depends on what was asked before cannot hide behind the layout. *)
let verdict_bytes ~reverse nest =
  let leg = Legality.analyze nest in
  let n = Loop_nest.n_loops nest in
  let par = Array.make n false and swap = Array.make n false in
  let carried = Array.make n false and tile = Array.make n false in
  let vec = ref false in
  let idx = List.init n Fun.id in
  let ask_vectorize () = vec := Legality.can_vectorize leg in
  let ask_tiles order =
    List.iter (fun b -> tile.(b) <- Legality.can_tile leg ~band_start:b) order
  in
  let ask_loops order fields =
    List.iter (fun k -> List.iter (fun f -> f k) fields) order
  in
  let fields =
    [
      (fun k -> par.(k) <- Legality.can_parallelize leg k);
      (fun k -> swap.(k) <- Legality.can_interchange leg k);
      (fun k -> carried.(k) <- Legality.carries_dependence leg k);
    ]
  in
  if reverse then begin
    ask_vectorize ();
    ask_tiles (List.rev idx);
    ask_loops (List.rev idx) (List.rev fields)
  end
  else begin
    ask_loops idx fields;
    ask_tiles idx;
    ask_vectorize ()
  end;
  Printf.sprintf "n=%d par=%s swap=%s carried=%s tile=%s vec=%b" n (bits par)
    (bits swap) (bits carried) (bits tile) !vec

let mask_bytes (m : Action_space.masks) =
  let rows r = String.concat "/" (Array.to_list (Array.map bits r)) in
  Printf.sprintf "t=%s tile=%s par=%s swap=%s" (bits m.Action_space.t_mask)
    (rows m.Action_space.tile_mask) (rows m.Action_space.par_mask)
    (bits m.Action_space.swap_mask)

(* The hierarchical head's vectorization entry
   ([Action_space.transformation_label 4]). *)
let t_vectorize = 4

(* One random action the masks admit. Vectorize is left to the end of
   the episode so the nests grow deep; slot choices are uniform over
   each loop's admitted slots. *)
let random_masked_action rng cfg st (m : Action_space.masks) =
  let pick = function
    | [] -> None
    | l -> Some (List.nth l (Util.Rng.int rng (List.length l)))
  in
  let admitted row = List.filter (fun i -> row.(i)) (List.init (Array.length row) Fun.id) in
  match pick (List.filter (fun t -> t <> t_vectorize) (admitted m.Action_space.t_mask)) with
  | None -> None
  | Some transform ->
      let rows =
        if transform = Action_space.t_parallelize then m.Action_space.par_mask
        else m.Action_space.tile_mask
      in
      let tile_choices =
        Array.map (fun row -> Option.value ~default:0 (pick (admitted row))) rows
      in
      let swap_choice =
        Option.value ~default:0 (pick (admitted m.Action_space.swap_mask))
      in
      Action_space.to_transformation cfg st
        { Action_space.transform; tile_choices; swap_choice }

(* MD5 over every legality verdict and every action mask along seeded
   random masked episodes: matmul, conv2d with and without im2col,
   maxpool, add and relu, tiled and parallelized until the nests reach
   ten loops and more; then every verdict of three canonical nests with
   true cross-iteration dependences, plain and tiled. The constant was computed at commit 333dbb5,
   before the analysis answered verdicts lazily from prepared access
   pairs with a linear stride refinement — which must not move a bit. *)
let pinned_legality_fingerprint = "57549d67ab4b470dabb3f947d9406e13"

let legality_fingerprint () =
  let cfg = Env_config.default in
  let conv =
    Linalg.conv2d
      {
        Linalg.batch = 1;
        in_h = 10;
        in_w = 10;
        channels = 4;
        kernel_h = 3;
        kernel_w = 3;
        filters = 8;
        stride = 1;
      }
  in
  let episodes =
    [
      (Linalg.matmul ~m:16 ~n:24 ~k:32 (), []);
      (conv, []);
      (conv, [ Schedule.Im2col ]);
      ( Linalg.maxpool
          {
            Linalg.p_batch = 2;
            p_in_h = 16;
            p_in_w = 16;
            p_channels = 8;
            p_kernel = 2;
            p_stride = 2;
          },
        [] );
      (Linalg.add [| 12; 16; 8 |], []);
      (Linalg.relu [| 24; 32 |], []);
    ]
  in
  let rng = Util.Rng.create 19 in
  let b = Buffer.create (1 lsl 16) in
  let states = ref 0 and deepest = ref 0 in
  let add_verdicts nest =
    let forward = verdict_bytes ~reverse:false nest in
    Alcotest.(check string) "verdicts independent of query order" forward
      (verdict_bytes ~reverse:true nest);
    Buffer.add_string b forward
  in
  let visit st =
    let nest = st.Sched_state.nest in
    incr states;
    deepest := max !deepest (Loop_nest.n_loops nest);
    Buffer.add_string b (Schedule.to_string (Sched_state.applied st));
    Buffer.add_char b '|';
    add_verdicts nest;
    Buffer.add_char b '|';
    Buffer.add_string b (mask_bytes (Action_space.masks cfg st));
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (op, prefix) ->
      for _ = 1 to 4 do
        let st =
          match Sched_state.apply_all op prefix with
          | Ok st -> st
          | Error e -> Alcotest.fail e
        in
        let rec step st k =
          visit st;
          let next =
            if k = 0 then
              if (Action_space.masks cfg st).Action_space.t_mask.(t_vectorize)
              then Some Schedule.Vectorize
              else None
            else random_masked_action rng cfg st (Action_space.masks cfg st)
          in
          match next with
          | None -> if k > 0 then step st (k - 1)
          | Some tr -> (
              match Sched_state.apply st tr with
              | Ok st' ->
                  if Sched_state.is_done st' then visit st' else step st' (k - 1)
              | Error e -> Alcotest.failf "masked action rejected: %s" e)
        in
        step st 5
      done)
    episodes;
  (* The dataset's dependences are all accumulator self-dependences; the
     canonical recurrence, skewed and column-wise nests add true
     cross-iteration ones, plain and with the point band tiled
     sequentially or as a forall. *)
  List.iter
    (fun src ->
      let nest = parse src in
      let sizes =
        Array.map
          (fun (l : Loop_nest.loop) -> smallest_divisor l.Loop_nest.ub)
          nest.Loop_nest.loops
      in
      let tiled parallel = Result.get_ok (Loop_transforms.tile ~parallel sizes nest) in
      List.iter
        (fun nest ->
          add_verdicts nest;
          Buffer.add_char b '\n')
        [ nest; tiled false; tiled true ])
    [ recurrence; skewed; columnwise ];
  (Digest.to_hex (Digest.string (Buffer.contents b)), !states, !deepest)

let test_pinned_legality_fingerprint () =
  let fp, states, deepest = legality_fingerprint () in
  check "many states visited" true (states > 100);
  check "nests reach ten loops" true (deepest >= 10);
  Alcotest.(check string) "legality verdict and mask bytes"
    pinned_legality_fingerprint fp

let suite =
  [
    Alcotest.test_case "300 randomized nests, zero unsound verdicts" `Slow
      test_randomized;
    Alcotest.test_case "recurrence verdicts" `Quick test_recurrence;
    Alcotest.test_case "skewed-dependence verdicts" `Quick test_skewed;
    Alcotest.test_case "columnwise verdicts" `Quick test_columnwise;
    Alcotest.test_case "matmul verdicts + dependences" `Quick test_matmul;
    Alcotest.test_case "conv verdicts (reduction reassociation)" `Quick
      test_conv;
    Alcotest.test_case "static masks only shrink" `Quick test_mask_intersection;
    Alcotest.test_case "certificates accept legal schedules" `Quick
      test_certificates;
    Alcotest.test_case "pinned legality fingerprint" `Quick
      test_pinned_legality_fingerprint;
    Alcotest.test_case "deepened randomized nests, zero unsound verdicts" `Slow
      test_randomized_deep;
  ]

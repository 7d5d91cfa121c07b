type t = {
  original : Linalg.t;
  op : Linalg.t;
  nest : Loop_nest.t;
  history : Schedule.t;
  packing_elements : int;
  parallelized : bool;
  vectorized : bool;
}

let init op =
  let nest = Lower.to_loop_nest op in
  {
    original = op;
    op;
    nest;
    history = [];
    packing_elements = 0;
    parallelized = false;
    vectorized = false;
  }

let applied state = List.rev state.history
let digest state = Loop_nest.digest state.nest

let n_point_loops state = Linalg.n_loops state.op

let point_trip_counts state =
  Array.map (fun l -> l.Loop_nest.ub) (Loop_transforms.point_band state.nest)

let can_tile state = not state.vectorized
let can_interchange state = not state.vectorized && n_point_loops state >= 2
let can_parallelize state = (not state.vectorized) && not state.parallelized
let can_vectorize state = not state.vectorized

let can_im2col state =
  (not state.vectorized) && Linalg.is_conv state.op && state.history = []

let is_done state = state.vectorized

(* --- legality certificates (debug builds) --------------------------

   When enabled — via [set_certify] or the MLIR_RL_CERTIFY environment
   variable — every transformation accepted by [apply] is re-proved
   after the fact: the transformed nest must validate, the iteration
   volume and buffer declarations must be preserved, and the
   transformation must pass the static dependence-analysis verdict on
   the nest it was applied to. A failure raises [Failure]: it means a
   transformation reached [apply] that the masks should have rejected
   (or the analysis is unsound). Certification is strict — on nests
   where the conservative analysis cannot prove legality it fails even
   if the transformation happens to be semantics-preserving. *)

let certify =
  ref
    (match Sys.getenv_opt "MLIR_RL_CERTIFY" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false)

let set_certify b = certify := b
let certify_enabled () = !certify

let certificate_check (before : Loop_nest.t) (tr : Schedule.transformation)
    (after : Loop_nest.t) =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith ("legality certificate: " ^ m)) fmt
  in
  (match Loop_nest.validate after with
  | Ok () -> ()
  | Error e -> fail "transformed nest fails validate: %s" e);
  (match tr with
  | Schedule.Im2col -> () (* rewrites the whole op; nothing to compare *)
  | Schedule.Unroll f ->
      if Loop_nest.iteration_count after * f <> Loop_nest.iteration_count before
      then fail "unroll by %d changed the iteration volume" f;
      if List.length after.Loop_nest.body <> f * List.length before.Loop_nest.body
      then fail "unroll by %d did not replicate the body %d times" f f
  | Schedule.Tile _ | Schedule.Parallelize _ | Schedule.Interchange _
  | Schedule.Swap _ | Schedule.Vectorize ->
      if Loop_nest.iteration_count after <> Loop_nest.iteration_count before
      then fail "iteration volume changed";
      if after.Loop_nest.buffers <> before.Loop_nest.buffers then
        fail "buffer declarations changed";
      if after.Loop_nest.inits <> before.Loop_nest.inits then
        fail "buffer initializations changed");
  let leg () = Legality.analyze before in
  let p0 = Loop_transforms.point_band_start before in
  match tr with
  | Schedule.Parallelize sizes ->
      let leg = leg () in
      Array.iteri
        (fun l s ->
          if s > 0 && not (Legality.can_parallelize leg (p0 + l)) then
            fail "loop %d is not provably parallel" (p0 + l))
        sizes
  | Schedule.Swap i ->
      if not (Legality.can_interchange (leg ()) (p0 + i)) then
        fail "swapping loops %d and %d reverses a dependence" (p0 + i)
          (p0 + i + 1)
  | Schedule.Tile _ | Schedule.Interchange _ ->
      if not (Legality.can_tile (leg ()) ~band_start:p0) then
        fail "point band is not provably permutable"
  | Schedule.Vectorize ->
      if not (Legality.can_vectorize (leg ())) then
        fail "innermost loop carries a non-reduction dependence"
  | Schedule.Unroll _ | Schedule.Im2col -> ()

(* Re-proves an accepted step's nest when certificates or the
   post-transform verifier (MLIR_RL_VERIFY: validate and bounds
   soundness, raising Verifier.Violation at the step that broke it)
   are on. *)
let check before tr nest =
  if !certify then certificate_check before tr nest;
  if Verifier.enabled () then Verifier.run nest

let record state tr nest =
  check state.nest tr nest;
  { state with nest; history = tr :: state.history }

(* Point loops whose op dim is a reduction cannot run in parallel: that
   would race on the accumulator (MLIR's tile_using_forall rejects it). *)
let parallelizable_loop state l =
  let band = Loop_transforms.point_band state.nest in
  l < Array.length band
  &&
  let origin = band.(l).Loop_nest.origin in
  origin < Array.length state.op.Linalg.iter_kinds
  && state.op.Linalg.iter_kinds.(origin) = Linalg.Parallel_iter

let apply state (tr : Schedule.transformation) =
  if state.vectorized then Error "schedule already ended by vectorization"
  else
    match tr with
    | Schedule.Tile sizes ->
        Result.map (record state tr) (Loop_transforms.tile sizes state.nest)
    | Schedule.Parallelize sizes ->
        if state.parallelized then
          Error "parallelization may be used only once per schedule"
        else if
          (* A wrong arity is [tile]'s error to report: a size past the
             band names no loop, reduction or not. *)
          Array.length sizes
          = Array.length (Loop_transforms.point_band state.nest)
          && Array.exists
               (fun l -> sizes.(l) > 0 && not (parallelizable_loop state l))
               (Array.init (Array.length sizes) (fun l -> l))
        then Error "cannot parallelize a reduction dimension"
        else
          Result.map
            (fun nest ->
              check state.nest tr nest;
              { state with nest; history = tr :: state.history; parallelized = true })
            (Loop_transforms.tile ~parallel:true sizes state.nest)
    | Schedule.Interchange perm ->
        Result.map (record state tr)
          (Loop_transforms.interchange perm state.nest)
    | Schedule.Swap i ->
        Result.map (record state tr) (Loop_transforms.swap_adjacent i state.nest)
    | Schedule.Vectorize ->
        Result.map
          (fun nest ->
            check state.nest tr nest;
            { state with nest; history = tr :: state.history; vectorized = true })
          (Loop_transforms.vectorize state.nest)
    | Schedule.Unroll factor ->
        Result.map (record state tr) (Loop_transforms.unroll factor state.nest)
    | Schedule.Im2col -> (
        if not (can_im2col state) then
          Error
            (if Linalg.is_conv state.op then
               "im2col must be the first transformation"
             else "im2col only applies to convolutions")
        else
          match Im2col.rewrite state.op with
          | Error _ as e -> e
          | Ok (gemm, `Packing_elements elems) ->
              let nest = Lower.to_loop_nest gemm in
              check state.nest tr nest;
              Ok
                {
                  state with
                  op = gemm;
                  nest;
                  history = tr :: state.history;
                  packing_elements = elems;
                })

let apply_all op sched =
  List.fold_left
    (fun acc tr -> Result.bind acc (fun state -> apply state tr))
    (Ok (init op)) sched

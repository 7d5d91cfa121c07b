type config = { beam_width : int; max_depth : int }

let default_config = { beam_width = 8; max_depth = 7 }

(* Divisor options per loop, parallel combos per state, and the largest
   tile size an expansion considers. *)
let sizes_per_loop = 3
let max_parallel_combos = 24
let max_tile_size = 128

type result = {
  best_schedule : Schedule.t;
  best_speedup : float;
  explored : int;
}

(* Largest [sizes_per_loop] divisors of [trip] that are proper and
   within bounds. *)
let size_options trip =
  let divisors =
    List.filter
      (fun d -> d > 1 && d < trip && d <= max_tile_size)
      (Loop_transforms.divisors trip)
  in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  take sizes_per_loop (List.rev divisors)

(* Single transformations applicable to [state]: one- and two-loop
   tilings, bounded parallel combos over leading parallel dims, all
   adjacent swaps, im2col. Vectorization is handled by the driver. *)
let expansions (state : Sched_state.t) =
  let trips = Sched_state.point_trip_counts state in
  let n = Array.length trips in
  let acc = ref [] in
  let add tr = acc := tr :: !acc in
  (* single-loop tiles *)
  for l = 0 to n - 1 do
    List.iter
      (fun size ->
        let sizes = Array.make n 0 in
        sizes.(l) <- size;
        add (Schedule.Tile sizes))
      (size_options trips.(l))
  done;
  (* two-loop tiles on adjacent pairs (largest option each) *)
  for l = 0 to n - 2 do
    match (size_options trips.(l), size_options trips.(l + 1)) with
    | s1 :: _, s2 :: _ ->
        let sizes = Array.make n 0 in
        sizes.(l) <- s1;
        sizes.(l + 1) <- s2;
        add (Schedule.Tile sizes)
    | _, _ -> ()
  done;
  (* parallelization: combos over the leading parallelizable loops *)
  if Sched_state.can_parallelize state then begin
    let eligible =
      List.filter
        (fun l -> Sched_state.parallelizable_loop state l && trips.(l) > 1)
        (List.init (min n 3) (fun l -> l))
    in
    let combos = ref [] in
    let rec build chosen = function
      | [] -> if chosen <> [] then combos := chosen :: !combos
      | l :: rest ->
          build chosen rest;
          List.iter
            (fun size -> build ((l, size) :: chosen) rest)
            (size_options trips.(l))
    in
    build [] eligible;
    let combos = List.filteri (fun i _ -> i < max_parallel_combos) !combos in
    List.iter
      (fun combo ->
        let sizes = Array.make n 0 in
        List.iter (fun (l, size) -> sizes.(l) <- size) combo;
        add (Schedule.Parallelize sizes))
      combos
  end;
  (* interchange *)
  if Sched_state.can_interchange state then
    for i = 0 to n - 2 do
      add (Schedule.Swap i)
    done;
  if Sched_state.can_im2col state then add Schedule.Im2col;
  List.rev !acc

(* One loop for every [jobs] value. Per depth: expansion (a pure [apply]
   per beam entry) goes through the executor and merges in entry x
   expansion order; dedup stays on this domain; exact scoring goes
   through the executor on evaluator forks keyed by a global
   scored-state index; the beam update then runs in candidate order on
   this domain. *)
let search ?(config = default_config) ?(jobs = 1) ?pool evaluator op =
  if jobs < 1 then invalid_arg "Beam_search.search: jobs must be >= 1";
  Par_eval.with_executor ?pool ~jobs (fun exec ->
      (* Expansion is already prefix-shared: each child is one [apply] on
         its parent's state, never an [apply_all] replay. Distinct action
         sequences reaching the same nest (tile/swap transpositions) are
         priced again: 13.8% of children repeat a nest, too few to repay
         a lookup per child (docs/performance.md, "Why there is no state
         cache"). *)
      (* Score = speedup with vectorization appended (virtually). *)
      let score ev (state : Sched_state.t) =
        match Sched_state.apply state Schedule.Vectorize with
        | Ok v -> Evaluator.speedup ev v
        | Error _ -> Evaluator.speedup ev state
      in
      let seen = Hashtbl.create 256 in
      let remember (state : Sched_state.t) =
        let key = Schedule.dedup_key (Sched_state.applied state) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end
      in
      let root = Sched_state.init op in
      (* The root is scored on the caller's evaluator. *)
      let best_speedup = ref (score evaluator root) in
      let best_schedule = ref [ Schedule.Vectorize ] in
      let scored = ref 0 in
      let beam = ref [ (root, !best_speedup) ] in
      let depth = ref 0 in
      while !depth < config.max_depth - 1 && !beam <> [] do
        incr depth;
        let expanded =
          Par_eval.map exec
            (fun ((state : Sched_state.t), _) ->
              List.filter_map
                (fun tr -> Result.to_option (Sched_state.apply state tr))
                (expansions state))
            (Array.of_list !beam)
        in
        let candidates =
          Array.of_list (List.filter remember (List.concat (Array.to_list expanded)))
        in
        let scores =
          Par_eval.map_forked exec evaluator ~first:!scored score candidates
        in
        scored := !scored + Array.length candidates;
        let children = ref [] in
        Array.iter2
          (fun (child : Sched_state.t) s ->
            if s > !best_speedup then begin
              best_speedup := s;
              best_schedule := Sched_state.applied child @ [ Schedule.Vectorize ]
            end;
            children := (child, s) :: !children)
          candidates scores;
        let sorted = List.sort (fun (_, a) (_, b) -> compare b a) !children in
        beam := List.filteri (fun i _ -> i < config.beam_width) sorted
      done;
      {
        best_schedule = !best_schedule;
        best_speedup = !best_speedup;
        explored = 1 + !scored (* the root, then every scored child *);
      })

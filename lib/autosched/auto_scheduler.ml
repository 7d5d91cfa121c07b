type config = {
  tile_sizes : int list;
  min_tiled_loops : int;
  par_loops_considered : int;
  include_interchange : bool;
  include_im2col : bool;
  max_schedules : int;
}

let default_config =
  {
    tile_sizes = [];
    (* empty = derive from divisors, capped at 64 (paper §5.1.4) *)
    min_tiled_loops = 2;
    par_loops_considered = 3;
    include_interchange = true;
    include_im2col = true;
    max_schedules = 3000;
  }

type result = {
  best_schedule : Schedule.t;
  best_speedup : float;
  explored : int;
  trace : (int * float) array;
}

let max_tile_size = 64
let max_options_per_loop = 4

(* Candidate tile sizes for one loop: the largest few divisors <= 64
   (or the configured list), always alongside 0 = untiled. *)
let loop_options config trip =
  let pool =
    match config.tile_sizes with
    | [] -> List.filter (fun d -> d <= max_tile_size && d > 1) (Loop_transforms.divisors trip)
    | sizes -> List.filter (fun s -> s > 1 && s <= trip && trip mod s = 0) sizes
  in
  let sorted = List.sort (fun a b -> compare b a) pool in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  0 :: take max_options_per_loop sorted

let count_nonzero sizes =
  Array.fold_left (fun acc s -> if s > 0 then acc + 1 else acc) 0 sizes

let rec product (options : int list list) : int list Seq.t =
  match options with
  | [] -> Seq.return []
  | opts :: rest ->
      Seq.concat_map
        (fun choice -> Seq.map (fun tail -> choice :: tail) (product rest))
        (List.to_seq opts)

let trivial = [ Schedule.Vectorize ]

(* One schedule from (par combo option, tile combo, swap option). *)
let assemble ~prefix ~par_opt ~tile_combo ~swap_opt =
  (match par_opt with
  | Some sizes when count_nonzero sizes > 0 -> [ Schedule.Parallelize sizes ]
  | Some _ | None -> [])
  @ (if count_nonzero tile_combo > 0 then [ Schedule.Tile tile_combo ] else [])
  @ (match swap_opt with Some i -> [ Schedule.Swap i ] | None -> [])
  @ [ Schedule.Vectorize ]
  |> fun steps -> prefix @ steps

type domain_space = {
  prefix : Schedule.t;
  trips : int array;
  par_slots : (int * int list) list;  (* (loop index, size options incl 0) *)
  swap_opts : int option list;
}

let make_space config ~prefix ~trips ~iter_kinds =
  let n = Array.length trips in
  let par_slots =
    let eligible = ref [] in
    let taken = ref 0 in
    Array.iteri
      (fun l trip ->
        if
          !taken < config.par_loops_considered
          && trip > 1
          && l < Array.length iter_kinds
          && iter_kinds.(l) = Linalg.Parallel_iter
        then begin
          let opts = loop_options config trip in
          if List.length opts > 1 then begin
            eligible := (l, opts) :: !eligible;
            incr taken
          end
        end)
      trips;
    List.rev !eligible
  in
  let swap_opts =
    if config.include_interchange && n >= 2 then
      None :: List.init (n - 1) (fun i -> Some i)
    else [ None ]
  in
  { prefix; trips; par_slots; swap_opts }

(* The par-combo stream of a space: None (no Parallelize step) first,
   then every nonzero combination of the parallel slots, head slot
   varying slowest — shared by the candidate stream and the subtask
   enumeration so both walk the trie in the same order. *)
let par_combos (space : domain_space) : int array option Seq.t =
  let n = Array.length space.trips in
  let slot_opts = List.map snd space.par_slots in
  Seq.cons None
    (Seq.filter_map
       (fun combo ->
         if not (List.exists (fun s -> s > 0) combo) then None
         else begin
           let sizes = Array.make n 0 in
           List.iteri
             (fun k size -> sizes.(fst (List.nth space.par_slots k)) <- size)
             combo;
           Some (Some sizes)
         end)
       (product slot_opts))

(* What the tile step sees under a parallel combo: each loop's trip
   count (a parallelized loop is tiled within its chunk) and how many
   loops the combo parallelizes. *)
let after_par (space : domain_space) = function
  | None -> (space.trips, 0)
  | Some sizes ->
      ( Array.mapi (fun l s -> if s > 0 then s else space.trips.(l)) sizes,
        count_nonzero sizes )

(* The paper's "at least [min_tiled_loops] tiled loops" filter, counting
   parallelized loops as tiled. *)
let enough_tiled config ~par_count tile_combo =
  par_count + count_nonzero tile_combo >= config.min_tiled_loops

(* Exhaustive stream over one domain space. *)
let space_candidates config (space : domain_space) : Schedule.t Seq.t =
  Seq.concat_map
    (fun par_opt ->
      let effective, par_count = after_par space par_opt in
      let tile_opts = Array.to_list (Array.map (loop_options config) effective) in
      Seq.concat_map
        (fun tile_combo ->
          let tile_combo = Array.of_list tile_combo in
          if not (enough_tiled config ~par_count tile_combo) then Seq.empty
          else
            Seq.map
              (fun swap_opt ->
                assemble ~prefix:space.prefix ~par_opt ~tile_combo ~swap_opt)
              (List.to_seq space.swap_opts))
        (product tile_opts))
    (par_combos space)

(* [loop_options] enumerates, filters and sorts divisors — far too
   expensive to redo per sampling attempt per loop (the sampler draws
   tens of thousands of candidates, and trip counts repeat constantly).
   One memo table per sampler; [config] is fixed for the table's
   lifetime, so the key is just the trip count. *)
let loop_options_memo config =
  let tbl = Hashtbl.create 32 in
  fun trip ->
    match Hashtbl.find_opt tbl trip with
    | Some opts -> opts
    | None ->
        let opts = loop_options config trip in
        Hashtbl.add tbl trip opts;
        opts

(* Seeded random draw from one domain space. [opts] is the (memoized)
   tile-size option list per trip count. *)
let random_candidate rng config ~opts (space : domain_space) =
  let par_opt =
    if space.par_slots <> [] && Util.Rng.bool rng then begin
      let sizes = Array.make (Array.length space.trips) 0 in
      List.iter
        (fun (l, opts) -> sizes.(l) <- Util.Rng.choice_list rng opts)
        space.par_slots;
      if Array.exists (fun s -> s > 0) sizes then Some sizes else None
    end
    else None
  in
  let effective, par_count = after_par space par_opt in
  let tile_combo =
    Array.map (fun trip -> Util.Rng.choice_list rng (opts trip)) effective
  in
  if not (enough_tiled config ~par_count tile_combo) then None
  else begin
    let swap_opt = Util.Rng.choice_list rng space.swap_opts in
    Some (assemble ~prefix:space.prefix ~par_opt ~tile_combo ~swap_opt)
  end

let spaces config (op : Linalg.t) =
  let plain =
    make_space config ~prefix:[] ~trips:(Linalg.loop_bounds op)
      ~iter_kinds:op.Linalg.iter_kinds
  in
  if config.include_im2col && Linalg.is_conv op then
    match Im2col.rewrite op with
    | Ok (gemm, _) ->
        [ plain;
          make_space config ~prefix:[ Schedule.Im2col ]
            ~trips:(Linalg.loop_bounds gemm)
            ~iter_kinds:gemm.Linalg.iter_kinds ]
    | Error _ -> [ plain ]
  else [ plain ]

let space_size config (space : domain_space) =
  let opt_count trip = List.length (loop_options config trip) in
  let par =
    List.fold_left (fun acc (_, opts) -> acc * List.length opts) 1 space.par_slots
  in
  let tiles = Array.fold_left (fun acc trip -> acc * opt_count trip) 1 space.trips in
  (* Upper bound: ignores the min-tiled filter. *)
  par * tiles * List.length space.swap_opts

let candidates config (op : Linalg.t) : Schedule.t Seq.t =
  Seq.cons trivial
    (Seq.concat_map (space_candidates config) (List.to_seq (spaces config op)))

(* The size estimate the search dispatches on (full enumeration vs
   budgeted sampling): an upper bound on |candidates|, since the
   per-space product ignores the min-tiled filter. *)
let space_total config op =
  1 + List.fold_left (fun acc s -> acc + space_size config s) 0 (spaces config op)

let fits_budget config op = space_total config op <= config.max_schedules

(* Seeded from the full op digest (name, dims, iter kinds), not just
   op_name: two same-named ops with different shapes must not share a
   sampling stream — their spaces differ, and a shared stream made the
   "without replacement" budget behave differently per shape for no
   reason. Pinned by a determinism test. *)
let sampling_seed (op : Linalg.t) = Hashtbl.hash (Linalg.digest op)

(* ---- The search engine ---------------------------------------------

   Every search is one composition of four parts: a candidate source
   (exhaustive trie subtasks, or sampled chunks), the Par_eval executor
   (inline for jobs = 1, the stealing pool otherwise), an in-order merge
   into the recorder, and an optional ranker stage. Enumeration and
   sampling stay sequential and jobs-independent; each task evaluates on
   a fork whose noise stream is keyed by the task's index, so results
   are byte-identical across every [jobs] value, noisy or not. *)

(* The one result recorder: fed in evaluation order, it keeps the best
   schedule so far, the evaluation count and one trace point per
   evaluation. *)
type recorder = {
  mutable best : Schedule.t;
  mutable best_s : float;
  mutable count : int;
  mutable points : (int * float) list;
}

let recorder () = { best = trivial; best_s = 0.0; count = 0; points = [] }

let record r sched speedup =
  r.count <- r.count + 1;
  if speedup > r.best_s then begin
    r.best_s <- speedup;
    r.best <- sched
  end;
  r.points <- (r.count, r.best_s) :: r.points

(* A candidate whose application fails is skipped without consuming
   budget. *)
let record_result r sched = function
  | Ok speedup -> record r sched speedup
  | Error _ -> ()

let finish r =
  {
    best_schedule = r.best;
    best_speedup = r.best_s;
    explored = r.count;
    trace = Array.of_list (List.rev r.points);
  }

(* Evaluate [scheds] through the executor, candidate [k] on a fork keyed
   by stream [first + k], and record them in order. *)
let eval_schedules exec evaluator op r ~first scheds =
  Par_eval.map_forked exec evaluator ~first
    (fun fork sched -> Evaluator.schedule_speedup fork op sched)
    scheds
  |> Array.iter2 (record_result r) scheds

(* -- Candidate source: exhaustive trie subtasks --

   A subtask is one independent subtrie of the (prefix; parallelize;
   tile; swap; vectorize) decision trie: a space with its prefix and
   parallel combo already applied, and the tile choices of the leading
   [frontier_depth] loops pinned. Depth 2 yields enough subtasks to feed
   and steal-balance a pool without making them trivial. Enumerating the
   subtasks in order and concatenating their leaves reproduces
   [candidates] leaf for leaf. *)
let frontier_depth = 2

type subtask = {
  st_space : domain_space;
  st_par : int array option;
  st_par_count : int;
  st_state : Sched_state.t option;
      (* prefix and parallel combo applied; [None] when the Parallelize
         step fails, which prunes the subtrie but keeps its index *)
  st_tile_prefix : int list;  (* pinned tile choices of the leading loops *)
  st_rest_opts : int list list;  (* remaining loops' tile options *)
}

let rec split_at k l =
  if k = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let h, t = split_at (k - 1) rest in
        (x :: h, t)

(* The subtasks in exact [candidates] order. [product] varies its head
   slowest, so splitting the tile product at [frontier_depth] and
   enumerating (head combo) x (rest combo) preserves the global order.
   Prefix and Parallelize are applied here, once per (space, par combo),
   not once per subtask. *)
let subtasks config op =
  List.concat_map
    (fun (space : domain_space) ->
      match Sched_state.apply_all op space.prefix with
      | Error _ -> []
      | Ok pre ->
          List.of_seq
            (Seq.concat_map
               (fun par_opt ->
                 let effective, par_count = after_par space par_opt in
                 let state =
                   match par_opt with
                   | None -> Some pre
                   | Some sizes ->
                       Result.to_option
                         (Sched_state.apply pre (Schedule.Parallelize sizes))
                 in
                 let head_opts, rest_opts =
                   split_at frontier_depth
                     (Array.to_list (Array.map (loop_options config) effective))
                 in
                 Seq.map
                   (fun tile_prefix ->
                     {
                       st_space = space;
                       st_par = par_opt;
                       st_par_count = par_count;
                       st_state = state;
                       st_tile_prefix = tile_prefix;
                       st_rest_opts = rest_opts;
                     })
                   (product head_opts))
               (par_combos space)))
    (spaces config op)

(* One subtask's leaves with their speedups on [ev], in [candidates]
   order: the unpinned tile options, the swaps and the final vectorize,
   each transformation applied once per trie node instead of once per
   leaf. A transformation that fails prunes its subtree — exactly the
   candidates a from-scratch [apply_all] would have skipped, so
   explored counts, traces and noise streams line up with
   [search_naive]. *)
let run_subtask config ev st =
  match st.st_state with
  | None -> []
  | Some after_par ->
      let leaves = ref [] in
      Seq.iter
        (fun rest_combo ->
          let tile_combo = Array.of_list (st.st_tile_prefix @ rest_combo) in
          if enough_tiled config ~par_count:st.st_par_count tile_combo then
            let after_tile =
              if count_nonzero tile_combo = 0 then Ok after_par
              else Sched_state.apply after_par (Schedule.Tile tile_combo)
            in
            Result.iter
              (fun after_tile ->
                List.iter
                  (fun swap_opt ->
                    let swapped =
                      match swap_opt with
                      | None -> Ok after_tile
                      | Some i -> Sched_state.apply after_tile (Schedule.Swap i)
                    in
                    match
                      Result.bind swapped (fun s -> Sched_state.apply s Schedule.Vectorize)
                    with
                    | Error _ -> ()
                    | Ok final ->
                        let sched =
                          assemble ~prefix:st.st_space.prefix ~par_opt:st.st_par
                            ~tile_combo ~swap_opt
                        in
                        leaves := (sched, Evaluator.speedup ev final) :: !leaves)
                  st.st_space.swap_opts)
              after_tile)
        (product st.st_rest_opts);
      List.rev !leaves

(* -- Candidate source: sampled chunks --

   Budgeted seeded sampling without replacement. Draws stay sequential
   on the calling domain, so the rng / dedup / attempts stream is the
   same for every [jobs] value. *)
let sampling_chunk = 32

type sampler = {
  cfg : config;
  rng : Util.Rng.t;
  spaces : domain_space list;
  opts : int -> int list;
  seen : (Schedule.t, unit) Hashtbl.t;
  mutable attempts : int;
  max_attempts : int;
}

let sampler config op =
  {
    cfg = config;
    rng = Util.Rng.create (sampling_seed op);
    spaces = spaces config op;
    opts = loop_options_memo config;
    seen = Hashtbl.create 1024;
    attempts = 0;
    max_attempts = config.max_schedules * 20;
  }

(* Up to [want] new distinct candidates in draw order; fewer only once
   the attempts cap is reached. *)
let draw s want =
  let out = ref [] and got = ref 0 in
  while !got < want && s.attempts < s.max_attempts do
    s.attempts <- s.attempts + 1;
    let space = Util.Rng.choice_list s.rng s.spaces in
    match random_candidate s.rng s.cfg ~opts:s.opts space with
    | None -> ()
    | Some sched ->
        (* Structural keys: generic hashing beats building a string per
           attempt, and bucket collisions fall back to full structural
           equality, so dedup stays exact. *)
        if not (Hashtbl.mem s.seen sched) then begin
          Hashtbl.add s.seen sched ();
          out := sched :: !out;
          incr got
        end
  done;
  Array.of_list (List.rev !out)

(* The sampled regime after the trivial schedule: chunks that each ask
   for at most the remaining budget, so successes never overflow it. A
   candidate whose application fails consumes no budget and the next
   chunk draws again, until the budget is spent or the attempts cap ends
   the stream. [eval_chunk ~first chunk] evaluates and records one
   chunk; [first] is its first candidate's index among all draws. *)
let sample_loop config op r ~eval_chunk =
  let s = sampler config op in
  let rec go first =
    let want = min sampling_chunk (config.max_schedules - r.count) in
    if want > 0 then
      match draw s want with
      | [||] -> ()
      | chunk ->
          eval_chunk ~first chunk;
          go (first + Array.length chunk)
  in
  go 0

let search ?(config = default_config) ?(jobs = 1) ?pool evaluator op =
  if jobs < 1 then invalid_arg "Auto_scheduler.search: jobs must be >= 1";
  Par_eval.with_executor ?pool ~jobs (fun exec ->
      let r = recorder () in
      (* The trivial schedule is always evaluated, on the caller's
         evaluator, so [best_speedup] is well-defined. *)
      record_result r trivial (Evaluator.schedule_speedup evaluator op trivial);
      if fits_budget config op then
        Par_eval.map_forked exec evaluator ~first:0 (run_subtask config)
          (Array.of_list (subtasks config op))
        |> Array.iter (List.iter (fun (sched, s) -> record r sched s))
      else sample_loop config op r ~eval_chunk:(eval_schedules exec evaluator op r);
      finish r)

let search_naive ?(config = default_config) evaluator op =
  let r = recorder () in
  let evaluate sched =
    record_result r sched (Evaluator.schedule_speedup evaluator op sched)
  in
  if fits_budget config op then Seq.iter evaluate (candidates config op)
  else begin
    evaluate trivial;
    sample_loop config op r ~eval_chunk:(fun ~first:_ chunk -> Array.iter evaluate chunk)
  end;
  finish r

(* Staged re-ranking: a cheap learned ranker scores every candidate in
   the budgeted set WITHOUT applying it (the surrogate's features come
   from the schedule parameters alone), then only the [rerank_k] most
   promising candidates pay for the exact path ([Sched_state.apply_all]
   plus the analytical cost model). [explored] counts exact evaluations
   only, so traces stay comparable with [search].

   The ranker is a plain closure — this layer cannot depend on
   lib/surrogate (perf < autosched < surrogate in the library order);
   the CLI / bench construct it from a trained checkpoint. *)
let default_rerank_k = 64

let gather_candidates config op =
  if fits_budget config op then List.of_seq (candidates config op)
  else begin
    (* The exact search's sampled stream, collected instead of
       evaluated; the trivial schedule leads, takes one slot of the
       budget and is never drawn again. *)
    let s = sampler config op in
    Hashtbl.add s.seen trivial ();
    trivial :: Array.to_list (draw s (config.max_schedules - 1))
  end

let search_staged ?(config = default_config) ?ranker
    ?(rerank_k = default_rerank_k) ?(jobs = 1) ?pool evaluator op =
  if jobs < 1 then
    invalid_arg "Auto_scheduler.search_staged: jobs must be >= 1";
  match ranker with
  | None -> search ~config ~jobs ?pool evaluator op
  | Some rank ->
      (* The survivors are selected before any evaluation: the trivial
         schedule is evaluated exactly anyway, so it never takes a slot. *)
      let rec survivors k = function
        | sched :: rest when k > 0 ->
            if Schedule.equal sched trivial then survivors k rest
            else sched :: survivors (k - 1) rest
        | _ -> []
      in
      let selected =
        survivors rerank_k
          (Par_eval.rank_order ~who:"Auto_scheduler.search_staged" rank
             (Array.of_list (gather_candidates config op)))
      in
      Par_eval.with_executor ?pool ~jobs (fun exec ->
          let r = recorder () in
          record_result r trivial (Evaluator.schedule_speedup evaluator op trivial);
          eval_schedules exec evaluator op r ~first:0 (Array.of_list selected);
          finish r)

type config = {
  tile_sizes : int list;
  include_im2col : bool;
  max_schedules : int;
}

let default_config =
  {
    tile_sizes = [];
    (* empty = derive from divisors, capped at 64 (paper §5.1.4) *)
    include_im2col = true;
    max_schedules = 3000;
  }

(* The paper's constraints (§5.1.4): at least two tiled loops, counting
   parallelized ones, and parallel tiling on the first three non-trivial
   parallel loops. *)
let min_tiled_loops = 2
let par_loops_considered = 3

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

(* A candidate's steps after its head: the tile combo, the swap option
   and the final vectorize. *)
let tail_steps ~tile_combo ~swap_opt =
  let steps = [ Schedule.Vectorize ] in
  let steps = match swap_opt with Some i -> Schedule.Swap i :: steps | None -> steps in
  if count_nonzero tile_combo > 0 then Schedule.Tile tile_combo :: steps else steps

(* The whole schedule: the prefix and the par combo option, then [tail]. *)
let with_head ~prefix ~par_opt tail =
  prefix
  @
  match par_opt with
  | Some sizes when count_nonzero sizes > 0 -> Schedule.Parallelize sizes :: tail
  | Some _ | None -> tail

let assemble ~prefix ~par_opt ~tile_combo ~swap_opt =
  with_head ~prefix ~par_opt (tail_steps ~tile_combo ~swap_opt)

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
          !taken < par_loops_considered
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
    if n >= 2 then
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
let enough_tiled ~par_count tile_combo =
  par_count + count_nonzero tile_combo >= min_tiled_loops

(* Exhaustive stream over one domain space. *)
let space_candidates config (space : domain_space) : Schedule.t Seq.t =
  Seq.concat_map
    (fun par_opt ->
      let effective, par_count = after_par space par_opt in
      let tile_opts = Array.to_list (Array.map (loop_options config) effective) in
      Seq.concat_map
        (fun tile_combo ->
          let tile_combo = Array.of_list tile_combo in
          if not (enough_tiled ~par_count tile_combo) then Seq.empty
          else
            Seq.map
              (fun swap_opt ->
                assemble ~prefix:space.prefix ~par_opt ~tile_combo ~swap_opt)
              (List.to_seq space.swap_opts))
        (product tile_opts))
    (par_combos space)

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

(* -- Shared heads --

   A candidate's head is its leading steps: its space's prefix (Im2col
   or nothing) and its Parallelize step. An op has at most two spaces
   and a few hundred parallel combos, yet a search evaluates thousands
   of candidates per head, so each search applies every head once, on
   the calling domain, and walks its nest's body once there. The rest
   of a candidate (tile, swap, vectorize) is priced from the head's
   walk through the steps' column maps ([Evaluator.tail_speedup]).
   States and walks are read-only, so pool tasks share a head by
   reading it. *)
type heads = (Schedule.t, (Sched_state.t * Cost_model.walk) option) Hashtbl.t

(* The state after [steps] (a head) and its walk, [None] when they do
   not apply. Every prefix of a head is memoized too, so a search lowers
   the op and rewrites it to im2col once, not once per head. *)
let rec head_state (heads : heads) op steps =
  match Hashtbl.find_opt heads steps with
  | Some head -> head
  | None ->
      let state =
        match List.rev steps with
        | [] -> Some (Sched_state.init op)
        | last :: rev_before ->
            Option.bind (head_state heads op (List.rev rev_before)) (fun (pre, _) ->
                Result.to_option (Sched_state.apply pre last))
      in
      let head =
        Option.map (fun state -> (state, Cost_model.walk state.Sched_state.nest)) state
      in
      Hashtbl.add heads steps head;
      head

let rec split_head = function
  | (Schedule.Im2col | Schedule.Parallelize _) as step :: rest ->
      let head, tail = split_head rest in
      (step :: head, tail)
  | tail -> ([], tail)

(* Evaluate [scheds] through the executor, candidate [k] on a fork keyed
   by stream [first + k], and record them in order. Heads are looked up
   (and applied and walked when new) here, in candidate order; each fork
   prices only the candidate's remaining steps from the head. The result
   is the one [Evaluator.schedule_speedup] gives, and a candidate whose
   head fails is skipped like any other that fails to apply. *)
let eval_schedules exec evaluator op heads r ~first scheds =
  Array.map
    (fun sched ->
      let head, rest = split_head sched in
      (head_state heads op head, rest))
    scheds
  |> Par_eval.map_forked exec evaluator ~first (fun fork (head, rest) ->
         match head with
         | None -> Error "head does not apply"
         | Some (state, walk) -> Evaluator.tail_speedup fork state walk rest)
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
  st_head : (Sched_state.t * Cost_model.walk) option;
      (* prefix and parallel combo applied, and walked; [None] when the
         Parallelize step fails, which prunes the subtrie but keeps its
         index *)
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
   Each head (prefix and Parallelize) is applied here, once, not once
   per subtask. *)
let subtasks config op =
  let heads = Hashtbl.create 64 in
  List.concat_map
    (fun (space : domain_space) ->
      match head_state heads op space.prefix with
      | None -> []
      | Some _ ->
          List.of_seq
            (Seq.concat_map
               (fun par_opt ->
                 let effective, par_count = after_par space par_opt in
                 let head =
                   head_state heads op
                     (match par_opt with
                     | None -> space.prefix
                     | Some sizes -> space.prefix @ [ Schedule.Parallelize sizes ])
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
                       st_head = head;
                       st_tile_prefix = tile_prefix;
                       st_rest_opts = rest_opts;
                     })
                   (product head_opts))
               (par_combos space)))
    (spaces config op)

(* One subtask's leaves with their speedups on [ev], in [candidates]
   order: the unpinned tile options, the swaps and the final vectorize,
   each leaf's tail priced from the subtask's head. A step that fails
   skips its leaf — exactly the candidates a from-scratch [apply_all]
   would have skipped, so explored counts, traces and noise streams
   line up with [search_naive]. *)
let run_subtask ev st =
  match st.st_head with
  | None -> []
  | Some (state, walk) ->
      let leaves = ref [] in
      Seq.iter
        (fun rest_combo ->
          let tile_combo = Array.of_list (st.st_tile_prefix @ rest_combo) in
          if enough_tiled ~par_count:st.st_par_count tile_combo then
            List.iter
              (fun swap_opt ->
                let tail = tail_steps ~tile_combo ~swap_opt in
                match Evaluator.tail_speedup ev state walk tail with
                | Error _ -> ()
                | Ok speedup ->
                    let sched =
                      with_head ~prefix:st.st_space.prefix ~par_opt:st.st_par tail
                    in
                    leaves := (sched, speedup) :: !leaves)
              st.st_space.swap_opts)
        (product st.st_rest_opts);
      List.rev !leaves

(* -- Candidate source: sampled chunks --

   Budgeted seeded sampling without replacement. Draws stay sequential
   on the calling domain, so the rng / dedup / attempts stream is the
   same for every [jobs] value. *)
let sampling_chunk = 32

(* One domain space as the sampler draws from it. Every option list is
   an array picked with [Util.Rng.int rng (Array.length a)], the very
   call [Util.Rng.choice_list] makes on the list, so the draw stream
   does not depend on the representation. *)
type draw_space = {
  space : domain_space;
  par_opts : int array array;  (* each parallel slot's sizes, 0 first *)
  slot_of : int array;  (* each loop's parallel slot, or -1 *)
  tile_opts : int array array;  (* each loop's tile sizes at its full trip *)
  par_tile_opts : int array array array;
      (* [k].(i): the tile sizes of slot [k]'s loop when parallelized at
         its [i]th size (the full-trip sizes when that size is 0) *)
  swaps : int option array;
  pick : int array;  (* scratch: each slot's drawn option index *)
  key : int array;
      (* scratch: the current draw's dedup key — the space's index, each
         slot's parallel size, each loop's tile size, the swap index *)
}

let draw_space config index (space : domain_space) =
  let n = Array.length space.trips in
  let opts trip = Array.of_list (loop_options config trip) in
  let tile_opts = Array.map opts space.trips in
  let slots = Array.of_list space.par_slots in
  let slot_of = Array.make n (-1) in
  Array.iteri (fun k (l, _) -> slot_of.(l) <- k) slots;
  let par_opts = Array.map (fun (_, sizes) -> Array.of_list sizes) slots in
  let key = Array.make (Array.length slots + n + 2) 0 in
  key.(0) <- index;
  {
    space;
    par_opts;
    slot_of;
    tile_opts;
    par_tile_opts =
      Array.mapi
        (fun k sizes ->
          Array.map (fun s -> if s > 0 then opts s else tile_opts.(fst slots.(k))) sizes)
        par_opts;
    swaps = Array.of_list space.swap_opts;
    pick = Array.make (Array.length slots) 0;
    key;
  }

(* One seeded draw into [ds.key]; [false] when the min-tiled filter
   rejects it. The calls on [rng] keep the list sampler's order: the
   parallel coin (only when the space has parallel slots), one pick per
   slot, one pick per loop among the sizes of its effective trip count,
   then — past the filter — the swap. *)
let random_key rng ds =
  let key = ds.key and nslots = Array.length ds.par_opts in
  let par = nslots > 0 && Util.Rng.bool rng in
  let tiled = ref 0 in
  for k = 0 to nslots - 1 do
    let size =
      if par then begin
        let i = Util.Rng.int rng (Array.length ds.par_opts.(k)) in
        ds.pick.(k) <- i;
        ds.par_opts.(k).(i)
      end
      else 0
    in
    if size > 0 then incr tiled;
    key.(1 + k) <- size
  done;
  for l = 0 to Array.length ds.tile_opts - 1 do
    let k = ds.slot_of.(l) in
    let opts =
      if par && k >= 0 then ds.par_tile_opts.(k).(ds.pick.(k)) else ds.tile_opts.(l)
    in
    let size = opts.(Util.Rng.int rng (Array.length opts)) in
    if size > 0 then incr tiled;
    key.(1 + nslots + l) <- size
  done;
  !tiled >= min_tiled_loops
  && begin
       key.(Array.length key - 1) <- Util.Rng.int rng (Array.length ds.swaps);
       true
     end

(* The schedule [ds.key] names. Parallel sizes that are all zero add no
   Parallelize step, like the no-parallel branch, whose key they share. *)
let schedule_of_key ds =
  let key = ds.key and n = Array.length ds.tile_opts in
  let nslots = Array.length ds.par_opts in
  let par = Array.make n 0 in
  for l = 0 to n - 1 do
    if ds.slot_of.(l) >= 0 then par.(l) <- key.(1 + ds.slot_of.(l))
  done;
  assemble ~prefix:ds.space.prefix ~par_opt:(Some par)
    ~tile_combo:(Array.sub key (1 + nslots) n)
    ~swap_opt:ds.swaps.(key.(Array.length key - 1))

(* Dedup keys are sizes, not option indices: the sizes determine the
   schedule, so a custom [tile_sizes] list that names a size twice still
   dedups by schedule. *)
module Seen = Hashtbl.Make (struct
  type t = int array

  (* Plain loops: both run on every draw, rejected ones included. *)
  let rec same (a : t) (b : t) i = i = Array.length a || (a.(i) = b.(i) && same a b (i + 1))
  let equal (a : t) b = Array.length a = Array.length b && same a b 0

  (* Sizes are small and mostly powers of two, which a plain polynomial
     hash leaves clustered in the low bits a bucket index reads; a
     splitmix-style finalizer mixes them, without a call into the
     runtime's hash. *)
  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x100000001b3) lxor a.(i)
    done;
    let h = (!h lxor (!h lsr 31)) * 0x2f58476d1ce4e5b9 in
    h lxor (h lsr 29)
end)

type sampler = {
  rng : Util.Rng.t;
  spaces : draw_space array;  (* the plain space first *)
  seen : unit Seen.t;
  mutable attempts : int;
  max_attempts : int;
}

let sampler config op =
  {
    rng = Util.Rng.create (sampling_seed op);
    spaces = Array.of_list (List.mapi (draw_space config) (spaces config op));
    (* Sized for the budget, so the table never rehashes its keys. *)
    seen = Seen.create (2 * config.max_schedules);
    attempts = 0;
    max_attempts = config.max_schedules * 20;
  }

(* Up to [want] new distinct candidates in draw order; fewer only once
   the attempts cap is reached. Only a new draw builds its schedule. *)
let draw s want =
  let out = ref [] and got = ref 0 in
  while !got < want && s.attempts < s.max_attempts do
    s.attempts <- s.attempts + 1;
    let ds = s.spaces.(Util.Rng.int s.rng (Array.length s.spaces)) in
    if random_key s.rng ds && not (Seen.mem s.seen ds.key) then begin
      Seen.add s.seen (Array.copy ds.key) ();
      out := schedule_of_key ds :: !out;
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
        Par_eval.map_forked exec evaluator ~first:0 run_subtask
          (Array.of_list (subtasks config op))
        |> Array.iter (List.iter (fun (sched, s) -> record r sched s))
      else
        sample_loop config op r
          ~eval_chunk:(eval_schedules exec evaluator op (Hashtbl.create 64) r);
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
   promising candidates pay for the exact path ([eval_schedules]: their
   steps after a shared head, plus the analytical cost model).
   [explored] counts exact evaluations only, so traces stay comparable
   with [search].

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
    (* The trivial schedule's key: the plain space, every size 0, no
       swap. *)
    Seen.add s.seen (Array.make (Array.length s.spaces.(0).key) 0) ();
    trivial :: Array.to_list (draw s (config.max_schedules - 1))
  end

let search_staged ?(config = default_config) ?ranker
    ?(rerank_k = default_rerank_k) ?(jobs = 1) evaluator op =
  if jobs < 1 then
    invalid_arg "Auto_scheduler.search_staged: jobs must be >= 1";
  match ranker with
  | None -> search ~config ~jobs evaluator op
  | Some rank ->
      (* The survivors are selected before any evaluation: the trivial
         schedule is evaluated exactly anyway, so it never takes a slot.
         It is one candidate, so the [rerank_k + 1] best hold every
         survivor. *)
      let rec survivors k = function
        | sched :: rest when k > 0 ->
            if Schedule.equal sched trivial then survivors k rest
            else sched :: survivors (k - 1) rest
        | _ -> []
      in
      let selected =
        survivors rerank_k
          (Par_eval.rank_best rank
             (Array.of_list (gather_candidates config op))
             (if rerank_k < max_int then rerank_k + 1 else rerank_k))
      in
      Par_eval.with_executor ~jobs (fun exec ->
          let r = recorder () in
          record_result r trivial (Evaluator.schedule_speedup evaluator op trivial);
          eval_schedules exec evaluator op (Hashtbl.create 16) r ~first:0
            (Array.of_list selected);
          finish r)

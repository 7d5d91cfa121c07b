(* The reference sampler: the list-based draw [Auto_scheduler] used
   before it drew by option index — choices through [choice_list]
   below, tile options memoized per trip count in a
   [Hashtbl], each attempt assembled into a [Schedule.t] and deduped on
   that structural value. Written for clarity, not speed. The indexed
   sampler in lib/autosched must return the same candidates in the same
   order (test_autosched.ml, "sampler matches the list reference"). *)

(* A uniform draw from a non-empty list: one [Util.Rng.int] over its
   length, the draw [Util.Rng.choice] makes on an array. *)
let choice_list rng l =
  match l with
  | [] -> invalid_arg "choice_list: empty list"
  | _ -> List.nth l (Util.Rng.int rng (List.length l))

(* The paper's constraints, as the auto-scheduler fixes them. *)
let min_tiled_loops = 2
let par_loops_considered = 3

let max_tile_size = 64
let max_options_per_loop = 4

let loop_options (config : Auto_scheduler.config) trip =
  let pool =
    match config.Auto_scheduler.tile_sizes with
    | [] ->
        List.filter (fun d -> d <= max_tile_size && d > 1) (Loop_transforms.divisors trip)
    | sizes -> List.filter (fun s -> s > 1 && s <= trip && trip mod s = 0) sizes
  in
  let sorted = List.sort (fun a b -> compare b a) pool in
  List.filteri (fun i _ -> i < max_options_per_loop) sorted |> List.cons 0

let count_nonzero sizes =
  Array.fold_left (fun acc s -> if s > 0 then acc + 1 else acc) 0 sizes

type space = {
  prefix : Schedule.t;
  trips : int array;
  par_slots : (int * int list) list;
  swap_opts : int option list;
}

let make_space (config : Auto_scheduler.config) ~prefix ~trips ~iter_kinds =
  let n = Array.length trips in
  let eligible = ref [] and taken = ref 0 in
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
  let swap_opts =
    if n >= 2 then
      None :: List.init (n - 1) (fun i -> Some i)
    else [ None ]
  in
  { prefix; trips; par_slots = List.rev !eligible; swap_opts }

let spaces (config : Auto_scheduler.config) (op : Linalg.t) =
  let plain =
    make_space config ~prefix:[] ~trips:(Linalg.loop_bounds op)
      ~iter_kinds:op.Linalg.iter_kinds
  in
  if config.Auto_scheduler.include_im2col && Linalg.is_conv op then
    match Im2col.rewrite op with
    | Ok (gemm, _) ->
        [ plain;
          make_space config ~prefix:[ Schedule.Im2col ]
            ~trips:(Linalg.loop_bounds gemm) ~iter_kinds:gemm.Linalg.iter_kinds ]
    | Error _ -> [ plain ]
  else [ plain ]

let assemble ~prefix ~par_opt ~tile_combo ~swap_opt =
  prefix
  @ (match par_opt with
    | Some sizes when count_nonzero sizes > 0 -> [ Schedule.Parallelize sizes ]
    | Some _ | None -> [])
  @ (if count_nonzero tile_combo > 0 then [ Schedule.Tile tile_combo ] else [])
  @ (match swap_opt with Some i -> [ Schedule.Swap i ] | None -> [])
  @ [ Schedule.Vectorize ]

let random_candidate rng ~opts space =
  let par_opt =
    if space.par_slots <> [] && Util.Rng.bool rng then begin
      let sizes = Array.make (Array.length space.trips) 0 in
      List.iter
        (fun (l, opts) -> sizes.(l) <- choice_list rng opts)
        space.par_slots;
      if Array.exists (fun s -> s > 0) sizes then Some sizes else None
    end
    else None
  in
  let effective, par_count =
    match par_opt with
    | None -> (space.trips, 0)
    | Some sizes ->
        ( Array.mapi (fun l s -> if s > 0 then s else space.trips.(l)) sizes,
          count_nonzero sizes )
  in
  let tile_combo =
    Array.map (fun trip -> choice_list rng (opts trip)) effective
  in
  if par_count + count_nonzero tile_combo < min_tiled_loops
  then None
  else
    Some
      (assemble ~prefix:space.prefix ~par_opt ~tile_combo
         ~swap_opt:(choice_list rng space.swap_opts))

let gather_candidates (config : Auto_scheduler.config) op =
  let budget = config.Auto_scheduler.max_schedules in
  if Auto_scheduler.space_total config op <= budget then
    List.of_seq (Auto_scheduler.candidates config op)
  else begin
    let rng = Util.Rng.create (Auto_scheduler.sampling_seed op) in
    let spaces = spaces config op in
    let memo = Hashtbl.create 32 in
    let opts trip =
      match Hashtbl.find_opt memo trip with
      | Some o -> o
      | None ->
          let o = loop_options config trip in
          Hashtbl.add memo trip o;
          o
    in
    let trivial = [ Schedule.Vectorize ] in
    let seen = Hashtbl.create 1024 in
    Hashtbl.add seen trivial ();
    let out = ref [] and got = ref 0 and attempts = ref 0 in
    while !got < budget - 1 && !attempts < budget * 20 do
      incr attempts;
      let space = choice_list rng spaces in
      match random_candidate rng ~opts space with
      | None -> ()
      | Some sched ->
          if not (Hashtbl.mem seen sched) then begin
            Hashtbl.add seen sched ();
            out := sched :: !out;
            incr got
          end
    done;
    trivial :: List.rev !out
  end

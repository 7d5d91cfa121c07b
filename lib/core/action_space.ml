let t_tile = 0
let t_parallelize = 1
let t_interchange = 2

let transformation_label = function
  | 0 -> "tiling"
  | 1 -> "parallelization"
  | 2 -> "interchange"
  | 3 -> "im2col"
  | 4 -> "vectorization"
  | i -> invalid_arg (Printf.sprintf "transformation_label: %d" i)

type hierarchical = {
  transform : int;
  tile_choices : int array;
  swap_choice : int;
}

type masks = {
  t_mask : bool array;
  tile_mask : bool array array;
  par_mask : bool array array;
  swap_mask : bool array;
}

(* --- static legality context ---------------------------------------

   When [Env_config.static_legality] is on, the paper's syntactic masks
   are intersected with the sound verdicts of the dependence analysis.
   The analysis indexes loops by absolute position in the nest; point
   loop [l] sits at [p0 + l] where [p0] is the point-band start. *)

type legality_ctx = { leg : Legality.t; p0 : int }

let legality_of (cfg : Env_config.t) (state : Sched_state.t) =
  if cfg.Env_config.static_legality then
    Some
      {
        leg = Legality.analyze state.Sched_state.nest;
        p0 = Loop_transforms.point_band_start state.Sched_state.nest;
      }
  else None

let static_parallel_ok ctx l =
  match ctx with
  | None -> true
  | Some { leg; p0 } -> Legality.can_parallelize leg (p0 + l)

let static_swap_ok ctx i =
  match ctx with
  | None -> true
  | Some { leg; p0 } -> Legality.can_interchange leg (p0 + i)

let static_tile_ok ctx =
  match ctx with
  | None -> true
  | Some { leg; p0 } -> Legality.can_tile leg ~band_start:p0

let static_vectorize_ok ctx =
  match ctx with None -> true | Some { leg; _ } -> Legality.can_vectorize leg

(* The one place the adjacent-swap condition lives: both the
   hierarchical [masks] and the flat [simple_mask] route through it, so
   the two menus cannot drift. *)
let swap_legal ?ctx (state : Sched_state.t) i =
  Sched_state.can_interchange state
  && i >= 0
  && i < Sched_state.n_point_loops state - 1
  && static_swap_ok ctx i

(* Tile size selected by each slot for each point loop: slot 0 = no
   tiling; slots 1.. = largest divisors <= max_tile_size, descending
   (1 and the full trip count are excluded — both leave the loop
   effectively untiled). A downward scan stops once the slots are full,
   so a step costs at most [max_tile_size] divisions per loop, however
   long the loop. *)
let slot_sizes (cfg : Env_config.t) (state : Sched_state.t) =
  let m = Env_config.n_tile_choices cfg in
  Array.map
    (fun trip ->
      let slots = Array.make m 0 in
      let next = ref 1 and d = ref (Int.min (trip - 1) cfg.Env_config.max_tile_size) in
      while !next < m && !d >= 2 do
        if trip mod !d = 0 then begin
          slots.(!next) <- !d;
          incr next
        end;
        decr d
      done;
      slots)
    (Sched_state.point_trip_counts state)

let masks (cfg : Env_config.t) (state : Sched_state.t) =
  let n_max = cfg.Env_config.n_max in
  let m = Env_config.n_tile_choices cfg in
  let n_loops = Sched_state.n_point_loops state in
  let sizes = slot_sizes cfg state in
  let ctx = legality_of cfg state in
  let tile_mask =
    Array.init n_max (fun l ->
        if l < n_loops then
          Array.init m (fun s -> s = 0 || sizes.(l).(s) > 0)
        else Array.init m (fun j -> j = 0))
  in
  let par_mask =
    Array.init n_max (fun l ->
        if
          l < n_loops
          && Sched_state.parallelizable_loop state l
          && static_parallel_ok ctx l
        then Array.copy tile_mask.(l)
        else Array.init m (fun j -> j = 0))
  in
  let has_positive rows =
    Array.exists
      (fun row -> Array.exists (fun b -> b) (Array.sub row 1 (m - 1)))
      rows
  in
  let some_tiling_possible = has_positive (Array.sub tile_mask 0 (Int.min n_loops n_max)) in
  let some_par_possible = has_positive (Array.sub par_mask 0 (Int.min n_loops n_max)) in
  let swap_mask = Array.init n_max (fun i -> swap_legal ?ctx state i) in
  let t_mask =
    [|
      Sched_state.can_tile state && some_tiling_possible && static_tile_ok ctx;
      Sched_state.can_parallelize state && some_par_possible;
      Array.exists (fun b -> b) swap_mask;
      Sched_state.can_im2col state;
      Sched_state.can_vectorize state && static_vectorize_ok ctx;
    |]
  in
  { t_mask; tile_mask; par_mask; swap_mask }

let to_transformation (cfg : Env_config.t) (state : Sched_state.t) action =
  let slots = slot_sizes cfg state in
  let n_loops = Sched_state.n_point_loops state in
  let sizes_of_choices () =
    Array.init n_loops (fun l -> slots.(l).(action.tile_choices.(l)))
  in
  match action.transform with
  | 0 ->
      let sizes = sizes_of_choices () in
      if Array.for_all (fun s -> s = 0) sizes then None
      else Some (Schedule.Tile sizes)
  | 1 ->
      let sizes = sizes_of_choices () in
      if Array.for_all (fun s -> s = 0) sizes then None
      else Some (Schedule.Parallelize sizes)
  | 2 -> Some (Schedule.Swap action.swap_choice)
  | 3 -> Some Schedule.Im2col
  | 4 -> Some Schedule.Vectorize
  | i -> invalid_arg (Printf.sprintf "Action_space.to_transformation: %d" i)

let cardinality (cfg : Env_config.t) ~n_loops =
  let m = float_of_int (Env_config.n_tile_choices cfg) in
  let n = float_of_int n_loops in
  let rec fact k = if k <= 1.0 then 1.0 else k *. fact (k -. 1.0) in
  (2.0 *. (m ** n)) +. fact n +. 2.0

type simple_item = { label : string; transformation : Schedule.transformation }

let simple_menu (cfg : Env_config.t) ~n_loops =
  ignore cfg;
  let tiles =
    List.map
      (fun size ->
        {
          label = Printf.sprintf "tile-all-%d" size;
          transformation = Schedule.Tile (Array.make n_loops size);
        })
      [ 16; 32; 64 ]
  in
  let pars =
    List.map
      (fun size ->
        let sizes = Array.make n_loops 0 in
        sizes.(0) <- size;
        if n_loops > 1 then sizes.(1) <- size;
        {
          label = Printf.sprintf "parallelize-outer-%d" size;
          transformation = Schedule.Parallelize sizes;
        })
      [ 16; 32; 64 ]
  in
  let swaps =
    List.init (max 0 (n_loops - 1)) (fun i ->
        { label = Printf.sprintf "swap-%d" i; transformation = Schedule.Swap i })
  in
  Array.of_list
    (tiles @ pars @ swaps
    @ [
        { label = "im2col"; transformation = Schedule.Im2col };
        { label = "vectorize"; transformation = Schedule.Vectorize };
      ])

(* Zero out tile sizes that do not divide the current trip counts; an
   entry is legal when at least one loop keeps a positive size. *)
let legalize_sizes (state : Sched_state.t) sizes =
  let trips = Sched_state.point_trip_counts state in
  if Array.length sizes <> Array.length trips then None
  else begin
    let fixed =
      Array.mapi
        (fun l s -> if s > 0 && s <= trips.(l) && trips.(l) mod s = 0 then s else 0)
        sizes
    in
    if Array.exists (fun s -> s > 0) fixed then Some fixed else None
  end

let legalize_par_sizes ?ctx (state : Sched_state.t) sizes =
  match legalize_sizes state sizes with
  | None -> None
  | Some fixed ->
      let fixed =
        Array.mapi
          (fun l s ->
            if
              Sched_state.parallelizable_loop state l
              && static_parallel_ok ctx l
            then s
            else 0)
          fixed
      in
      if Array.exists (fun s -> s > 0) fixed then Some fixed else None

let legalize ?ctx (state : Sched_state.t) (tr : Schedule.transformation) =
  match tr with
  | Schedule.Tile sizes ->
      if static_tile_ok ctx then
        Option.map (fun s -> Schedule.Tile s) (legalize_sizes state sizes)
      else None
  | Schedule.Parallelize sizes ->
      Option.map
        (fun s -> Schedule.Parallelize s)
        (legalize_par_sizes ?ctx state sizes)
  | Schedule.Swap i ->
      if i < Sched_state.n_point_loops state - 1 && static_swap_ok ctx i then
        Some tr
      else None
  | Schedule.Interchange _ -> if static_tile_ok ctx then Some tr else None
  | Schedule.Im2col -> Some tr
  | Schedule.Vectorize -> if static_vectorize_ok ctx then Some tr else None
  | Schedule.Unroll f ->
      if f >= 2 then Some tr else None

let simple_mask ?ctx (state : Sched_state.t) menu =
  Array.map
    (fun item ->
      match item.transformation with
      | Schedule.Tile sizes ->
          Sched_state.can_tile state
          && legalize_sizes state sizes <> None
          && static_tile_ok ctx
      | Schedule.Parallelize sizes ->
          Sched_state.can_parallelize state
          && legalize_par_sizes ?ctx state sizes <> None
      | Schedule.Swap i -> swap_legal ?ctx state i
      | Schedule.Interchange _ ->
          Sched_state.can_interchange state && static_tile_ok ctx
      | Schedule.Im2col -> Sched_state.can_im2col state
      | Schedule.Vectorize ->
          Sched_state.can_vectorize state && static_vectorize_ok ctx
      | Schedule.Unroll _ -> Sched_state.can_tile state)
    menu

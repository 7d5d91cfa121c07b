(* Semantic-preservation and structural tests for loop transformations. *)

let check = Test_helpers.check_schedule_preserves

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Loop_transforms.divisors 12);
  Alcotest.(check (list int)) "7" [ 1; 7 ] (Loop_transforms.divisors 7);
  Alcotest.(check bool) "rejects 0" true
    (match Loop_transforms.divisors 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tile_preserves () = check (Test_helpers.small_matmul ()) [ Schedule.Tile [| 4; 4; 8 |] ]

let test_tile_partial_preserves () =
  check (Test_helpers.small_matmul ()) [ Schedule.Tile [| 0; 6; 0 |] ]

let test_multi_level_tiling_preserves () =
  check (Test_helpers.small_matmul ())
    [ Schedule.Tile [| 4; 0; 8 |]; Schedule.Tile [| 2; 4; 2 |] ]

let test_interchange_preserves () =
  check (Test_helpers.small_matmul ()) [ Schedule.Interchange [| 2; 0; 1 |] ]

let test_swap_preserves () = check (Test_helpers.small_matmul ()) [ Schedule.Swap 1 ]

let test_parallelize_preserves () =
  check (Test_helpers.small_matmul ()) [ Schedule.Parallelize [| 4; 4; 0 |] ]

let test_vectorize_preserves () =
  check (Test_helpers.small_matmul ()) [ Schedule.Vectorize ]

let test_full_pipeline_preserves () =
  check (Test_helpers.small_matmul ())
    [
      Schedule.Parallelize [| 4; 6; 0 |];
      Schedule.Tile [| 2; 3; 4 |];
      Schedule.Swap 0;
      Schedule.Vectorize;
    ]

let test_conv_tiling_preserves () =
  check (Test_helpers.small_conv ()) [ Schedule.Tile [| 0; 3; 2; 2; 0; 0; 0 |] ]

let test_conv_interchange_preserves () =
  check (Test_helpers.small_conv ()) [ Schedule.Swap 3; Schedule.Swap 2 ]

let test_maxpool_schedule_preserves () =
  check (Test_helpers.small_maxpool ())
    [ Schedule.Parallelize [| 0; 2; 2; 0; 0; 0 |]; Schedule.Vectorize ]

let test_tile_structure () =
  let op = Test_helpers.small_matmul () in
  let nest = Lower.to_loop_nest op in
  match Loop_transforms.tile [| 4; 0; 8 |] nest with
  | Error e -> Alcotest.fail e
  | Ok t ->
      Alcotest.(check int) "5 loops" 5 (Loop_nest.n_loops t);
      Alcotest.(check (array int)) "trips" [| 2; 2; 4; 12; 8 |] (Loop_nest.trip_counts t);
      Alcotest.(check int) "point band starts at 2" 2 (Loop_transforms.point_band_start t)

let test_tile_rejects_non_divisor () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "error" true
    (Result.is_error (Loop_transforms.tile [| 3; 0; 0 |] nest))

let test_tile_rejects_all_zero () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "error" true
    (Result.is_error (Loop_transforms.tile [| 0; 0; 0 |] nest))

let test_tile_rejects_bad_arity () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "error" true
    (Result.is_error (Loop_transforms.tile [| 2; 2 |] nest))

let test_interchange_rejects_non_permutation () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "error" true
    (Result.is_error (Loop_transforms.interchange [| 0; 0; 1 |] nest))

let test_swap_rejects_out_of_range () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "error" true
    (Result.is_error (Loop_transforms.swap_adjacent 2 nest))

let test_interchange_targets_point_band () =
  (* After tiling, interchange permutes the inner (point) loops only. *)
  let op = Test_helpers.small_matmul () in
  let nest = Lower.to_loop_nest op in
  let tiled = Result.get_ok (Loop_transforms.tile [| 4; 4; 4 |] nest) in
  let swapped = Result.get_ok (Loop_transforms.swap_adjacent 0 tiled) in
  let outer_trips t = Array.sub (Loop_nest.trip_counts t) 0 3 in
  Alcotest.(check (array int)) "tile band untouched" (outer_trips tiled)
    (outer_trips swapped);
  let band = Loop_transforms.point_band swapped in
  Alcotest.(check (array int)) "point origins swapped" [| 1; 0; 2 |]
    (Array.map (fun (l : Loop_nest.loop) -> l.Loop_nest.origin) band)

let test_vectorize_marks_innermost () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  let v = Result.get_ok (Loop_transforms.vectorize nest) in
  let loops = v.Loop_nest.loops in
  Alcotest.(check bool) "flagged" true
    (loops.(Array.length loops - 1).Loop_nest.kind = Loop_nest.Vector);
  Alcotest.(check bool) "twice is error" true
    (Result.is_error (Loop_transforms.vectorize v))

let test_parallel_band_flag () =
  let has_parallel_band (nest : Loop_nest.t) =
    Array.exists (fun l -> l.Loop_nest.kind = Loop_nest.Parallel) nest.Loop_nest.loops
  in
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  Alcotest.(check bool) "none yet" false (has_parallel_band nest);
  let p = Result.get_ok (Loop_transforms.tile ~parallel:true [| 4; 0; 0 |] nest) in
  Alcotest.(check bool) "parallel after" true (has_parallel_band p)

let qcheck_random_schedules_preserve =
  (* Any sequence of legal tiles/swaps on a small conv preserves
     semantics. *)
  QCheck.Test.make ~name:"random schedules preserve conv semantics" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let op = Test_helpers.small_conv () in
      let state = ref (Sched_state.init op) in
      let steps = ref [] in
      for _ = 1 to 3 do
        let trips = Sched_state.point_trip_counts !state in
        let action =
          if Util.Rng.bool rng then begin
            let sizes =
              Array.map
                (fun t ->
                  let divs = Array.of_list (Loop_transforms.divisors t) in
                  let d = Util.Rng.choice rng divs in
                  if Util.Rng.bool rng || d = 1 then 0 else d)
                trips
            in
            if Array.exists (fun s -> s > 0) sizes then Some (Schedule.Tile sizes)
            else None
          end
          else Some (Schedule.Swap (Util.Rng.int rng (Array.length trips - 1)))
        in
        match action with
        | None -> ()
        | Some tr -> (
            match Sched_state.apply !state tr with
            | Ok st ->
                state := st;
                steps := tr :: !steps
            | Error _ -> ())
      done;
      Test_helpers.check_schedule_preserves op (List.rev !steps);
      true)

(* The tiling of record: point-band detection by a table of seen
   origins, and subscripts rebuilt by [Affine.substitute] over
   [d -> size*tile + point]. [Loop_transforms] now remaps coefficients
   directly and scans origins without a table; both must agree with
   these on every nest. [reference_tile] assumes valid sizes. *)
let reference_point_band_start (nest : Loop_nest.t) =
  let n = Array.length nest.Loop_nest.loops in
  let seen = Hashtbl.create 8 in
  let rec scan i =
    if i < 0 then 0
    else
      let origin = nest.Loop_nest.loops.(i).Loop_nest.origin in
      if Hashtbl.mem seen origin then i + 1
      else begin
        Hashtbl.add seen origin ();
        scan (i - 1)
      end
  in
  scan (n - 1)

let reference_tile ~parallel sizes (nest : Loop_nest.t) =
  let loops = nest.Loop_nest.loops in
  let n = Array.length loops in
  let p0 = reference_point_band_start nest in
  let point_count = n - p0 in
  let tiled_rels =
    List.filter (fun rel -> sizes.(rel) > 0) (List.init point_count Fun.id)
  in
  let k = List.length tiled_rels in
  let new_n = n + k in
  let tile_band =
    List.map
      (fun rel ->
        let l = loops.(p0 + rel) in
        {
          Loop_nest.ub = l.Loop_nest.ub / sizes.(rel);
          kind = (if parallel then Loop_nest.Parallel else Loop_nest.Seq);
          origin = l.Loop_nest.origin;
        })
      tiled_rels
  in
  let new_point =
    Array.init point_count (fun rel ->
        let l = loops.(p0 + rel) in
        if sizes.(rel) > 0 then { l with Loop_nest.ub = sizes.(rel) } else l)
  in
  let new_loops =
    Array.concat [ Array.sub loops 0 p0; Array.of_list tile_band; new_point ]
  in
  let subst =
    Array.init n (fun j ->
        if j < p0 then Affine.dim new_n j
        else
          let rel = j - p0 in
          let point = p0 + k + rel in
          match List.find_index (( = ) rel) tiled_rels with
          | None -> Affine.dim new_n point
          | Some r -> Affine.expr new_n [ (p0 + r, sizes.(rel)); (point, 1) ])
  in
  Loop_nest.map_body_exprs
    (fun e -> Affine.substitute e subst)
    { nest with Loop_nest.loops = new_loops }

let tile_kinds =
  [| "matmul"; "conv2d"; "maxpool"; "add"; "relu"; "batch_matmul";
     "conv2d_nchw"; "dwconv"; "avgpool"; "bias_add"; "exp" |]

(* Random divisor sizes for the point band, at least one positive. *)
let random_tile_sizes rng (nest : Loop_nest.t) =
  let band = Loop_transforms.point_band nest in
  let sizes =
    Array.map
      (fun (l : Loop_nest.loop) ->
        if Util.Rng.bool rng then 0
        else
          Util.Rng.choice rng
            (Array.of_list (Loop_transforms.divisors l.Loop_nest.ub)))
      band
  in
  if Array.for_all (fun s -> s = 0) sizes then begin
    let l = Util.Rng.int rng (Array.length band) in
    sizes.(l) <- band.(l).Loop_nest.ub
  end;
  sizes

let qcheck_tile_matches_substitution =
  QCheck.Test.make ~name:"tile and point_band_start match the substitution"
    ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let op = Generator.random_op rng (Util.Rng.choice rng tile_kinds) in
      let nest = ref (Lower.to_loop_nest op) in
      for _ = 1 to Util.Rng.int rng 3 do
        nest :=
          reference_tile ~parallel:(Util.Rng.bool rng)
            (random_tile_sizes rng !nest) !nest
      done;
      let nest = !nest in
      let parallel = Util.Rng.bool rng in
      let sizes = random_tile_sizes rng nest in
      Loop_transforms.point_band_start nest = reference_point_band_start nest
      &&
      match Loop_transforms.tile ~parallel sizes nest with
      | Error e -> QCheck.Test.fail_reportf "valid sizes rejected: %s" e
      | Ok tiled ->
          tiled = reference_tile ~parallel sizes nest
          && Loop_transforms.point_band_start tiled
             = reference_point_band_start tiled)

let test_tile_rejects_wrong_arity_subscript () =
  let nest =
    Loop_nest.map_body_exprs
      (fun e -> { e with Affine.coeffs = Array.append e.Affine.coeffs [| 0 |] })
      (Lower.to_loop_nest (Test_helpers.small_matmul ()))
  in
  Alcotest.(check bool) "Invalid_argument" true
    (match Loop_transforms.tile [| 2; 0; 0 |] nest with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* [swap_adjacent i] is [interchange] of the transposition of [i] and
   [i+1]: the same loops and the same subscripts, on random tiled and
   permuted nests (conv and pool subscripts with equal coefficients
   included), and the same [Error] for an index outside the point
   band. *)
let qcheck_swap_matches_interchange =
  QCheck.Test.make ~name:"swap_adjacent matches interchange of the transposition"
    ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let op = Generator.random_op rng (Util.Rng.choice rng tile_kinds) in
      let nest = ref (Lower.to_loop_nest op) in
      for _ = 1 to Util.Rng.int rng 3 do
        nest :=
          reference_tile ~parallel:(Util.Rng.bool rng)
            (random_tile_sizes rng !nest) !nest
      done;
      let point_count = Array.length (Loop_transforms.point_band !nest) in
      let perm = Array.init point_count Fun.id in
      Util.Rng.shuffle rng perm;
      let nest =
        match Loop_transforms.interchange perm !nest with
        | Ok permuted -> permuted
        | Error e -> QCheck.Test.fail_reportf "interchange failed: %s" e
      in
      let agrees i =
        let want =
          if i < 0 || i >= point_count - 1 then
            Error (Printf.sprintf "swap_adjacent: index %d out of range" i)
          else
            Loop_transforms.interchange
              (Array.init point_count (fun j ->
                   if j = i then i + 1 else if j = i + 1 then i else j))
              nest
        in
        Loop_transforms.swap_adjacent i nest = want
        || QCheck.Test.fail_reportf "swap %d of a %d-loop point band differs" i
             point_count
      in
      List.for_all agrees (List.init (point_count + 3) (fun i -> i - 2)))

let suite =
  [
    Alcotest.test_case "divisors" `Quick test_divisors;
    Alcotest.test_case "tile preserves" `Quick test_tile_preserves;
    Alcotest.test_case "partial tile preserves" `Quick test_tile_partial_preserves;
    Alcotest.test_case "multi-level tiling preserves" `Quick
      test_multi_level_tiling_preserves;
    Alcotest.test_case "interchange preserves" `Quick test_interchange_preserves;
    Alcotest.test_case "swap preserves" `Quick test_swap_preserves;
    Alcotest.test_case "parallelize preserves" `Quick test_parallelize_preserves;
    Alcotest.test_case "vectorize preserves" `Quick test_vectorize_preserves;
    Alcotest.test_case "full pipeline preserves" `Quick test_full_pipeline_preserves;
    Alcotest.test_case "conv tiling preserves" `Quick test_conv_tiling_preserves;
    Alcotest.test_case "conv interchange preserves" `Quick
      test_conv_interchange_preserves;
    Alcotest.test_case "maxpool schedule preserves" `Quick
      test_maxpool_schedule_preserves;
    Alcotest.test_case "tile structure" `Quick test_tile_structure;
    Alcotest.test_case "tile rejects non-divisor" `Quick test_tile_rejects_non_divisor;
    Alcotest.test_case "tile rejects all-zero" `Quick test_tile_rejects_all_zero;
    Alcotest.test_case "tile rejects bad arity" `Quick test_tile_rejects_bad_arity;
    Alcotest.test_case "interchange rejects non-perm" `Quick
      test_interchange_rejects_non_permutation;
    Alcotest.test_case "swap rejects out of range" `Quick test_swap_rejects_out_of_range;
    Alcotest.test_case "interchange targets point band" `Quick
      test_interchange_targets_point_band;
    Alcotest.test_case "vectorize marks innermost" `Quick test_vectorize_marks_innermost;
    Alcotest.test_case "parallel band flag" `Quick test_parallel_band_flag;
    QCheck_alcotest.to_alcotest qcheck_random_schedules_preserve;
    QCheck_alcotest.to_alcotest qcheck_tile_matches_substitution;
    Alcotest.test_case "tile rejects wrong-arity subscript" `Quick
      test_tile_rejects_wrong_arity_subscript;
    QCheck_alcotest.to_alcotest qcheck_swap_matches_interchange;
  ]

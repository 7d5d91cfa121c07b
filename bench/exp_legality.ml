(* Legality-mask experiment: what the static dependence analysis adds on
   top of the paper's syntactic masks (EXPERIMENTS.md "Static legality
   masks").

   Three questions:
   1. Audit — on the generated dataset, how often does a verdict differ
      between paper-masks-only and masks intersected with the analysis?
      (Expected: never. The paper's syntactic rules — reduction dims not
      parallelized, vectorize terminal — are exactly what the dependence
      tests derive for matmul/conv/pool-style ops. The analysis earns
      its keep on nests the syntactic rules cannot see, cf. the
      adversarial examples under examples/nests/.)
   2. Cost — microseconds per mask computation with and without the
      analysis, and per Legality.analyze call as nests grow under
      tiling.
   3. Outcome — random-policy episode reward and wall time under both
      configurations, same seeds: identical rewards expected on the
      dataset, with the analysis overhead quantified. *)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log (Float.max x 1e-9)) 0.0 xs
        /. float_of_int (List.length xs))

let count_mask (m : Action_space.masks) =
  let bools b = Array.fold_left (fun a x -> if x then a + 1 else a) 0 b in
  bools m.Action_space.t_mask
  + Array.fold_left (fun a r -> a + bools r) 0 m.Action_space.tile_mask
  + Array.fold_left (fun a r -> a + bools r) 0 m.Action_space.par_mask
  + bools m.Action_space.swap_mask

(* entries admitted by [loose] but rejected by [strict] *)
let tightened (strict : Action_space.masks) (loose : Action_space.masks) =
  let row a b =
    let n = ref 0 in
    Array.iteri (fun i x -> if b.(i) && not x then incr n) a;
    !n
  in
  let rows a b =
    let n = ref 0 in
    Array.iteri (fun i r -> n := !n + row r b.(i)) a;
    !n
  in
  row strict.Action_space.t_mask loose.Action_space.t_mask
  + rows strict.Action_space.tile_mask loose.Action_space.tile_mask
  + rows strict.Action_space.par_mask loose.Action_space.par_mask
  + row strict.Action_space.swap_mask loose.Action_space.swap_mask

let audit (c : Bench_common.config) =
  Bench_common.subheading "Mask audit over the generated dataset";
  let split = Generator.generate ~seed:c.Bench_common.seed () in
  let with_cfg = Env_config.default in
  let without_cfg = Env_config.with_static_legality false Env_config.default in
  let ops = Array.append split.Generator.train split.Generator.validation in
  let total = ref 0 and removed = ref 0 and unsound = ref 0 in
  Array.iter
    (fun op ->
      let st = Sched_state.init op in
      let strict = Action_space.masks with_cfg st in
      let loose = Action_space.masks without_cfg st in
      total := !total + count_mask loose;
      removed := !removed + tightened strict loose;
      (* the strict mask may never admit what the loose one rejects *)
      unsound := !unsound + tightened loose strict)
    ops;
  Printf.printf "%d ops | %d mask entries admitted by paper rules\n"
    (Array.length ops) !total;
  Printf.printf "entries removed by the dependence analysis : %d\n" !removed;
  Printf.printf "entries added (must be 0)                  : %d\n" !unsound;
  if !removed = 0 then
    Printf.printf
      "-> the syntactic rules are exactly sound on the dataset ops; see\n\
      \   examples/nests/ for nests where only the analysis gets it right\n"

let cost (_c : Bench_common.config) =
  Bench_common.subheading "Analysis cost per mask computation";
  let op = Linalg.matmul ~m:512 ~n:512 ~k:512 () in
  let time calls f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e6
  in
  let with_cfg = Env_config.default in
  let without_cfg = Env_config.with_static_legality false Env_config.default in
  Printf.printf "%-44s %12s\n" "state" "us/masks";
  let states =
    [
      ("matmul, untransformed (3 loops)", Sched_state.init op);
      ( "matmul tiled+parallelized (8 loops)",
        Result.get_ok
          (Sched_state.apply_all op
             [
               Schedule.Parallelize [| 64; 64; 0 |]; Schedule.Tile [| 8; 64; 64 |];
             ]) );
    ]
  in
  List.iter
    (fun (label, st) ->
      let us_on = time 200 (fun () -> ignore (Action_space.masks with_cfg st)) in
      let us_off =
        time 200 (fun () -> ignore (Action_space.masks without_cfg st))
      in
      Printf.printf "%-44s %12.1f   (syntactic only: %.1f)\n" label us_on us_off)
    states

let episodes (c : Bench_common.config) =
  Bench_common.subheading
    "Random-policy episodes: static masks vs paper masks only";
  let split = Generator.generate ~seed:c.Bench_common.seed () in
  let n_ops = min 12 (Array.length split.Generator.train) in
  let ops = Array.sub split.Generator.train 0 n_ops in
  let per_op = 10 in
  let run cfg =
    let env = Env.create cfg in
    let rng = Util.Rng.create (c.Bench_common.seed + 5) in
    let speedups = ref [] in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun op ->
        for _ = 1 to per_op do
          ignore (Env.reset env op);
          let menu =
            Action_space.simple_menu cfg ~n_loops:(Linalg.n_loops op)
          in
          let finished = ref false in
          while not !finished do
            let st = Env.state env in
            let ctx = Action_space.legality_of cfg st in
            let mask = Action_space.simple_mask ?ctx st menu in
            let legal = ref [] in
            Array.iteri (fun i b -> if b then legal := i :: !legal) mask;
            let tr =
              match !legal with
              | [] -> None
              | l ->
                  let i = List.nth l (Util.Rng.int rng (List.length l)) in
                  Action_space.legalize ?ctx st
                    menu.(i).Action_space.transformation
            in
            let r = Env.step env tr in
            if r.Env.terminal then finished := true
          done;
          speedups := Env.current_speedup env :: !speedups
        done)
      ops;
    (Unix.gettimeofday () -. t0, geomean !speedups)
  in
  let secs_on, sp_on = run Env_config.default in
  let secs_off, sp_off =
    run (Env_config.with_static_legality false Env_config.default)
  in
  Printf.printf "%-28s %14s %18s\n" "masks" "wall (s)" "geomean speedup";
  Printf.printf "%-28s %14.2f %18.2fx\n" "paper + static legality" secs_on sp_on;
  Printf.printf "%-28s %14.2f %18.2fx\n" "paper only" secs_off sp_off;
  Printf.printf
    "(identical speedups expected: on dataset ops the verdicts coincide)\n"

let run (c : Bench_common.config) =
  Bench_common.heading
    "Legality experiment: dependence-analysis masks vs paper masks";
  audit c;
  cost c;
  episodes c

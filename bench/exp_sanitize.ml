(* Sanitizer sweep: run randomized schedules over a corpus of small ops
   with the post-transform verifier and the differential sanitizer
   forced on, and report the violation counters (EXPERIMENTS.md
   "Schedule sanitizer").

   Two claims are checked:
   1. Soundness in practice — over random legal episodes exercising all
      five transformations plus im2col, neither layer fires: every
      transformation the legality masks admit is verified structurally
      sound and differentially equivalent to its original.
   2. Teeth — a deliberately broken interchange (loops permuted without
      rewriting subscripts) is caught by the verifier, and an in-bounds
      reversed-subscript miscompile is caught by the sanitizer. *)

(* The transform-author mistakes we plant. *)
let buggy_interchange (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  let loops = Array.copy nest.Loop_nest.loops in
  let tmp = loops.(0) in
  loops.(0) <- loops.(n - 1);
  loops.(n - 1) <- tmp;
  { nest with Loop_nest.loops }

let reverse_last_subscript (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  let k_ub = nest.Loop_nest.loops.(n - 1).Loop_nest.ub in
  let rec fix (e : Loop_nest.sexpr) =
    match e with
    | Loop_nest.Load ({ Loop_nest.buf = "A"; idx } as r)
      when Array.length idx > 0 ->
        let last = Array.length idx - 1 in
        let s = idx.(last) in
        let idx = Array.copy idx in
        idx.(last) <-
          {
            Affine.coeffs = Array.map (fun c -> -c) s.Affine.coeffs;
            const = k_ub - 1 - s.Affine.const;
          };
        Loop_nest.Load { r with Loop_nest.idx }
    | Loop_nest.Load _ | Loop_nest.Const _ -> e
    | Loop_nest.Binop (b, x, y) -> Loop_nest.Binop (b, fix x, fix y)
    | Loop_nest.Unop (u, x) -> Loop_nest.Unop (u, fix x)
  in
  {
    nest with
    Loop_nest.body =
      List.map
        (fun (Loop_nest.Store (r, e)) -> Loop_nest.Store (r, fix e))
        nest.Loop_nest.body;
  }

let corpus () =
  [
    Linalg.matmul ~m:8 ~n:12 ~k:16 ();
    Linalg.matmul ~m:16 ~n:16 ~k:16 ();
    Linalg.batch_matmul ~b:2 ~m:6 ~n:8 ~k:10 ();
    Linalg.conv2d
      {
        Linalg.batch = 2;
        in_h = 8;
        in_w = 8;
        channels = 3;
        kernel_h = 3;
        kernel_w = 3;
        filters = 4;
        stride = 1;
      };
    Linalg.maxpool
      {
        Linalg.p_batch = 1;
        p_in_h = 8;
        p_in_w = 8;
        p_channels = 4;
        p_kernel = 2;
        p_stride = 2;
      };
    Linalg.relu [| 16; 24 |];
    Linalg.add [| 8; 8; 6 |];
  ]

(* Random legal episodes through the environment: every accepted action
   passes through Sched_state.apply (verifier) and every measurement
   through Evaluator.state_seconds (sanitizer). *)
let episodes rng cfg per_op ops =
  let env = Env.create cfg in
  List.iter
    (fun op ->
      for _ = 1 to per_op do
        ignore (Env.reset env op);
        let menu = Action_space.simple_menu cfg ~n_loops:(Linalg.n_loops op) in
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
        done
      done)
    ops

(* Explicit im2col coverage on the conv ops: the rewrite swaps the whole
   nest, so its differential check runs the packed-input recipe. *)
let im2col_sweep ops =
  List.iter
    (fun (op : Linalg.t) ->
      if Linalg.is_conv op then
        let scheds =
          [ [ Schedule.Im2col ];
            [ Schedule.Im2col; Schedule.Vectorize ];
            [ Schedule.Im2col; Schedule.Swap 1 ] ]
        in
        List.iter
          (fun sched ->
            match Sched_state.apply_all op sched with
            | Error _ -> ()
            | Ok st -> ignore (Differential.sanitize_state st))
          scheds)
    ops

let mutation_demo () =
  Bench_common.subheading "Mutation demo: planted transform bugs";
  let nest = Lower.to_loop_nest (Linalg.matmul ~m:8 ~n:12 ~k:16 ()) in
  let broken = buggy_interchange nest in
  let caught_verifier =
    match Verifier.check broken with Ok () -> false | Error _ -> true
  in
  Printf.printf "broken interchange (stale subscripts) caught by verifier : %b\n"
    caught_verifier;
  let mutant = reverse_last_subscript nest in
  let structurally_clean = Verifier.check mutant = Ok () in
  let caught_sanitizer =
    match Sanitizer.check ~reference:nest ~candidate:mutant with
    | Sanitizer.Mismatch _ -> true
    | Sanitizer.Matched | Sanitizer.Skipped _ -> false
  in
  Printf.printf
    "reversed subscript: in-bounds (verifier passes: %b), caught by \
     differential sanitizer : %b\n"
    structurally_clean caught_sanitizer;
  if not (caught_verifier && structurally_clean && caught_sanitizer) then
    Printf.printf "-> MUTATION DEMO FAILED: a planted bug went unnoticed\n"

let run ~quick (c : Bench_common.config) =
  Bench_common.heading
    "Sanitizer sweep: verifier + differential checks over random schedules";
  let verifier_was = Verifier.enabled () and sanitizer_was = Sanitizer.enabled () in
  Verifier.set_enabled true;
  Sanitizer.set_enabled true;
  (* The check counters are process-wide: report this sweep's deltas. *)
  let counter = Util.Metrics.counter Util.Metrics.global in
  let baseline =
    List.map
      (fun n -> (n, counter n))
      [ "verify_checks_total"; "verify_violations_total"; "sanitize_runs_total";
        "sanitize_skips_total"; "sanitize_violations_total" ]
  in
  let delta n = counter n - List.assoc n baseline in
  Fun.protect
    ~finally:(fun () ->
      Verifier.set_enabled verifier_was;
      Sanitizer.set_enabled sanitizer_was)
    (fun () ->
      let cfg = Env_config.default in
      let rng = Util.Rng.create (c.Bench_common.seed + 17) in
      let ops = corpus () in
      let per_op = if quick then 4 else 20 in
      let t0 = Unix.gettimeofday () in
      episodes rng cfg per_op ops;
      im2col_sweep ops;
      let secs = Unix.gettimeofday () -. t0 in
      let v_violations = delta "verify_violations_total" in
      let s_violations = delta "sanitize_violations_total" in
      Printf.printf
        "%d ops x %d random episodes (+ im2col sweep) in %.2f s wall-clock\n"
        (List.length ops) per_op secs;
      Printf.printf "verifier  : %6d checks            %d violations\n"
        (delta "verify_checks_total") v_violations;
      Printf.printf "sanitizer : %6d differential runs %d violations (%d skips)\n"
        (delta "sanitize_runs_total") s_violations (delta "sanitize_skips_total");
      if v_violations = 0 && s_violations = 0 then
        Printf.printf
          "-> zero violations: every legality-approved schedule is verified \
           and differentially clean\n"
      else
        Printf.printf "-> SWEEP FAILED: violations on legality-approved schedules\n";
      mutation_demo ())

(* Staged static-analysis suite: Bounds interval analysis, Footprint
   levels / regions / miss prediction (cross-checked against the
   trace-driven cache simulator), the post-transform Verifier (with
   mutation tests) and the differential Sanitizer (soundness over the
   randomized corpus, and teeth on a deliberately broken transform). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The check counters are process-wide, so tests read deltas: the
   function returned by [counters_since ()] gives how far a counter has
   moved since that call. *)
let counters_since () =
  let counter = Util.Metrics.counter Util.Metrics.global in
  let before =
    List.map
      (fun n -> (n, counter n))
      [ "verify_checks_total"; "verify_violations_total"; "sanitize_runs_total";
        "sanitize_skips_total"; "sanitize_violations_total" ]
  in
  fun name -> counter name - List.assoc name before

let sched s =
  match Schedule.of_string s with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "bad schedule %s: %s" s e

let apply_exn op s =
  match Sched_state.apply_all op (sched s) with
  | Ok st -> st
  | Error e -> Alcotest.failf "schedule %s rejected: %s" s e

(* ------------------------------------------------------------------ *)
(* Bounds                                                             *)
(* ------------------------------------------------------------------ *)

let test_interval_exact () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 200 do
    let n = 1 + Util.Rng.int rng 3 in
    let ubs = Array.init n (fun _ -> 1 + Util.Rng.int rng 4) in
    let e =
      {
        Affine.coeffs = Array.init n (fun _ -> Util.Rng.int rng 7 - 3);
        const = Util.Rng.int rng 9 - 4;
      }
    in
    (* Brute force over the whole box. *)
    let lo = ref max_int and hi = ref min_int in
    let rec enum iters k =
      if k = n then begin
        let v = Affine.eval_expr e iters in
        lo := min !lo v;
        hi := max !hi v
      end
      else
        for x = 0 to ubs.(k) - 1 do
          iters.(k) <- x;
          enum iters (k + 1)
        done
    in
    enum (Array.make n 0) 0;
    let iv = Bounds.expr_interval ~trip_counts:ubs e in
    check_int "lo" !lo iv.Bounds.lo;
    check_int "hi" !hi iv.Bounds.hi
  done

let test_bounds_matches_validate () =
  let rng = Util.Rng.create 11 in
  let checked_ok = ref 0 and checked_bad = ref 0 in
  for _ = 1 to 150 do
    let nest = Test_dependence.gen_nest rng in
    (* The generator sizes buffers to fit every subscript, so both the
       validator and the interval analysis must accept. *)
    check "fresh nest validates" true (Loop_nest.validate nest = Ok ());
    check "fresh nest bounds-sound" true
      (Bounds.is_sound (Bounds.analyze nest));
    incr checked_ok;
    (* Shrink the output buffer's first extent below a use: validate
       and Bounds must agree on the verdict, and the violation must
       name the buffer. *)
    let shape = Array.copy (Loop_nest.buffer_shape nest "O") in
    if shape.(0) > 1 then begin
      shape.(0) <- shape.(0) - 1;
      let broken =
        {
          nest with
          Loop_nest.buffers =
            List.map
              (fun (b, s) -> if b = "O" then (b, shape) else (b, s))
              nest.Loop_nest.buffers;
        }
      in
      let report = Bounds.analyze broken in
      let validate_rejects = Loop_nest.validate broken <> Ok () in
      check "bounds iff validate" validate_rejects
        (not (Bounds.is_sound report));
      if validate_rejects then begin
        incr checked_bad;
        check "violation names the buffer" true
          (List.exists
             (fun (v : Bounds.violation) -> v.Bounds.v_buf = "O")
             report.Bounds.violations)
      end
    end
  done;
  check "saw accepting nests" true (!checked_ok > 100);
  check "saw rejecting nests" true (!checked_bad > 20)

let test_bounds_after_schedules () =
  let schedules =
    [
      "T(2,2,2)";
      "T(4,4,4) S(1)";
      "I(1,0,2)";
      "P(2,0,0) T(2,2,2) V";
      "T(8,12,16) S(1) V";
      "U(2)";
      "T(2,6,4) I(2,0,1) U(2) V";
    ]
  in
  let op = Test_helpers.small_matmul () in
  List.iter
    (fun s ->
      let st = apply_exn op s in
      check (s ^ " bounds-sound") true
        (Bounds.is_sound (Bounds.analyze st.Sched_state.nest)))
    schedules

(* ------------------------------------------------------------------ *)
(* Footprint                                                          *)
(* ------------------------------------------------------------------ *)

let test_footprint_matmul () =
  (* matmul 4x5x6: A 4x6, B 6x5, C 4x5.
     depth 0: everything = 24 + 30 + 20         = 74
     depth 1 (j,k vary): A row 6, B 30, C row 5 = 41
     depth 2 (k varies): A 6, B col 6, C cell   = 13
     depth 3 (body):     one cell of each       = 3 *)
  let nest = Lower.to_loop_nest (Linalg.matmul ~m:4 ~n:5 ~k:6 ()) in
  let fp = Footprint.analyze nest in
  check_int "levels" 4 (Array.length fp.Footprint.levels);
  List.iteri
    (fun d expected ->
      check_int "level" expected (Footprint.level_elements fp d))
    [ 74; 41; 13; 3 ];
  check_int "reuse loop 0" 41 (Footprint.reuse_distance fp 0);
  check_int "reuse loop 2" 3 (Footprint.reuse_distance fp 2)

let exact_distinct (nest : Loop_nest.t) inputs =
  let seen = Hashtbl.create 256 in
  let on_access (a : Interp.access) =
    Hashtbl.replace seen (a.Interp.acc_buf, a.Interp.acc_index) ()
  in
  ignore (Interp.run ~on_access nest ~inputs);
  Hashtbl.length seen

let test_footprint_over_approximates () =
  let rng = Util.Rng.create 23 in
  let exact_hits = ref 0 in
  for _ = 1 to 120 do
    let nest = Test_dependence.gen_nest rng in
    let fp = Footprint.analyze nest in
    let exact = exact_distinct nest (Test_dependence.input_data rng nest) in
    let approx = Footprint.level_elements fp 0 in
    check "footprint >= exact distinct elements" true (approx >= exact);
    if approx = exact then incr exact_hits
  done;
  check "sometimes exact on the random corpus" true (!exact_hits > 0);
  (* On a dense matmul the bounding-box count is exact. *)
  let op = Test_helpers.small_matmul () in
  let nest = Lower.to_loop_nest op in
  let inputs = Test_helpers.input_buffers (Util.Rng.create 3) op in
  check_int "matmul exact" (exact_distinct nest inputs)
    (Footprint.level_elements (Footprint.analyze nest) 0)

let l1_misses nest =
  match Cache_sim.simulate_nest ~machine:Machine.tiny_test_machine nest with
  | Error e -> Alcotest.failf "simulate_nest: %s" e
  | Ok (_, levels) -> (
      match levels with
      | (l1 : Cache_sim.level_stats) :: _ -> l1.Cache_sim.misses
      | [] -> Alcotest.fail "no cache levels")

let test_footprint_tracks_cache_sim () =
  (* Across schedules of one op, whenever the analytic working-set
     model predicts a clear (> 2.5x) miss separation, the trace-driven
     simulator must rank the two schedules the same way. Finer
     separations are not asserted: the element-granular bounding-box
     model ignores line utilization (a 4-wide tile touches as many
     16-element lines as an 8-wide one), which can flip close calls. *)
  let machine = Machine.tiny_test_machine in
  let cache_elements =
    machine.Machine.l1.Machine.size_bytes / machine.Machine.elem_bytes
  in
  let line_elements = Machine.line_elems machine machine.Machine.l1 in
  let op = Linalg.matmul ~m:32 ~n:32 ~k:32 () in
  let candidates = [ ""; "T(8,8,8)"; "T(4,4,4)" ] in
  let measured =
    List.map
      (fun s ->
        let nest =
          if s = "" then Lower.to_loop_nest op
          else (apply_exn op s).Sched_state.nest
        in
        let fp = Footprint.analyze nest in
        let predicted =
          Footprint.predicted_misses fp
            ~trip_counts:(Loop_nest.trip_counts nest)
            ~cache_elements ~line_elements
        in
        (s, predicted, l1_misses nest))
      candidates
  in
  List.iter
    (fun (sa, pa, ma) ->
      List.iter
        (fun (sb, pb, mb) ->
          if pa > 2.5 *. pb then
            check
              (Printf.sprintf "sim agrees: %S (pred %.0f) > %S (pred %.0f)" sa
                 pa sb pb)
              true (ma > mb))
        measured)
    measured;
  (* Tiling at 8 must be predicted and simulated to beat untiled. *)
  let find s = List.find (fun (s', _, _) -> s' = s) measured in
  let _, p_plain, m_plain = find "" in
  let _, p_tiled, m_tiled = find "T(8,8,8)" in
  check "tiling predicted better" true (p_tiled *. 2.0 <= p_plain);
  check "tiling simulated better" true (m_tiled < m_plain)

let test_producer_consumer () =
  let mk name loops body buffers =
    { Loop_nest.name; loops; body; buffers; inits = [] }
  in
  let loop ub = { Loop_nest.ub; kind = Loop_nest.Seq; origin = 0 } in
  let ref1 buf e = { Loop_nest.buf; idx = [| e |] } in
  let producer =
    mk "prod" [| loop 8 |]
      [ Loop_nest.Store (ref1 "B" (Affine.dim 1 0), Loop_nest.Const 1.0) ]
      [ ("B", [| 8 |]) ]
  in
  let consumer reads_ub shape offset =
    mk "cons" [| loop reads_ub |]
      [
        Loop_nest.Store
          ( ref1 "C" (Affine.dim 1 0),
            Loop_nest.Load
              (ref1 "B" (Affine.expr ~const:offset 1 [ (0, 1) ])) );
      ]
      [ ("B", [| shape |]); ("C", [| reads_ub |]) ]
  in
  let verdict c =
    match Footprint.producer_consumer ~producer ~consumer:c with
    | [ v ] -> v.Footprint.pc_overlap
    | l -> Alcotest.failf "expected one shared buffer, got %d" (List.length l)
  in
  check "covered" true (verdict (consumer 8 8 0) = Footprint.Covers);
  check "partial" true (verdict (consumer 10 10 0) = Footprint.Partial);
  check "disjoint" true (verdict (consumer 5 13 8) = Footprint.Disjoint)

(* ------------------------------------------------------------------ *)
(* Verifier                                                           *)
(* ------------------------------------------------------------------ *)

(* A deliberately buggy interchange: permutes the loop array but leaves
   every subscript expressed over the old positions — exactly the
   transform-author mistake the verifier exists to catch. On a
   rectangular nest the stale subscripts index out of range. *)
let buggy_interchange (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  let loops = Array.copy nest.Loop_nest.loops in
  let tmp = loops.(0) in
  loops.(0) <- loops.(n - 1);
  loops.(n - 1) <- tmp;
  { nest with Loop_nest.loops }

let test_verifier_mutations () =
  let op = Test_helpers.small_matmul () in
  let nest = Lower.to_loop_nest op in
  check "clean nest passes" true (Verifier.check nest = Ok ());
  (* Mutation: broken interchange -> out-of-bounds accesses. *)
  let broken = buggy_interchange nest in
  (match Verifier.check broken with
  | Ok () -> Alcotest.fail "verifier accepted a broken interchange"
  | Error e ->
      check "reports validate or bounds stage" true
        (String.length e >= 8
        && (String.sub e 0 8 = "validate" || String.sub e 0 6 = "bounds")));
  (* The counted entry point raises and counts. *)
  let moved = counters_since () in
  (try
     Verifier.run broken;
     Alcotest.fail "Verifier.run did not raise"
   with Verifier.Violation _ -> ());
  check_int "one check" 1 (moved "verify_checks_total");
  check_int "one violation" 1 (moved "verify_violations_total")

let test_verifier_in_apply () =
  let moved = counters_since () in
  Verifier.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Verifier.set_enabled false)
    (fun () ->
      let op = Test_helpers.small_conv () in
      ignore (apply_exn op "T(0,2,2,2,0,0,0) V");
      ignore (apply_exn op "C T(8,2,3) S(1) V");
      check "apply ran a verifier check per transformation" true
        (moved "verify_checks_total" >= 6);
      check_int "no violations on legal schedules" 0
        (moved "verify_violations_total"))

(* ------------------------------------------------------------------ *)
(* Sanitizer                                                          *)
(* ------------------------------------------------------------------ *)

let test_sanitizer_sound_on_legal_transforms () =
  let rng = Util.Rng.create 41 in
  let ran = ref 0 in
  for _ = 1 to 120 do
    let nest = Test_dependence.gen_nest rng in
    let leg = Legality.analyze nest in
    let n = Loop_nest.n_loops nest in
    let candidates =
      List.filter_map
        (fun r -> match r with Ok t -> Some t | Error _ -> None)
        (List.concat
           [
             (if Legality.can_tile leg ~band_start:0 then
                [
                  Loop_transforms.tile
                    (Array.init n (fun k ->
                         let ub = nest.Loop_nest.loops.(k).Loop_nest.ub in
                         if ub mod 2 = 0 then 2 else 0))
                    nest;
                ]
              else []);
             List.init (max 0 (n - 1)) (fun k ->
                 if Legality.can_interchange leg k then
                   Loop_transforms.swap_adjacent k nest
                 else Error "not legal");
             (if Legality.can_vectorize leg then
                [ Loop_transforms.vectorize nest ]
              else []);
             (if
                Legality.can_unroll leg
                && n > 0
                && nest.Loop_nest.loops.(n - 1).Loop_nest.ub mod 2 = 0
              then [ Loop_transforms.unroll 2 nest ]
              else []);
           ])
    in
    List.iter
      (fun candidate ->
        match Sanitizer.check ~reference:nest ~candidate with
        | Sanitizer.Mismatch m ->
            Alcotest.failf
              "sanitizer fired on a Legality-approved transform: %s" m
        | Sanitizer.Matched -> incr ran
        | Sanitizer.Skipped _ -> ())
      candidates
  done;
  check "differential actually executed" true (!ran > 100)

let test_sanitizer_full_schedules () =
  let cases =
    [
      (Test_helpers.small_matmul (), "T(2,2,2)");
      (Test_helpers.small_matmul (), "T(4,4,4) I(1,0,2) U(2) V");
      (Test_helpers.small_matmul (), "P(2,2,0) T(2,2,2) S(1) V");
      (Test_helpers.small_conv (), "C");
      (Test_helpers.small_conv (), "C T(8,2,3) S(1) V");
      (Test_helpers.small_conv (), "T(0,2,2,2,0,0,0) V");
      (Test_helpers.small_maxpool (), "T(0,2,2,2,0,0) V");
    ]
  in
  List.iter
    (fun ((op : Linalg.t), s) ->
      let st = apply_exn op s in
      match Differential.sanitize_state st with
      | Some Sanitizer.Matched -> ()
      | Some (Sanitizer.Mismatch m) ->
          Alcotest.failf "%s on %s: differential violation: %s" s
            op.Linalg.op_name m
      | Some (Sanitizer.Skipped r) ->
          Alcotest.failf "%s on %s unexpectedly skipped: %s" s
            op.Linalg.op_name r
      | None ->
          Alcotest.failf "%s on %s: pair already seen or nothing to do" s
            op.Linalg.op_name)
    cases

(* Rewrite only the reduction subscript of the loads of one buffer —
   a targeted miscompile. (A uniform rewrite of every occurrence of an
   iterator would just reindex the loop and stay semantics-preserving,
   which is exactly why the sanitizer must execute, not pattern-match.) *)
let reverse_a_loads (nest : Loop_nest.t) =
  let k_ub = nest.Loop_nest.loops.(2).Loop_nest.ub in
  let rev (e : Affine.expr) =
    {
      Affine.coeffs = Array.map (fun c -> -c) e.Affine.coeffs;
      const = k_ub - 1 - e.Affine.const;
    }
  in
  let rec fix (e : Loop_nest.sexpr) =
    match e with
    | Loop_nest.Load ({ Loop_nest.buf = "A"; idx } as r) ->
        let idx = Array.copy idx in
        idx.(1) <- rev idx.(1);
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

let test_sanitizer_catches_miscompile () =
  (* In-bounds but wrong: A[i,k] becomes A[i,K-1-k] while B keeps
     B[k,j]. The structural verifier passes (everything stays in
     range); only the differential check can catch it — the two layers
     cover complementary failure modes. *)
  let op = Test_helpers.small_matmul () in
  let nest = Lower.to_loop_nest op in
  let mutant = reverse_a_loads nest in
  check "mutant is structurally fine" true (Verifier.check mutant = Ok ());
  (match Sanitizer.check ~reference:nest ~candidate:mutant with
  | Sanitizer.Mismatch _ -> ()
  | o ->
      Alcotest.failf "sanitizer missed a miscompile: %s"
        (Sanitizer.outcome_to_string o));
  (* Budget: an over-budget pair is skipped, not executed. *)
  let old = Sanitizer.budget () in
  Sanitizer.set_budget 4;
  Fun.protect
    ~finally:(fun () -> Sanitizer.set_budget old)
    (fun () ->
      match Sanitizer.check ~reference:nest ~candidate:mutant with
      | Sanitizer.Skipped _ -> ()
      | o ->
          Alcotest.failf "expected a budget skip, got %s"
            (Sanitizer.outcome_to_string o))

let test_sanitizer_stats () =
  let moved = counters_since () in
  let nest = Lower.to_loop_nest (Linalg.matmul ~m:2 ~n:2 ~k:2 ()) in
  (match Sanitizer.check ~reference:nest ~candidate:nest with
  | Sanitizer.Matched -> ()
  | o -> Alcotest.failf "identity pair: %s" (Sanitizer.outcome_to_string o));
  ignore (Sanitizer.skip "test");
  check_int "runs" 1 (moved "sanitize_runs_total");
  check_int "skips" 1 (moved "sanitize_skips_total");
  check_int "violations" 0 (moved "sanitize_violations_total");
  (* fresh_pair admits each digest pair exactly once. *)
  let d = Loop_nest.digest nest in
  let other = Loop_nest.digest (buggy_interchange nest) in
  check "first sighting" true
    (Sanitizer.fresh_pair ~reference:d ~candidate:other);
  check "second sighting" false
    (Sanitizer.fresh_pair ~reference:d ~candidate:other)

(* ------------------------------------------------------------------ *)
(* Observation features and lint satellites                           *)
(* ------------------------------------------------------------------ *)

let test_footprint_observation () =
  let base = Env_config.default in
  let cfg = Env_config.with_footprint_features true base in
  check_int "obs_dim grows by 2N"
    (Env_config.obs_dim base + (2 * base.Env_config.n_max))
    (Env_config.obs_dim cfg);
  let env = Env.create cfg in
  let obs = Env.reset env (Test_helpers.small_matmul ()) in
  check_int "observation length" (Env_config.obs_dim cfg) (Array.length obs);
  let block =
    Array.sub obs (Env_config.obs_dim base) (2 * base.Env_config.n_max)
  in
  check "footprint block carries signal" true
    (Array.exists (fun v -> v > 0.0) block);
  check "footprint block finite and nonnegative" true
    (Array.for_all (fun v -> Float.is_finite v && v >= 0.0) block)

let has_warning_prefix prefix diags =
  List.exists
    (fun (d : Nest_lint.diagnostic) ->
      d.Nest_lint.severity = Nest_lint.Warning
      && String.length d.Nest_lint.message >= String.length prefix
      && String.sub d.Nest_lint.message 0 (String.length prefix) = prefix)
    diags

let test_lint_rules () =
  let loop ub origin = { Loop_nest.ub; kind = Loop_nest.Seq; origin } in
  let dim2 k = Affine.dim 2 k in
  (* Loop 1 unused by any access. *)
  let unused =
    {
      Loop_nest.name = "unused";
      loops = [| loop 4 0; loop 3 1 |];
      body =
        [
          Loop_nest.Store
            ( { Loop_nest.buf = "O"; idx = [| dim2 0 |] },
              Loop_nest.Binop
                ( Linalg.Add,
                  Loop_nest.Load { Loop_nest.buf = "A"; idx = [| dim2 0 |] },
                  Loop_nest.Const 1.0 ) );
        ];
      buffers = [ ("O", [| 4 |]); ("A", [| 4 |]) ];
      inits = [];
    }
  in
  check "unused loop index warned" true
    (has_warning_prefix "unused loop index" (Nest_lint.run unused));
  (* Loop 1 feeds the load but not the store, no accumulator: each of
     its iterations overwrites the previous one's result. *)
  let shadowed =
    {
      unused with
      Loop_nest.name = "shadowed";
      body =
        [
          Loop_nest.Store
            ( { Loop_nest.buf = "O"; idx = [| dim2 0 |] },
              Loop_nest.Load { Loop_nest.buf = "A"; idx = [| dim2 1 |] } );
        ];
      buffers = [ ("O", [| 4 |]); ("A", [| 3 |]) ];
    }
  in
  check "shadowed store warned" true
    (has_warning_prefix "shadowed store" (Nest_lint.run shadowed));
  (* A reduction accumulator is NOT shadowed (matmul's C ignores k). *)
  let matmul_nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  check "accumulator not flagged" false
    (has_warning_prefix "shadowed store" (Nest_lint.run matmul_nest));
  (* Out-of-bounds accesses are promoted to per-access Error diags, and
     the error/validate invariant still holds. *)
  let broken =
    buggy_interchange (Lower.to_loop_nest (Test_helpers.small_conv ()))
  in
  let diags = Nest_lint.run broken in
  check "OOB errors emitted" true
    (List.exists
       (fun (d : Nest_lint.diagnostic) ->
         d.Nest_lint.severity = Nest_lint.Error
         && String.length d.Nest_lint.message >= 20
         && String.sub d.Nest_lint.message 0 20 = "out-of-bounds access")
       diags);
  check "lint error iff validate rejects" true
    (Nest_lint.has_error diags && Loop_nest.validate broken <> Ok ())

let suite =
  [
    Alcotest.test_case "bounds: interval is exact" `Quick test_interval_exact;
    Alcotest.test_case "bounds: agrees with validate on random corpus" `Quick
      test_bounds_matches_validate;
    Alcotest.test_case "bounds: sound after legal schedules" `Quick
      test_bounds_after_schedules;
    Alcotest.test_case "footprint: matmul levels by hand" `Quick
      test_footprint_matmul;
    Alcotest.test_case "footprint: over-approximates exact distinct count"
      `Quick test_footprint_over_approximates;
    Alcotest.test_case "footprint: tracks cache-sim miss ordering" `Quick
      test_footprint_tracks_cache_sim;
    Alcotest.test_case "footprint: producer/consumer overlap verdicts" `Quick
      test_producer_consumer;
    Alcotest.test_case "verifier: mutation tests" `Quick
      test_verifier_mutations;
    Alcotest.test_case "verifier: wired into apply" `Quick
      test_verifier_in_apply;
    Alcotest.test_case "sanitizer: sound on Legality-approved transforms"
      `Quick test_sanitizer_sound_on_legal_transforms;
    Alcotest.test_case "sanitizer: full schedules incl. im2col" `Quick
      test_sanitizer_full_schedules;
    Alcotest.test_case "sanitizer: catches an in-bounds miscompile" `Quick
      test_sanitizer_catches_miscompile;
    Alcotest.test_case "sanitizer: stats and pair dedup" `Quick
      test_sanitizer_stats;
    Alcotest.test_case "observation: footprint feature block" `Quick
      test_footprint_observation;
    Alcotest.test_case "lint: unused/shadowed/oob rules" `Quick
      test_lint_rules;
  ]

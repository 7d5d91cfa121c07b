(* The memoized evaluation pipeline: structural nest digests,
   prefix-sharing exhaustive search and the evaluator's pricing path.

   The load-bearing properties, each pinned here:
   - [Sched_state.digest], computed when a state is priced rather than
     maintained across [Sched_state.apply], equals a from-scratch
     [Loop_nest.digest] of the current nest, on every state the
     candidate streams can reach (including im2col);
   - distinct nests get distinct digests (checked exhaustively over the
     search states of several ops, and probabilistically over random
     shapes) while renamed copies of one nest share a digest;
   - every [Evaluator.state_seconds] call prices: it counts in
     [explored] and fires the measurement tap, and every search prices
     each candidate it counts exactly once, through that tap;
   - [Auto_scheduler.search] (prefix-sharing DFS) is bit-identical to
     [Auto_scheduler.search_naive]: same best schedule, best speedup,
     explored count and trace, exhaustive and sampled branches both;
     under noise both still make the same number of jitter draws;
   - an evaluator fork inherits its parent's base-time memo;
   - the sampling seed derives from [Linalg.digest], so same-named ops
     with different shapes draw different candidate streams;
   - the serve result-cache key distinguishes same-named ops with
     different shapes, and cached replies stay byte-identical;
   - every candidate's applicability, digest and cost-model fields
     over a fixed op set hash to one pinned MD5. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Exact float equality: the differential contract is bit-identity, not
   closeness. *)
let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Digest soundness                                                   *)
(* ------------------------------------------------------------------ *)

(* Walk a candidate schedule step by step from [init], checking the
   digest against a from-scratch hash on every intermediate state. *)
let check_stepwise op sched =
  let st = ref (Sched_state.init op) in
  check_str "init digest is from-scratch"
    (Loop_nest.digest !st.Sched_state.nest)
    (Sched_state.digest !st);
  List.iter
    (fun tr ->
      match Sched_state.apply !st tr with
      | Error _ -> ()
      | Ok st' ->
          st := st';
          check_str
            (Printf.sprintf "digest after %s"
               (Schedule.to_string (Sched_state.applied !st)))
            (Loop_nest.digest st'.Sched_state.nest)
            (Sched_state.digest st'))
    sched

let test_incremental_digest_equals_scratch () =
  let config = Auto_scheduler.default_config in
  List.iter
    (fun op ->
      Seq.iter
        (fun sched -> check_stepwise op sched)
        (Seq.take 300 (Auto_scheduler.candidates config op)))
    [ Test_helpers.small_matmul (); Test_helpers.small_conv () ]

let test_digest_name_invariant_structure_sensitive () =
  let nest = Lower.to_loop_nest (Test_helpers.small_matmul ()) in
  let d = Loop_nest.digest nest in
  check_str "renaming the nest keeps the digest" d
    (Loop_nest.digest { nest with Loop_nest.name = "something_else" });
  let bumped_ub =
    {
      nest with
      Loop_nest.loops =
        Array.mapi
          (fun i l ->
            if i = 0 then { l with Loop_nest.ub = l.Loop_nest.ub + 1 } else l)
          nest.Loop_nest.loops;
    }
  in
  check "changing a trip count changes the digest" true
    (d <> Loop_nest.digest bumped_ub);
  let kinded =
    {
      nest with
      Loop_nest.loops =
        Array.mapi
          (fun i l ->
            if i = 0 then { l with Loop_nest.kind = Loop_nest.Parallel } else l)
          nest.Loop_nest.loops;
    }
  in
  check "changing a loop kind changes the digest" true
    (d <> Loop_nest.digest kinded);
  let renamed_buffer =
    {
      nest with
      Loop_nest.buffers =
        List.map
          (fun (b, s) -> ((if b = "A" then "A2" else b), s))
          nest.Loop_nest.buffers;
    }
  in
  check "renaming a buffer (aliasing) changes the digest" true
    (d <> Loop_nest.digest renamed_buffer);
  let bumped_init =
    {
      nest with
      Loop_nest.inits =
        List.map (fun (b, v) -> (b, v +. 1.0)) nest.Loop_nest.inits;
    }
  in
  check "changing an init value changes the digest" true
    (d <> Loop_nest.digest bumped_init)

(* Exhaustive collision check over every state the search visits for a
   few ops: equal digests must mean equal structure (compare the
   pretty-printed nests under one name, since names are not hashed). *)
let test_digest_collision_free_over_search_states () =
  let seen : (string, string) Hashtbl.t = Hashtbl.create 512 in
  let states = ref 0 in
  let probe (st : Sched_state.t) =
    incr states;
    let d = Sched_state.digest st in
    let printed =
      Ir_printer.to_string { st.Sched_state.nest with Loop_nest.name = "n" }
    in
    match Hashtbl.find_opt seen d with
    | None -> Hashtbl.replace seen d printed
    | Some other -> check_str "digest collision implies equal nests" other printed
  in
  let config = Auto_scheduler.default_config in
  List.iter
    (fun op ->
      Seq.iter
        (fun sched ->
          let st = ref (Sched_state.init op) in
          probe !st;
          List.iter
            (fun tr ->
              match Sched_state.apply !st tr with
              | Error _ -> ()
              | Ok st' ->
                  st := st';
                  probe st')
            sched)
        (Seq.take 400 (Auto_scheduler.candidates config op)))
    [
      Test_helpers.small_matmul ();
      Test_helpers.small_conv ();
      Test_helpers.small_maxpool ();
    ];
  check "visited a meaningful number of states" true (!states > 500)

let qcheck_digest_distinct_shapes =
  QCheck.Test.make ~name:"distinct matmul shapes get distinct nest digests"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let dim = int_range 1 24 in
         tup2 (tup3 dim dim dim) (tup3 dim dim dim)))
    (fun ((m1, n1, k1), (m2, n2, k2)) ->
      let d1 =
        Loop_nest.digest
          (Lower.to_loop_nest (Linalg.matmul ~name:"op" ~m:m1 ~n:n1 ~k:k1 ()))
      in
      let d2 =
        Loop_nest.digest
          (Lower.to_loop_nest (Linalg.matmul ~name:"op" ~m:m2 ~n:n2 ~k:k2 ()))
      in
      if (m1, n1, k1) = (m2, n2, k2) then d1 = d2 else d1 <> d2)

(* ------------------------------------------------------------------ *)
(* Evaluator pricing path                                             *)
(* ------------------------------------------------------------------ *)

let vectorized_state op =
  match Sched_state.apply (Sched_state.init op) Schedule.Vectorize with
  | Ok st -> st
  | Error e -> Alcotest.failf "vectorize failed: %s" e

(* A tap that counts its calls, from any domain. *)
let counting_tap ev =
  let taps = Atomic.make 0 in
  Evaluator.set_measure_hook ev (Some (fun _ ~seconds:_ -> Atomic.incr taps));
  taps

let test_every_call_prices () =
  let ev = Evaluator.create () in
  let taps = counting_tap ev in
  let st = vectorized_state (Test_helpers.small_matmul ()) in
  let s1 = Evaluator.state_seconds ev st in
  let s2 = Evaluator.state_seconds ev st in
  check_bits "repeat evaluation returns the same seconds" s1 s2;
  check_int "explored counts both calls" 2 (Evaluator.explored ev);
  check_int "the tap fires on both calls" 2 (Atomic.get taps);
  check "no state-time cache" true
    ((Evaluator.cache_stats ev).Evaluator.state = None)

let test_fork_keeps_base_memo () =
  let ev = Evaluator.create () in
  let op = Test_helpers.small_matmul () in
  ignore (Evaluator.base_seconds ev op);
  let lookups () =
    let s = (Evaluator.cache_stats ev).Evaluator.base in
    s.Util.Sharded_cache.hits + s.Util.Sharded_cache.misses
  in
  let before = lookups () in
  let f = Evaluator.fork ev in
  check_bits "fork prices the op like its parent"
    (Evaluator.base_seconds ev op) (Evaluator.base_seconds f op);
  check_int "fork answered from the inherited memo, no cache lookup" before
    (lookups ())

(* ------------------------------------------------------------------ *)
(* Differential search equivalence                                    *)
(* ------------------------------------------------------------------ *)

let check_same_result name (a : Auto_scheduler.result)
    (b : Auto_scheduler.result) =
  check_str (name ^ ": best schedule")
    (Schedule.to_string a.Auto_scheduler.best_schedule)
    (Schedule.to_string b.Auto_scheduler.best_schedule);
  check_bits (name ^ ": best speedup") a.Auto_scheduler.best_speedup
    b.Auto_scheduler.best_speedup;
  check_int (name ^ ": explored") a.Auto_scheduler.explored
    b.Auto_scheduler.explored;
  check_int (name ^ ": trace length")
    (Array.length a.Auto_scheduler.trace)
    (Array.length b.Auto_scheduler.trace);
  Array.iteri
    (fun i (n, s) ->
      let n', s' = b.Auto_scheduler.trace.(i) in
      check_int (Printf.sprintf "%s: trace point %d index" name i) n n';
      check_bits (Printf.sprintf "%s: trace point %d speedup" name i) s s')
    a.Auto_scheduler.trace

(* Without noise the two searches must agree bit for bit. With noise
   they draw from different streams — naive from the evaluator's single
   sequential stream, search from per-task derived streams — so only the
   evaluation count (jitter draws) and the trace length must agree. *)
let differential ?noise ?(budget = 20000) ?(jobs = 1)
    ?(tile_sizes = Auto_scheduler.default_config.Auto_scheduler.tile_sizes) op =
  let config =
    {
      Auto_scheduler.default_config with
      Auto_scheduler.max_schedules = budget;
      tile_sizes;
    }
  in
  let naive_ev = Evaluator.create ?noise ~noise_seed:11 () in
  let naive = Auto_scheduler.search_naive ~config naive_ev op in
  let memo_ev = Evaluator.create ?noise ~noise_seed:11 () in
  let memo = Auto_scheduler.search ~config ~jobs memo_ev op in
  (match noise with
  | None -> check_same_result op.Linalg.op_name naive memo
  | Some _ ->
      check_int (op.Linalg.op_name ^ ": noisy trace length")
        (Array.length naive.Auto_scheduler.trace)
        (Array.length memo.Auto_scheduler.trace));
  check_int (op.Linalg.op_name ^ ": evaluator explored (jitter draws)")
    (Evaluator.explored naive_ev) (Evaluator.explored memo_ev)

let test_differential_exhaustive () =
  differential (Test_helpers.small_matmul ());
  differential (Test_helpers.small_maxpool ())

let test_differential_exhaustive_im2col () =
  differential (Test_helpers.small_conv ());
  (* A 7-loop conv, where a candidate's shared prefix is the most work
     to re-apply; tile sizes 2 and 4 keep its space (about 11k
     candidates with the im2col twin) within the budget. *)
  differential ~tile_sizes:[ 2; 4 ]
    (Linalg.conv2d
       { Linalg.batch = 1; in_h = 14; in_w = 14; channels = 8; kernel_h = 3;
         kernel_w = 3; filters = 16; stride = 1 })

let test_differential_exhaustive_noisy () =
  (* Under noise both searches must still make exactly one jitter draw
     per evaluated candidate. *)
  differential ~noise:0.05 (Test_helpers.small_matmul ());
  differential ~noise:0.05 (Test_helpers.small_conv ())

let test_differential_sampled_branch () =
  (* A space far over budget forces the seeded-sampling fallback in
     both implementations; they must share the RNG stream too (and,
     noisy, still draw jitter once per evaluation). *)
  differential ~budget:60 (Linalg.matmul ~m:64 ~n:64 ~k:64 ());
  differential ~noise:0.03 ~budget:60 (Linalg.matmul ~m:64 ~n:64 ~k:64 ())

let test_differential_sampled_heads () =
  (* Sampled candidates run from shared heads: the im2col rewrite and
     each Parallelize step are applied once per search, on the calling
     domain, and read by every candidate that starts with them, on the
     pool too. [search_naive] applies every candidate from scratch. *)
  let conv =
    Linalg.conv2d
      { Linalg.batch = 1; in_h = 8; in_w = 8; channels = 3; kernel_h = 3;
        kernel_w = 3; filters = 4; stride = 1 }
  and pool =
    Linalg.maxpool
      { Linalg.p_batch = 1; p_in_h = 56; p_in_w = 56; p_channels = 16;
        p_kernel = 2; p_stride = 2 }
  in
  let budget = 150 in
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
  in
  let draws_head op is_head =
    List.exists
      (fun sched -> is_head (List.hd sched))
      (Auto_scheduler.gather_candidates config op)
  in
  check "the conv draws im2col heads" true
    (draws_head conv (( = ) Schedule.Im2col));
  check "the maxpool draws parallel heads" true
    (draws_head pool (function Schedule.Parallelize _ -> true | _ -> false));
  List.iter
    (fun op ->
      check "sampled regime" true (Auto_scheduler.space_total config op > budget);
      List.iter
        (fun jobs ->
          differential ~budget ~jobs op;
          differential ~noise:0.05 ~budget ~jobs op)
        [ 1; 2 ])
    [ conv; pool ]

let test_search_deterministic () =
  let op = Linalg.matmul ~m:64 ~n:64 ~k:64 () in
  let run () =
    let ev = Evaluator.create () in
    Auto_scheduler.search
      ~config:
        { Auto_scheduler.default_config with Auto_scheduler.max_schedules = 50 }
      ev op
  in
  check_same_result "repeat run" (run ()) (run ())

let test_sampling_seed_from_shape () =
  let a = Linalg.matmul ~name:"mm" ~m:32 ~n:32 ~k:32 () in
  let b = Linalg.matmul ~name:"mm" ~m:64 ~n:64 ~k:64 () in
  check_int "seed pinned to Hashtbl.hash (Linalg.digest op)"
    (Hashtbl.hash (Linalg.digest a))
    (Auto_scheduler.sampling_seed a);
  check "same-named ops with different shapes get different seeds" true
    (Auto_scheduler.sampling_seed a <> Auto_scheduler.sampling_seed b);
  check "same op always gets the same seed" true
    (Auto_scheduler.sampling_seed a = Auto_scheduler.sampling_seed a)

(* Every search prices each candidate it counts exactly once, through
   [Evaluator.state_seconds] and so through the measurement tap, on the
   caller's evaluator or a fork of it: the sanitizer and the surrogate's
   dataset logger sit on that path. Exhaustive and sampled regimes;
   plain, staged and beam search; jobs 1 and 2. *)
let test_searches_price_through_tap () =
  let flat scheds = Array.make (Array.length scheds) 0.0 in
  List.iter
    (fun (regime, budget, op) ->
      let config =
        { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
      in
      List.iter
        (fun jobs ->
          let expect what run =
            let ev = Evaluator.create () in
            let taps = counting_tap ev in
            let explored = run ev in
            let what = Printf.sprintf "%s, %s, jobs %d" what regime jobs in
            check (what ^ ": candidates priced") true (explored > 1);
            check_int (what ^ ": evaluator explored") explored
              (Evaluator.explored ev);
            check_int (what ^ ": one tap per explored") explored
              (Atomic.get taps)
          in
          expect "search" (fun ev ->
              (Auto_scheduler.search ~config ~jobs ev op).Auto_scheduler.explored);
          expect "staged" (fun ev ->
              (Auto_scheduler.search_staged ~config ~ranker:flat ~rerank_k:16 ~jobs
                 ev op)
                .Auto_scheduler.explored);
          expect "beam" (fun ev ->
              (Beam_search.search ~jobs ev op).Beam_search.explored))
        [ 1; 2 ])
    [
      ("exhaustive", 20000, Test_helpers.small_matmul ());
      ("sampled", 60, Linalg.matmul ~m:64 ~n:64 ~k:64 ());
    ]

(* ------------------------------------------------------------------ *)
(* Pricing a tail through column maps                                 *)
(* ------------------------------------------------------------------ *)

let op_of_spec spec =
  match Op_spec.parse spec with Ok op -> op | Error e -> Alcotest.fail e

(* A candidate's head (im2col prefix and Parallelize step) and the rest,
   as exact search splits it. *)
let rec split_head = function
  | (Schedule.Im2col | Schedule.Parallelize _) as step :: rest ->
      let head, tail = split_head rest in
      (step :: head, tail)
  | tail -> ([], tail)

(* [Evaluator.tail_speedup] from a head's walk against [apply] then
   [Evaluator.speedup]: the same speedup bits, [explored] count, noise
   stream and [Error], on every budget-400 candidate of one op per
   Table 2 kind plus an im2col conv, and on tails that fail. *)
let test_tail_through_map_equals_states () =
  let config = { Auto_scheduler.default_config with max_schedules = 400 } in
  let fail_tails (head : Sched_state.t) =
    let band = Sched_state.point_trip_counts head in
    let bad_tile = Array.make (Array.length band) 0 in
    bad_tile.(0) <- band.(0) + 1;
    [
      [ Schedule.Tile bad_tile; Schedule.Vectorize ];
      [ Schedule.Swap 99; Schedule.Vectorize ];
      [ Schedule.Tile (Array.map (fun _ -> 1) band); Schedule.Swap (-1) ];
      [ Schedule.Vectorize; Schedule.Swap 0 ];
      [ Schedule.Vectorize; Schedule.Vectorize ];
    ]
  in
  List.iter
    (fun noise ->
      List.iter
        (fun spec ->
          let op = op_of_spec spec in
          let heads = Hashtbl.create 16 in
          let head steps =
            match Hashtbl.find_opt heads steps with
            | Some h -> h
            | None ->
                let h =
                  Result.to_option (Sched_state.apply_all op steps)
                  |> Option.map (fun st -> (st, Cost_model.walk st.Sched_state.nest))
                in
                Hashtbl.add heads steps h;
                h
          in
          let mapped = Evaluator.create ~noise ~noise_seed:3 () in
          let states = Evaluator.create ~noise ~noise_seed:3 () in
          let compare what (st, walk) tail =
            let a = Evaluator.tail_speedup mapped st walk tail in
            let b =
              List.fold_left
                (fun acc tr -> Result.bind acc (fun s -> Sched_state.apply s tr))
                (Ok st) tail
              |> Result.map (Evaluator.speedup states)
            in
            let name =
              Printf.sprintf "%s %s noise %g: %s" spec what noise
                (Schedule.to_string (Sched_state.applied st @ tail))
            in
            (match (a, b) with
            | Ok x, Ok y -> check_bits name x y
            | Error x, Error y -> check_str name y x
            | Ok _, Error e -> Alcotest.failf "%s: map Ok, states Error %s" name e
            | Error e, Ok _ -> Alcotest.failf "%s: map Error %s, states Ok" name e);
            check_int (name ^ ": explored") (Evaluator.explored states)
              (Evaluator.explored mapped);
            Alcotest.(check int64) (name ^ ": noise state")
              (Evaluator.noise_state states) (Evaluator.noise_state mapped)
          in
          List.iter
            (fun sched ->
              let h, tail = split_head sched in
              Option.iter (fun hw -> compare "candidate" hw tail) (head h))
            (Auto_scheduler.gather_candidates config op);
          Hashtbl.iter
            (fun _ h ->
              Option.iter
                (fun ((st, _) as hw) ->
                  List.iter (compare "failing tail" hw) (fail_tails st))
                h)
            heads;
          check (spec ^ ": candidates priced") true (Evaluator.explored mapped > 100))
        [
          "matmul:64x64x64"; "conv2d:8x8x3,k3,f4,s1"; "maxpool:56x56x16,k2,s2";
          "add:28x28x32"; "relu:56x56x64"; "conv2d:28x28x32,k3,f32,s1";
        ])
    [ 0.0; 0.05 ]

(* ------------------------------------------------------------------ *)
(* Pinned exact-search words                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words one [Auto_scheduler.search ~jobs:1] allocates on a fresh
   evaluator, pinned exactly as the fingerprints are: words do not drift
   with host load, so an allocation added to or removed from a
   candidate's path moves these values. The search runs once before it
   is counted, so per-domain buffers and lazily created tables exist
   already. matmul:64x64x64 at budget 3000 runs the sampled regime,
   relu:128x128 the exhaustive one. [Gc.minor_words] counts the calling
   domain only, hence jobs 1. A compiler or flag change moves every
   value; an intended change updates them and says so in CHANGES.md. *)
let pinned_search_words =
  [ ("matmul:64x64x64", 3000, 711_702); ("relu:128x128", 3000, 275_872) ]

let test_pinned_search_words () =
  List.iter
    (fun (spec, budget, words) ->
      let op = op_of_spec spec in
      let config = { Auto_scheduler.default_config with max_schedules = budget } in
      let search () = Auto_scheduler.search ~config ~jobs:1 (Evaluator.create ()) op in
      ignore (search ());
      let before = Gc.minor_words () in
      let r = search () in
      let used = Gc.minor_words () -. before in
      check (spec ^ ": candidates explored") true (r.Auto_scheduler.explored > 1000);
      check_int (Printf.sprintf "%s budget %d: minor words" spec budget) words
        (int_of_float used))
    pinned_search_words

(* ------------------------------------------------------------------ *)
(* Serve cache keys                                                   *)
(* ------------------------------------------------------------------ *)

let test_serve_digest_distinguishes_shapes () =
  let a = Linalg.matmul ~name:"mm" ~m:32 ~n:32 ~k:32 () in
  let b = Linalg.matmul ~name:"mm" ~m:64 ~n:64 ~k:64 () in
  check "same-named ops with different shapes get different cache keys"
    true
    (Serve.Engine.nest_digest a <> Serve.Engine.nest_digest b);
  check_str "renamed copies of one op share a cache key"
    (Serve.Engine.nest_digest a)
    (Serve.Engine.nest_digest (Linalg.matmul ~name:"other" ~m:32 ~n:32 ~k:32 ()))

let test_serve_engine_replies_identical_across_cache () =
  match
    Serve.Engine.create
      { Serve.Engine.default_config with Serve.Engine.hidden = 16 }
  with
  | Error e -> Alcotest.failf "engine: %s" e
  | Ok engine ->
      let ops = [| Test_helpers.small_matmul (); Test_helpers.small_conv () |] in
      let render r =
        match r with
        | Ok (o : Serve.Engine.outcome) ->
            Printf.sprintf "%s|%.17g" o.Serve.Engine.schedule
              o.Serve.Engine.speedup
        | Error _ -> "error"
      in
      let first = Array.map render (Serve.Engine.solve_batch engine ops) in
      let second = Array.map render (Serve.Engine.solve_batch engine ops) in
      Array.iteri
        (fun i a -> check_str "cached reply identical to computed" a second.(i))
        first;
      check "second batch hit the result cache" true
        (Serve.Engine.cache_hits engine >= 2);
      let eval =
        Evaluator.cache_counters (Serve.Engine.evaluator_cache_stats engine)
      in
      check "engine surfaces evaluator cache stats" true
        (List.assoc "eval_base_cache_misses_total" eval > 0)

(* ------------------------------------------------------------------ *)
(* Pinned candidate-evaluation bytes                                  *)
(* ------------------------------------------------------------------ *)

(* One MD5 over everything a candidate evaluation produces, for every
   [gather_candidates] entry of a fixed op set at budget 600: whether the
   schedule applies, the state digest, and every [Cost_model.estimate]
   field (floats by IEEE bit pattern). The tiny ops fit the budget, so
   they run the full enumeration; the seeded [Generator] draws overflow it
   and run the sampled stream. Both sets cover matmul, an im2col-able
   conv2d, maxpool, add and relu. The constant was computed at commit
   b72b2d8, before the linear-time rewrites of candidate evaluation
   (digest only priced states, remap tile subscripts directly, one-pass
   reuse tables), which must not move a single bit. *)
let pinned_fingerprint = "04f593b446620ecd9a648c9ed82241ea"

let candidate_fingerprint () =
  let config = { Auto_scheduler.default_config with max_schedules = 600 } in
  let exhaustive =
    [
      Linalg.matmul ~m:2 ~n:4 ~k:8 ();
      Linalg.conv2d
        {
          Linalg.batch = 1;
          in_h = 5;
          in_w = 5;
          channels = 1;
          kernel_h = 3;
          kernel_w = 3;
          filters = 1;
          stride = 1;
        };
      Linalg.maxpool
        {
          Linalg.p_batch = 1;
          p_in_h = 4;
          p_in_w = 4;
          p_channels = 1;
          p_kernel = 2;
          p_stride = 2;
        };
      Linalg.add [| 4; 4 |];
      Linalg.relu [| 4; 8 |];
    ]
  in
  let rng = Util.Rng.create 7 in
  let sampled =
    List.map (Generator.random_op rng)
      [ "matmul"; "conv2d"; "maxpool"; "add"; "relu" ]
  in
  List.iter
    (fun op ->
      check "exhaustive-regime op fits the budget" true
        (Auto_scheduler.space_total config op <= config.max_schedules))
    exhaustive;
  List.iter
    (fun op ->
      check "sampled-regime op overflows the budget" true
        (Auto_scheduler.space_total config op > config.max_schedules))
    sampled;
  let machine = Machine.e5_2680_v4 in
  let b = Buffer.create (1 lsl 16) in
  let add_float x = Buffer.add_string b (Int64.to_string (Int64.bits_of_float x)) in
  let sep () = Buffer.add_char b ';' in
  let applied = ref 0 and total = ref 0 in
  List.iter
    (fun op ->
      List.iter
        (fun sched ->
          incr total;
          Buffer.add_string b (Schedule.to_string sched);
          sep ();
          match Sched_state.apply_all op sched with
          | Error _ -> Buffer.add_string b "rejected\n"
          | Ok st ->
              incr applied;
              Buffer.add_string b (Sched_state.digest st);
              sep ();
              let r =
                Cost_model.estimate ~machine
                  ~iter_kinds:st.Sched_state.op.Linalg.iter_kinds
                  ~packing_elements:st.Sched_state.packing_elements
                  st.Sched_state.nest
              in
              List.iter
                (fun x -> add_float x; sep ())
                [ r.Cost_model.seconds; r.Cost_model.compute_cycles;
                  r.Cost_model.parallel_factor; r.Cost_model.packing_seconds;
                  r.Cost_model.vector_efficiency ];
              List.iter
                (fun (t : Cost_model.level_traffic) ->
                  Buffer.add_string b t.Cost_model.level;
                  sep ();
                  add_float t.Cost_model.miss_lines;
                  sep ();
                  add_float t.Cost_model.cycles;
                  sep ())
                r.Cost_model.traffic;
              Buffer.add_string b
                (Printf.sprintf "%d;%b\n" r.Cost_model.launches
                   r.Cost_model.vectorized))
        (Auto_scheduler.gather_candidates config op))
    (exhaustive @ sampled);
  (Digest.to_hex (Digest.string (Buffer.contents b)), !applied, !total)

let test_pinned_candidate_fingerprint () =
  let fp, applied, total = candidate_fingerprint () in
  check "most candidates apply" true (applied > 0 && applied * 2 > total);
  check_str "candidate evaluation bytes" pinned_fingerprint fp

(* ------------------------------------------------------------------ *)
(* Pinned search results                                              *)
(* ------------------------------------------------------------------ *)

(* One MD5 over what every search front end returns — best schedule,
   best speedup (IEEE bits), explored count and, for the auto-scheduler,
   every trace point — for one op per Table 2 kind. Each op runs the
   exhaustive and the sampled [Auto_scheduler.search], [search_staged]
   with a small seeded surrogate, and [Beam_search.search]; every run
   is repeated noiseless and at noise 0.05, at jobs 1 and 2. One ranker
   serves every run, as one serves a whole CLI or bench process. The
   constant pins the noise streams, explored counts and traces, so
   changing how the evaluator prices a state, or how the ranker scores
   a batch, must not move a bit of it. An intended change to these
   bytes updates the constant and says so in CHANGES.md. *)
let pinned_search_fingerprint = "324105b32b7538eab0c9ade7bd6458d2"

let search_fingerprint () =
  let ops =
    [
      Linalg.matmul ~m:4 ~n:8 ~k:12 ();
      Linalg.conv2d
        {
          Linalg.batch = 1;
          in_h = 5;
          in_w = 5;
          channels = 1;
          kernel_h = 3;
          kernel_w = 3;
          filters = 2;
          stride = 1;
        };
      Linalg.maxpool
        {
          Linalg.p_batch = 1;
          p_in_h = 8;
          p_in_w = 8;
          p_channels = 1;
          p_kernel = 2;
          p_stride = 2;
        };
      Linalg.add [| 8; 16 |];
      Linalg.relu [| 16; 8 |];
    ]
  in
  let exhaustive = { Auto_scheduler.default_config with max_schedules = 3000 } in
  let sampled = { Auto_scheduler.default_config with max_schedules = 60 } in
  let staged = { Auto_scheduler.default_config with max_schedules = 400 } in
  let beam = { Beam_search.default_config with Beam_search.max_depth = 5 } in
  let ranker =
    Surrogate.Ranker.create ~machine:Machine.e5_2680_v4
      (Surrogate.Model.create ~hidden:[ 16 ] ~seed:5 ())
  in
  let b = Buffer.create (1 lsl 16) in
  let add_float x = Buffer.add_string b (Int64.to_string (Int64.bits_of_float x)) in
  let add_auto tag (r : Auto_scheduler.result) =
    Buffer.add_string b tag;
    Buffer.add_string b (Schedule.to_string r.Auto_scheduler.best_schedule);
    add_float r.Auto_scheduler.best_speedup;
    Buffer.add_string b (Printf.sprintf ";%d;" r.Auto_scheduler.explored);
    Array.iter
      (fun (n, s) -> Buffer.add_string b (string_of_int n); add_float s)
      r.Auto_scheduler.trace;
    Buffer.add_char b '\n'
  in
  let add_beam tag (r : Beam_search.result) =
    Buffer.add_string b tag;
    Buffer.add_string b (Schedule.to_string r.Beam_search.best_schedule);
    add_float r.Beam_search.best_speedup;
    Buffer.add_string b (Printf.sprintf ";%d\n" r.Beam_search.explored)
  in
  List.iter
    (fun op ->
      check "exhaustive regime fits" true
        (Auto_scheduler.space_total exhaustive op <= exhaustive.max_schedules);
      check "sampled regime overflows" true
        (Auto_scheduler.space_total sampled op > sampled.max_schedules);
      List.iter
        (fun noise ->
          List.iter
            (fun jobs ->
              let ev () = Evaluator.create ?noise ~noise_seed:17 () in
              let tag what =
                Printf.sprintf "%s|%s|%s|%d|" op.Linalg.op_name what
                  (match noise with None -> "-" | Some n -> string_of_float n)
                  jobs
              in
              add_auto (tag "exhaustive")
                (Auto_scheduler.search ~config:exhaustive ~jobs (ev ()) op);
              add_auto (tag "sampled")
                (Auto_scheduler.search ~config:sampled ~jobs (ev ()) op);
              add_auto (tag "staged")
                (Auto_scheduler.search_staged ~config:staged
                   ~ranker:(Surrogate.Ranker.schedule_scorer ranker op)
                   ~rerank_k:16 ~jobs (ev ()) op);
              add_beam (tag "beam")
                (Beam_search.search ~config:beam ~jobs (ev ()) op))
            [ 1; 2 ])
        [ None; Some 0.05 ])
    ops;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_search_fingerprint () =
  check_str "search result bytes" pinned_search_fingerprint
    (search_fingerprint ())

let suite =
  [
    Alcotest.test_case "incremental digest = from-scratch" `Quick
      test_incremental_digest_equals_scratch;
    Alcotest.test_case "digest ignores names, sees structure" `Quick
      test_digest_name_invariant_structure_sensitive;
    Alcotest.test_case "no collisions across search states" `Quick
      test_digest_collision_free_over_search_states;
    QCheck_alcotest.to_alcotest qcheck_digest_distinct_shapes;
    Alcotest.test_case "every state_seconds call prices" `Quick
      test_every_call_prices;
    Alcotest.test_case "differential: exhaustive" `Quick
      test_differential_exhaustive;
    Alcotest.test_case "differential: exhaustive with im2col" `Quick
      test_differential_exhaustive_im2col;
    Alcotest.test_case "differential: exhaustive, noisy evaluator" `Quick
      test_differential_exhaustive_noisy;
    Alcotest.test_case "differential: sampled branch" `Quick
      test_differential_sampled_branch;
    Alcotest.test_case "differential: sampled heads, jobs 1 and 2" `Quick
      test_differential_sampled_heads;
    Alcotest.test_case "search is deterministic" `Quick
      test_search_deterministic;
    Alcotest.test_case "sampling seed derives from op digest" `Quick
      test_sampling_seed_from_shape;
    Alcotest.test_case "serve digest distinguishes shapes" `Quick
      test_serve_digest_distinguishes_shapes;
    Alcotest.test_case "serve replies identical across cache" `Quick
      test_serve_engine_replies_identical_across_cache;
    Alcotest.test_case "fork keeps the base memo" `Quick
      test_fork_keeps_base_memo;
    Alcotest.test_case "pinned candidate-evaluation fingerprint" `Quick
      test_pinned_candidate_fingerprint;
    Alcotest.test_case "pinned search fingerprint" `Quick
      test_pinned_search_fingerprint;
    Alcotest.test_case "searches price every candidate through the tap"
      `Quick test_searches_price_through_tap;
    Alcotest.test_case "tail through column maps = through states" `Quick
      test_tail_through_map_equals_states;
    Alcotest.test_case "pinned exact-search words" `Quick
      test_pinned_search_words;
  ]

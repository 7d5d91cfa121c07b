(* The multicore search engine's contracts: the work-stealing pool, the
   sharded cache's contention counter, byte-identity of exhaustive /
   sampled / staged / beam search across --jobs values (noiseless and
   noisy) and of the im2col conv path, the fixed trie-split depth against the
   from-scratch search, per-domain workspace isolation under concurrent
   batched inference, and the dataset-log tap under parallel search. *)

(* ------------------------------------------------------------------ *)
(* Work-stealing pool                                                  *)

let test_steal_pool_map_array () =
  let pool = Util.Domain_pool.create_stealing ~size:3 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "stealing flag" true (Util.Domain_pool.stealing pool);
      Alcotest.(check bool)
        "fifo pool is not stealing" false
        (let p = Util.Domain_pool.create ~size:1 in
         let s = Util.Domain_pool.stealing p in
         Util.Domain_pool.shutdown p;
         s);
      let out =
        Util.Domain_pool.map_array pool (fun x -> x * x)
          (Array.init 100 (fun i -> i))
      in
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "elt %d" i) (i * i) v)
        out)

let test_steal_pool_irregular () =
  (* Tasks spanning four orders of magnitude of work: whatever worker
     draws the big ones, every result must still come back in order and
     correct — the stealing path's bread and butter. *)
  let pool = Util.Domain_pool.create_stealing ~size:4 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      let work n =
        let acc = ref 0 in
        for k = 1 to n do
          acc := !acc + (k mod 7)
        done;
        !acc
      in
      let sizes = Array.init 200 (fun i -> if i mod 17 = 0 then 200_000 else 50) in
      let out = Util.Domain_pool.map_array pool work sizes in
      Array.iteri
        (fun i v ->
          Alcotest.(check int) (Printf.sprintf "task %d" i) (work sizes.(i)) v)
        out)

let test_steal_pool_exceptions () =
  let pool = Util.Domain_pool.create_stealing ~size:2 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      let bad = Util.Domain_pool.submit pool (fun () -> failwith "boom") in
      Alcotest.check_raises "worker exception re-raised" (Failure "boom")
        (fun () -> ignore (Util.Domain_pool.await bad));
      let good = Util.Domain_pool.submit pool (fun () -> "alive") in
      Alcotest.(check string) "worker survived" "alive"
        (Util.Domain_pool.await good))

let test_steal_pool_shutdown () =
  let pool = Util.Domain_pool.create_stealing ~size:2 in
  let p = Util.Domain_pool.submit pool (fun () -> 41 + 1) in
  Alcotest.(check int) "queued task ran" 42 (Util.Domain_pool.await p);
  Util.Domain_pool.shutdown pool;
  Util.Domain_pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Domain_pool.submit: pool is shut down") (fun () ->
      ignore (Util.Domain_pool.submit pool (fun () -> 0)))

(* ------------------------------------------------------------------ *)
(* Sharded cache: contention counter                                  *)

let test_cache_contention_single_domain_zero () =
  let c = Util.Sharded_cache.create ~shards:2 ~capacity:64 () in
  for i = 0 to 999 do
    ignore
      (Util.Sharded_cache.find_or_compute c (string_of_int (i mod 80)) (fun () -> i))
  done;
  let s = Util.Sharded_cache.stats c in
  Alcotest.(check int) "uncontended single-domain" 0
    s.Util.Sharded_cache.contention

let test_cache_contention_counted () =
  (* One shard, four domains in tight loops on it: try_lock must fail
     at least once in some round. Retrying rounds keeps the test
     deterministic-enough without sleeping in the hot path. *)
  let rec round n =
    if n = 0 then 0
    else begin
      let c = Util.Sharded_cache.create ~shards:1 ~capacity:64 () in
      let worker w () =
        for i = 0 to 20_000 do
          ignore
            (Util.Sharded_cache.find_or_compute c
               (string_of_int ((i + w) mod 32))
               (fun () -> i))
        done
      in
      let domains = Array.init 4 (fun w -> Domain.spawn (worker w)) in
      Array.iter Domain.join domains;
      let s = Util.Sharded_cache.stats c in
      if s.Util.Sharded_cache.contention > 0 then
        s.Util.Sharded_cache.contention
      else round (n - 1)
    end
  in
  Alcotest.(check bool) "contention observed" true (round 50 > 0)

(* ------------------------------------------------------------------ *)
(* Search byte-identity across jobs                                    *)

let result_key (r : Auto_scheduler.result) =
  Printf.sprintf "%s|%.17g|%d|%s"
    (Schedule.to_string r.Auto_scheduler.best_schedule)
    r.Auto_scheduler.best_speedup r.Auto_scheduler.explored
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (i, s) -> Printf.sprintf "%d:%.17g" i s)
             r.Auto_scheduler.trace)))

let beam_key (r : Beam_search.result) =
  Printf.sprintf "%s|%.17g|%d"
    (Schedule.to_string r.Beam_search.best_schedule)
    r.Beam_search.best_speedup r.Beam_search.explored

(* Deterministic stand-in for a trained surrogate: exercises the staged
   plumbing (batched aggregation, tie-breaking, parallel rerank) with
   no checkpoint on disk. *)
let pseudo_schedule_ranker scheds =
  Array.map
    (fun s -> float_of_int (Hashtbl.hash (Schedule.dedup_key s) land 0xffff))
    scheds

let pseudo_state_ranker states =
  Array.map
    (fun (st : Sched_state.t) ->
      float_of_int
        (Hashtbl.hash (Schedule.dedup_key st.Sched_state.applied) land 0xffff))
    states

let exhaustive_op () = Test_helpers.small_matmul ()
let sampled_op () = Linalg.matmul ~m:64 ~n:64 ~k:64 ()

(* A budget sure to put the op on the full-enumeration branch: the
   dispatch compares [space_total] (a pre-filter upper bound, larger
   than the actual candidate count) against the budget. small_matmul
   enumerates 3649 candidates; tiny_conv below 1991. *)
let exhaustive_budget op =
  Auto_scheduler.space_total Auto_scheduler.default_config op + 1

(* Small enough that the conv/im2col frontier enumerates fully. *)
let tiny_conv () =
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
    }

let check_search_identity ~name ?noise ~budget ~expect_exhaustive op =
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
  in
  Alcotest.(check bool)
    (name ^ ": search branch as intended")
    expect_exhaustive
    (Auto_scheduler.space_total config op <= budget);
  let run jobs =
    let ev =
      match noise with
      | None -> Evaluator.create ()
      | Some sigma -> Evaluator.create ~noise:sigma ~noise_seed:9 ()
    in
    let r = Auto_scheduler.search ~config ~jobs ev op in
    (result_key r, Evaluator.explored ev)
  in
  match noise with
  | None ->
      let k1, e1 = run 1 in
      List.iter
        (fun jobs ->
          let k, e = run jobs in
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs %d = jobs 1" name jobs)
            k1 k;
          Alcotest.(check int)
            (Printf.sprintf "%s: evaluator explored merged (jobs %d)" name jobs)
            e1 e)
        [ 2; 4 ]
  | Some _ ->
      (* With jitter every jobs value draws from the same task-indexed
         streams, jobs 1 included. *)
      let k1, e1 = run 1 in
      List.iter
        (fun jobs ->
          let k, e = run jobs in
          Alcotest.(check string)
            (Printf.sprintf "%s: noisy jobs %d = jobs 1" name jobs)
            k1 k;
          Alcotest.(check int)
            (Printf.sprintf "%s: noisy explored merged (jobs %d)" name jobs)
            e1 e)
        [ 2; 4 ]

let test_search_exhaustive_identity () =
  let op = exhaustive_op () in
  check_search_identity ~name:"exhaustive" ~budget:(exhaustive_budget op)
    ~expect_exhaustive:true op

let test_search_sampled_identity () =
  check_search_identity ~name:"sampled" ~budget:250 ~expect_exhaustive:false
    (sampled_op ())

let test_search_conv_identity () =
  (* The conv path adds the im2col prefixed space to the frontier. *)
  let op = tiny_conv () in
  check_search_identity ~name:"conv+im2col" ~budget:(exhaustive_budget op)
    ~expect_exhaustive:true op

let test_search_noisy_parallel_identity () =
  let op = exhaustive_op () in
  check_search_identity ~name:"noisy exhaustive" ~noise:0.05
    ~budget:(exhaustive_budget op) ~expect_exhaustive:true op

(* The trie splits at a fixed depth of 2; the split must reproduce the
   from-scratch stream leaf for leaf, including on an op with fewer
   loops than the depth (a 1-D add: the split leaves nothing to
   enumerate inside each subtask) and on the conv/im2col twin space. *)
let test_search_fixed_depth_matches_naive () =
  List.iter
    (fun (name, op) ->
      let config =
        {
          Auto_scheduler.default_config with
          Auto_scheduler.max_schedules = exhaustive_budget op;
        }
      in
      let naive =
        result_key (Auto_scheduler.search_naive ~config (Evaluator.create ()) op)
      in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs %d = naive" name jobs)
            naive
            (result_key
               (Auto_scheduler.search ~config ~jobs (Evaluator.create ()) op)))
        [ 1; 2 ])
    [ ("1-D add", Linalg.add [| 48 |]); ("conv+im2col", tiny_conv ()) ]

let test_search_pool_reuse () =
  (* A caller-owned stealing pool shared by consecutive searches, one
     exhaustive and one sampled. *)
  let config =
    {
      Auto_scheduler.default_config with
      Auto_scheduler.max_schedules = exhaustive_budget (exhaustive_op ());
    }
  in
  let pool = Util.Domain_pool.create_stealing ~size:3 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun op ->
          let seq =
            result_key (Auto_scheduler.search ~config (Evaluator.create ()) op)
          in
          let par =
            result_key
              (Auto_scheduler.search ~config ~pool (Evaluator.create ()) op)
          in
          Alcotest.(check string) "pooled = sequential" seq par)
        [ exhaustive_op (); sampled_op () ])

let check_staged_identity ?noise name op =
  let config = Auto_scheduler.default_config in
  let run jobs =
    let ev =
      match noise with
      | None -> Evaluator.create ()
      | Some sigma -> Evaluator.create ~noise:sigma ~noise_seed:5 ()
    in
    result_key
      (Auto_scheduler.search_staged ~config ~ranker:pseudo_schedule_ranker
         ~rerank_k:24 ~jobs ev op)
  in
  let k1 = run 1 in
  Alcotest.(check string) (name ^ " jobs 2") k1 (run 2);
  Alcotest.(check string) (name ^ " jobs 4") k1 (run 4)

let test_search_staged_identity () =
  check_staged_identity "staged" (exhaustive_op ())

(* On the 64^3 matmul the re-ranked candidates beat the trivial
   schedule, so their jittered speedups reach the trace; on the small
   matmul the trivial schedule (always on the caller's stream) stays
   best and would hide a stream mismatch. *)
let test_search_noisy_staged_identity () =
  check_staged_identity ~noise:0.05 "noisy staged" (sampled_op ())

let test_search_noisy_sampled_identity () =
  check_search_identity ~name:"noisy sampled" ~noise:0.05 ~budget:250
    ~expect_exhaustive:false (sampled_op ())

let test_search_jobs_validated () =
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Auto_scheduler.search: jobs must be >= 1") (fun () ->
      ignore (Auto_scheduler.search ~jobs:0 (Evaluator.create ()) (exhaustive_op ())));
  Alcotest.check_raises "beam jobs 0 rejected"
    (Invalid_argument "Beam_search.search: jobs must be >= 1") (fun () ->
      ignore (Beam_search.search ~jobs:0 (Evaluator.create ()) (exhaustive_op ())))

(* ------------------------------------------------------------------ *)
(* Beam search identity                                                *)

let test_beam_identity () =
  List.iter
    (fun op ->
      let run jobs =
        let ev = Evaluator.create () in
        let r = Beam_search.search ~jobs ev op in
        (beam_key r, Evaluator.explored ev)
      in
      let k1, e1 = run 1 in
      List.iter
        (fun jobs ->
          let k, e = run jobs in
          Alcotest.(check string) (Printf.sprintf "beam jobs %d" jobs) k1 k;
          Alcotest.(check int)
            (Printf.sprintf "beam explored merged (jobs %d)" jobs)
            e1 e)
        [ 2; 4 ])
    [ exhaustive_op (); Test_helpers.small_conv () ]

let test_beam_ranked_identity () =
  let op = exhaustive_op () in
  let run jobs =
    beam_key
      (Beam_search.search ~ranker:pseudo_state_ranker ~rerank_k:12 ~jobs
         (Evaluator.create ()) op)
  in
  let k1 = run 1 in
  Alcotest.(check string) "ranked beam jobs 2" k1 (run 2);
  Alcotest.(check string) "ranked beam jobs 4" k1 (run 4)

let test_beam_noisy_parallel_identity () =
  let op = exhaustive_op () in
  let run jobs =
    let ev = Evaluator.create ~noise:0.05 ~noise_seed:4 () in
    let r = Beam_search.search ~jobs ev op in
    (beam_key r, Evaluator.explored ev)
  in
  let k1, e1 = run 1 in
  List.iter
    (fun jobs ->
      let k, e = run jobs in
      Alcotest.(check string) (Printf.sprintf "noisy beam jobs %d = jobs 1" jobs) k1 k;
      Alcotest.(check int)
        (Printf.sprintf "noisy beam explored merged (jobs %d)" jobs)
        e1 e)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Per-domain workspace isolation                                      *)

let test_workspace_isolation () =
  (* Four domains drive batched greedy inference through ONE policy
     (Domain.DLS gives each domain its own tensor workspaces): every
     concurrent result must equal the sequential one. *)
  let cfg = Env_config.default in
  let policy =
    Policy.create ~hidden:16 ~backbone_layers:2 (Util.Rng.create 7) cfg
  in
  let states =
    [|
      Sched_state.init (Linalg.matmul ~m:64 ~n:64 ~k:64 ());
      Sched_state.init (Linalg.matmul ~m:8 ~n:12 ~k:16 ());
      Sched_state.init (Linalg.add [| 32; 32 |]);
    |]
  in
  let obs = Array.map (Observation.extract cfg) states in
  let masks = Array.map (Action_space.masks cfg) states in
  let expected = Policy.act_greedy_batch policy ~obs ~masks in
  let pool = Util.Domain_pool.create_stealing ~size:4 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      let rounds =
        Util.Domain_pool.map_array pool
          (fun _ -> Policy.act_greedy_batch policy ~obs ~masks)
          (Array.init 16 (fun i -> i))
      in
      Array.iteri
        (fun r actions ->
          Alcotest.(check bool)
            (Printf.sprintf "round %d matches sequential" r)
            true (actions = expected))
        rounds)

(* ------------------------------------------------------------------ *)
(* Dataset log under concurrency                                       *)

let test_dataset_log_concurrent_adds () =
  (* Four domains add overlapping key ranges: no lost rows, no torn
     rows, dedup exact. *)
  let log = Surrogate.Dataset_log.create ~capacity:100_000 () in
  let features_of i = Array.init Surrogate.Features.dim (fun j -> float_of_int (i + j)) in
  let per_domain = 2_000 in
  let worker w () =
    for i = 0 to per_domain - 1 do
      let key = (i + (w * 500)) mod 3_000 in
      ignore
        (Surrogate.Dataset_log.add log
           {
             Surrogate.Dataset_log.digest = Printf.sprintf "d-%d" key;
             machine = "m";
             seconds = float_of_int key;
             features = features_of key;
           })
    done
  in
  let domains = Array.init 4 (fun w -> Domain.spawn (worker w)) in
  Array.iter Domain.join domains;
  let s = Surrogate.Dataset_log.stats log in
  Alcotest.(check int) "every add accounted" (4 * per_domain)
    (s.Surrogate.Dataset_log.added + s.Surrogate.Dataset_log.duplicates);
  Alcotest.(check int) "size = added (no rotation)" s.Surrogate.Dataset_log.added
    s.Surrogate.Dataset_log.size;
  let entries = Surrogate.Dataset_log.entries log in
  Alcotest.(check int) "snapshot length" s.Surrogate.Dataset_log.size
    (Array.length entries);
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun (e : Surrogate.Dataset_log.entry) ->
      Alcotest.(check bool) "no duplicate row" false (Hashtbl.mem seen e.digest);
      Hashtbl.add seen e.digest ();
      (* Torn-row check: the row's payload must be the one its key was
         written with, not a mix of two writers. *)
      let key = int_of_string (String.sub e.digest 2 (String.length e.digest - 2)) in
      Alcotest.(check (float 0.0)) "seconds intact" (float_of_int key) e.seconds;
      Alcotest.(check bool) "features intact" true (e.features = features_of key))
    entries

let test_dataset_log_parallel_search_tap () =
  (* The measurement tap fires from forked evaluators on pool domains;
     the collected log must match the sequential run's row for row
     (order aside). *)
  let collect jobs =
    let ev = Evaluator.create () in
    let log = Surrogate.Dataset_log.create () in
    Surrogate.Dataset_log.attach log ev;
    ignore (Auto_scheduler.search ~jobs ev (exhaustive_op ()));
    let rows =
      Array.to_list
        (Array.map
           (fun (e : Surrogate.Dataset_log.entry) ->
             Printf.sprintf "%s|%s|%h" e.digest e.machine e.seconds)
           (Surrogate.Dataset_log.entries log))
    in
    List.sort compare rows
  in
  let seq = collect 1 in
  Alcotest.(check bool) "log non-empty" true (seq <> []);
  Alcotest.(check (list string)) "jobs 4 log = jobs 1 log" seq (collect 4)

let suite =
  [
    Alcotest.test_case "steal pool: map_array ordered" `Quick
      test_steal_pool_map_array;
    Alcotest.test_case "steal pool: irregular task stress" `Slow
      test_steal_pool_irregular;
    Alcotest.test_case "steal pool: exception propagation" `Quick
      test_steal_pool_exceptions;
    Alcotest.test_case "steal pool: shutdown idempotent" `Quick
      test_steal_pool_shutdown;
    Alcotest.test_case "cache: single-domain contention is zero" `Quick
      test_cache_contention_single_domain_zero;
    Alcotest.test_case "cache: contention counted under domains" `Slow
      test_cache_contention_counted;
    Alcotest.test_case "search: exhaustive identity jobs 1/2/4" `Slow
      test_search_exhaustive_identity;
    Alcotest.test_case "search: sampled identity jobs 1/2/4" `Slow
      test_search_sampled_identity;
    Alcotest.test_case "search: conv im2col identity" `Slow
      test_search_conv_identity;
    Alcotest.test_case "search: noisy jobs 1/2/4" `Slow
      test_search_noisy_parallel_identity;
    Alcotest.test_case "search: noisy sampled jobs 1/2/4" `Slow
      test_search_noisy_sampled_identity;
    Alcotest.test_case "search: fixed depth = naive" `Slow
      test_search_fixed_depth_matches_naive;
    Alcotest.test_case "search: caller-owned pool reuse" `Slow
      test_search_pool_reuse;
    Alcotest.test_case "search: staged identity jobs 1/2/4" `Slow
      test_search_staged_identity;
    Alcotest.test_case "search: jobs < 1 rejected" `Quick
      test_search_jobs_validated;
    Alcotest.test_case "beam: identity jobs 1/2/4" `Slow test_beam_identity;
    Alcotest.test_case "beam: ranked identity jobs 1/2/4" `Slow
      test_beam_ranked_identity;
    Alcotest.test_case "beam: noisy jobs 1/2/4" `Slow
      test_beam_noisy_parallel_identity;
    Alcotest.test_case "workspace isolation under concurrent inference" `Slow
      test_workspace_isolation;
    Alcotest.test_case "dataset log: concurrent adds" `Slow
      test_dataset_log_concurrent_adds;
    Alcotest.test_case "dataset log: parallel search tap" `Slow
      test_dataset_log_parallel_search_tap;
    Alcotest.test_case "search: noisy staged jobs 1/2/4" `Slow
      test_search_noisy_staged_identity;
  ]

(* Multicore search engine: candidates/sec scaling of the domain-parallel
   exhaustive (prefix-sharing) and beam searches across --jobs 1/2/4,
   with byte-identity of the results enforced before any number is
   reported.

   The evaluator runs with [measure_delay_s] > 0: each state-seconds
   computation (every candidate: search forks price uncached) sleeps
   like a hardware measurement would, so the bench measures how well
   the search overlaps measurement latency — the quantity that matters
   on a real tuning box — instead of the host's core count. Sleeps on
   different domains overlap regardless of cores; compute does not, and
   is negligible at these delays.

   Every parallel run is fingerprinted (best schedule, speedup, explored,
   digest of the full trace) against the jobs=1 run; a divergence prints
   MISMATCH and fails the gate. The committed full run is
   BENCH_search.json; the CI quick run greps the gate line. *)

let now () = Unix.gettimeofday ()

let mismatch = ref false

let require_equal what a b =
  if a <> b then begin
    mismatch := true;
    Printf.printf "MISMATCH: %s\n  jobs=1: %s\n  parallel: %s\n" what a b
  end

type point = { jobs : int; wall_s : float; explored : int }

let rate p = float_of_int p.explored /. p.wall_s

(* Fingerprints carry the trace as a digest: the full trace is thousands
   of points, and byte-identity of the digest is byte-identity of the
   trace. *)
let search_fp (r : Auto_scheduler.result) =
  let trace =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun (i, s) -> Printf.sprintf "%d:%.17g" i s)
            r.Auto_scheduler.trace))
  in
  Printf.sprintf "%s|%.17g|%d|%s"
    (Schedule.to_string r.Auto_scheduler.best_schedule)
    r.Auto_scheduler.best_speedup r.Auto_scheduler.explored
    (Digest.to_hex (Digest.string trace))

let beam_fp (r : Beam_search.result) =
  Printf.sprintf "%s|%.17g|%d"
    (Schedule.to_string r.Beam_search.best_schedule)
    r.Beam_search.best_speedup r.Beam_search.explored

(* A conv small enough to enumerate fully (under 2k candidates including
   the im2col twin space) yet deep enough that every candidate is a
   distinct measurement. *)
let bench_op () =
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

let jobs_list = [ 1; 2; 4 ]

let repeats = 2

let run_scaling ~label ~delay ~run_search ~fp =
  let points =
    List.map
      (fun jobs ->
        (* The pool is created before the clock starts: domain spawns
           cost milliseconds, which is real noise against the beam
           search's sub-second walls and not part of search
           throughput (callers reuse one pool across searches). *)
        let pool =
          if jobs > 1 then Some (Util.Domain_pool.create_stealing ~size:jobs)
          else None
        in
        (* Best-of-N walls, fresh evaluator per repetition (a warm
           transposition cache would skip the simulated measurement
           sleeps). Jitter on a shared container only ever slows a run
           down, so the minimum is the honest throughput; fingerprints
           must agree on every repetition, not just the fastest. *)
        let best_wall = ref infinity in
        let last_fp = ref None in
        let explored = ref 0 in
        for _ = 1 to repeats do
          let ev = Evaluator.create ~measure_delay_s:delay () in
          let t0 = now () in
          let r = run_search ~jobs ?pool ev in
          let wall = now () -. t0 in
          let f = fp r in
          (match !last_fp with
          | Some prev ->
              require_equal
                (Printf.sprintf "%s jobs=%d across repeats" label jobs)
                prev f
          | None -> ());
          last_fp := Some f;
          explored := Evaluator.explored ev;
          if wall < !best_wall then best_wall := wall
        done;
        Option.iter Util.Domain_pool.shutdown pool;
        ( (jobs, Option.get !last_fp),
          { jobs; wall_s = !best_wall; explored = !explored } ))
      jobs_list
  in
  let fps = List.map fst points in
  let points = List.map snd points in
  let base_fp = List.assoc 1 fps in
  List.iter
    (fun (jobs, f) ->
      if jobs <> 1 then
        require_equal (Printf.sprintf "%s jobs=%d vs jobs=1" label jobs)
          base_fp f)
    fps;
  let base = rate (List.hd points) in
  Printf.printf "%-12s %6s %10s %10s %14s %9s\n" "search" "jobs" "wall (s)"
    "explored" "cands/sec" "scaling";
  List.iter
    (fun p ->
      Printf.printf "%-12s %6d %10.2f %10d %14.0f %8.2fx\n" label p.jobs
        p.wall_s p.explored (rate p) (rate p /. base))
    points;
  points

let json_points b key points =
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let base = rate (List.hd points) in
  add "  \"%s\": [\n" key;
  List.iteri
    (fun i p ->
      add
        "    {\"jobs\": %d, \"wall_seconds\": %.3f, \"explored\": %d, \
         \"candidates_per_sec\": %.0f, \"scaling_vs_jobs1\": %.2f}%s\n"
        p.jobs p.wall_s p.explored (rate p) (rate p /. base)
        (if i = List.length points - 1 then "" else ","))
    points;
  add "  ],\n"

let run ?(quick = false) (_ : Bench_common.config) =
  mismatch := false;
  Bench_common.heading
    "multicore search: domain-parallel exhaustive + beam scaling";
  let delay = if quick then 0.0015 else 0.003 in
  let threshold = if quick then 2.0 else 3.0 in
  let op = bench_op () in
  let budget = Auto_scheduler.space_total Auto_scheduler.default_config op + 1 in
  Printf.printf
    "op %s | space_total %d (full enumeration) | measure delay %.1f ms\n"
    op.Linalg.op_name budget (delay *. 1000.0);

  Bench_common.subheading "exhaustive prefix-sharing search";
  let config =
    { Auto_scheduler.default_config with Auto_scheduler.max_schedules = budget }
  in
  let exhaustive =
    run_scaling ~label:"exhaustive" ~delay
      ~run_search:(fun ~jobs ?pool ev ->
        Auto_scheduler.search ~config ~jobs ?pool ev op)
      ~fp:search_fp
  in

  Bench_common.subheading "beam search, per-depth parallel scoring";
  (* Beam parallelism is per-depth with a selection barrier between
     depths, so scaling needs enough children per depth to keep the
     pool busy across the barrier; the default width 8 on this tiny op
     leaves single-digit candidates per wave. Width 16 is the regime
     the flag targets. *)
  let beam_config =
    { Beam_search.default_config with Beam_search.beam_width = 16 }
  in
  let beam =
    run_scaling ~label:"beam" ~delay
      ~run_search:(fun ~jobs ?pool ev ->
        Beam_search.search ~config:beam_config ~jobs ?pool ev op)
      ~fp:beam_fp
  in

  let scaling4 points =
    match List.find_opt (fun p -> p.jobs = 4) points with
    | Some p -> rate p /. rate (List.hd points)
    | None -> 0.0
  in
  let ex4 = scaling4 exhaustive in
  let beam4 = scaling4 beam in
  let pass = (not !mismatch) && ex4 >= threshold && beam4 >= threshold in
  Printf.printf
    "\nsearch gate: %s (exhaustive %.2fx, beam %.2fx at jobs 4; threshold \
     %.1fx%s)\n"
    (if pass then "PASS" else "FAIL")
    ex4 beam4 threshold
    (if !mismatch then "; MISMATCH present" else "");

  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"search\",\n";
  add "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  add "  \"op\": \"%s\",\n" op.Linalg.op_name;
  add "  \"measure_delay_ms\": %.1f,\n" (delay *. 1000.0);
  json_points b "exhaustive" exhaustive;
  json_points b "beam" beam;
  add "  \"scaling_jobs4\": {\"exhaustive\": %.2f, \"beam\": %.2f},\n" ex4
    beam4;
  add "  \"threshold\": %.1f,\n" threshold;
  add "  \"identical_across_jobs\": %b,\n" (not !mismatch);
  add "  \"gate_pass\": %b\n" pass;
  add "}\n";
  let path = "BENCH_search.json" in
  (* Atomic (temp + rename): a reader or a crash mid-run never sees a
     half-written artifact. *)
  Util.Atomic_file.write_string ~path (Buffer.contents b);
  Printf.printf "wrote %s%s\n" path
    (if !mismatch then " (MISMATCH present!)" else "")

(* Memoized evaluation pipeline: how much of the evaluation bill the
   structural digests and the prefix-sharing exhaustive search save.

   Two measurements:

   1. digest microbench: [Loop_nest.digest] (structural, no printing)
      vs the print+MD5 scheme it replaced in lib/serve;
   2. exhaustive auto-scheduler search: candidates/sec of
      [Auto_scheduler.search_naive] (apply_all per candidate, full cost
      model per evaluation) vs the prefix-sharing
      [Auto_scheduler.search], which applies each transformation once
      per distinct schedule prefix and prices its distinct candidates
      on evaluator forks.

   Every memoized run is checked against its naive twin (same best
   schedule, speedup and explored count — the differential suite in
   test/test_evalcache.ml proves bit-identity; here we just refuse to
   report a number for a run that diverged, printing MISMATCH).

   The committed full run is BENCH_evalcache.json; EXPERIMENTS.md
   records the interpretation. *)

let now () = Unix.gettimeofday ()

(* -- 1. digest microbench --------------------------------------------- *)

type digest_point = {
  nest_name : string;
  structural_ns : float;
  print_md5_ns : float;
}

let time_per_call ~iters f =
  (* One warm-up call keeps one-time lowering/alloc effects out. *)
  ignore (Sys.opaque_identity (f ()));
  let t0 = now () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int iters *. 1e9

let digest_bench ~iters =
  List.map
    (fun (nest_name, op) ->
      let nest = Lower.to_loop_nest op in
      let structural_ns =
        time_per_call ~iters (fun () -> Loop_nest.digest nest)
      in
      let print_md5_ns =
        time_per_call ~iters (fun () ->
            Digest.to_hex (Digest.string (Ir_printer.to_string nest)))
      in
      { nest_name; structural_ns; print_md5_ns })
    [
      ("matmul_64", Linalg.matmul ~m:64 ~n:64 ~k:64 ());
      ( "conv2d_28",
        Linalg.conv2d
          {
            Linalg.batch = 1;
            in_h = 28;
            in_w = 28;
            channels = 32;
            kernel_h = 3;
            kernel_w = 3;
            filters = 64;
            stride = 1;
          } );
    ]

(* -- 2. search: naive vs prefix-sharing --------------------------------- *)

type search_point = {
  label : string;
  wall_s : float;
  evaluated : int;  (* evaluations, one cost-model call each *)
}

let fingerprint (r : Auto_scheduler.result) =
  Printf.sprintf "%s|%.17g|%d"
    (Schedule.to_string r.Auto_scheduler.best_schedule)
    r.Auto_scheduler.best_speedup r.Auto_scheduler.explored

let mismatch = ref false

let require_equal what a b =
  if a <> b then begin
    mismatch := true;
    Printf.printf "MISMATCH: %s\n  naive:    %s\n  memoized: %s\n" what a b
  end

let exhaustive_bench ~budget ?(tile_sizes = []) op =
  let config =
    {
      Auto_scheduler.default_config with
      Auto_scheduler.max_schedules = budget;
      tile_sizes;
    }
  in
  let run label search ev =
    let t0 = now () in
    let r = search ~config ev op in
    let wall_s = now () -. t0 in
    ({ label; wall_s; evaluated = Evaluator.explored ev }, r)
  in
  let naive_pt, naive_r =
    run "naive (apply_all per candidate)"
      (fun ~config ev op -> Auto_scheduler.search_naive ~config ev op)
      (Evaluator.create ())
  in
  let dfs_pt, dfs_r =
    run "prefix-sharing DFS"
      (fun ~config ev op -> Auto_scheduler.search ~config ev op)
      (Evaluator.create ())
  in
  require_equal "exhaustive naive vs prefix-sharing" (fingerprint naive_r)
    (fingerprint dfs_r);
  [ naive_pt; dfs_pt ]

(* -- harness ----------------------------------------------------------- *)

let rate (p : search_point) = float_of_int p.evaluated /. p.wall_s

let print_search_table points =
  Printf.printf "%-42s %10s %10s %12s\n" "variant" "wall (s)" "evals"
    "evals/sec";
  let base = rate (List.hd points) in
  List.iter
    (fun p ->
      Printf.printf "%-42s %10.4f %10d %12.0f  (%.2fx)\n" p.label p.wall_s
        p.evaluated (rate p) (rate p /. base))
    points

let json_of_results ~quick (dig : digest_point list)
    (exhaustive : search_point list) =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"evalcache\",\n";
  add "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  add "  \"digest\": [\n";
  List.iteri
    (fun i d ->
      add
        "    {\"nest\": \"%s\", \"structural_ns\": %.1f, \"print_md5_ns\": \
         %.1f, \"speedup\": %.1f}%s\n"
        d.nest_name d.structural_ns d.print_md5_ns
        (d.print_md5_ns /. d.structural_ns)
        (if i = List.length dig - 1 then "" else ","))
    dig;
  add "  ],\n";
  let search_json key points =
    let base = rate (List.hd points) in
    add "  \"%s\": [\n" key;
    List.iteri
      (fun i p ->
        add
          "    {\"variant\": \"%s\", \"wall_seconds\": %.4f, \"evaluations\": \
           %d, \"evals_per_sec\": %.0f, \"speedup_vs_naive\": %.2f}%s\n"
          p.label p.wall_s p.evaluated (rate p) (rate p /. base)
          (if i = List.length points - 1 then "" else ","))
      points;
    add "  ],\n"
  in
  search_json "exhaustive" exhaustive;
  add "  \"mismatch\": %b\n" !mismatch;
  add "}\n";
  Buffer.contents b

let run ?(quick = false) () =
  mismatch := false;
  Bench_common.heading "memoized evaluation pipeline: digests, prefix sharing";

  Bench_common.subheading "structural digest vs print+MD5 (ns per digest)";
  let dig = digest_bench ~iters:(if quick then 2000 else 20000) in
  List.iter
    (fun d ->
      Printf.printf "%-12s structural %8.0f ns | print+MD5 %8.0f ns | %.1fx\n"
        d.nest_name d.structural_ns d.print_md5_ns
        (d.print_md5_ns /. d.structural_ns))
    dig;

  Bench_common.subheading "exhaustive auto-scheduler search (prefix-sharing DFS)";
  (* A 7-loop conv: a deep nest, where a candidate's shared prefix is
     the most work to re-apply. tile_sizes restricted so the space
     (~11k candidates with the im2col twin) stays exhaustive. *)
  let ex_op =
    Linalg.conv2d
      {
        Linalg.batch = 1;
        in_h = 14;
        in_w = 14;
        channels = 8;
        kernel_h = 3;
        kernel_w = 3;
        filters = 16;
        stride = 1;
      }
  in
  let exhaustive = exhaustive_bench ~budget:20000 ~tile_sizes:[ 2; 4 ] ex_op in
  print_search_table exhaustive;

  let json = json_of_results ~quick dig exhaustive in
  let path = "BENCH_evalcache.json" in
  (* Atomic (temp + rename): a reader or a crash mid-run never sees a
     half-written artifact. *)
  Util.Atomic_file.write_string ~path json;
  Printf.printf "\nwrote %s%s\n" path
    (if !mismatch then " (MISMATCH present!)" else "")

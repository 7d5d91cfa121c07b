(* The [serve] workload: an in-process Serve.Server (one worker, the CLI
   batcher defaults) driven open-loop by one generator thread with
   Poisson arrivals at a fixed rate. A fixed share of requests repeats a
   small hot set; the rest are distinct ops (distinct by
   Engine.nest_digest), so the result cache serves hits and misses side
   by side. Each request is timed from when it was due, not from when
   it was sent. Set-up trains the served policy briefly, with the
   architecture Engine.create builds (Policy.create's default backbone),
   because a checkpoint of the CLI train architecture does not load into
   an engine. *)

open Report
module P = Serve.Protocol

(* Requests per second: half the all-miss capacity that the capacity
   probe below measured (about 550/s on two vCPUs). *)
let rate = 275.0
let hot_share = 0.5
let hot_ops = 16
let latency_limit_ms = 50.0
let train_iterations = 4
let train_ops = 64

(* A run whose generator sent half of its requests more than this late
   fell behind its schedule and is not scored; a late request now and
   then is the host descheduling the generator, and its wait is counted
   in the request's latency anyway. *)
let late_limit_ms = 5.0
let kinds = [| "matmul"; "conv2d"; "maxpool"; "add"; "relu" |]

(* The served policy is trained at one fixed seed: the workload seed
   generates the request stream, the input a server sees. *)
let policy_seed = 0

let train_policy ~path =
  let seed = policy_seed in
  let split = Generator.generate ~seed () in
  let ops =
    Util.Rng.sample_without_replacement (Util.Rng.derive seed ~stream:3) train_ops
      split.Generator.train
  in
  let cfg = Env_config.default in
  let env = Env.create ~evaluator:(Evaluator.create ~machine:cfg.Env_config.machine ()) cfg in
  let policy = Policy.create ~hidden:Serve.Engine.default_config.Serve.Engine.hidden
      (Util.Rng.create seed) cfg in
  let config = { Trainer.default_config with Trainer.iterations = train_iterations; seed } in
  ignore (Trainer.train config env policy ~ops);
  Policy.save policy path

let engine_config path = { Serve.Engine.default_config with Serve.Engine.checkpoint = Some path }

let create_engine path =
  match Serve.Engine.create (engine_config path) with
  | Ok e -> e
  | Error e -> failwith ("serve: engine rejected the trained policy: " ^ e)

(* Set-up as a user pays it: train, save, start the engine and server. *)
let setup ~work =
  let path = Filename.concat work "serve-policy.params" in
  train_policy ~path;
  let engine = create_engine path in
  ((engine, Serve.Server.create ~config:Serve.Server.default_config engine), path)

let discard ((engine, server), _) =
  Serve.Server.drain server;
  Serve.Engine.shutdown engine

type request = { due : float; spec : string; op : Linalg.t }

(* The generator's shape menus hold about 1500 distinct Table 2 ops, too
   few for the miss stream, so misses draw sizes from wider ranges. *)
let random_spec rng =
  let pick lo hi step = step * (lo + Util.Rng.int rng (hi - lo + 1)) in
  match Util.Rng.int rng 10 with
  | 0 | 1 | 2 -> Printf.sprintf "matmul:%dx%dx%d" (pick 1 64 16) (pick 1 64 16) (pick 1 64 16)
  | 3 | 4 | 5 ->
      let hw = Util.Rng.choice rng [| 7; 14; 28; 56 |] in
      Printf.sprintf "conv2d:%dx%dx%d,k%d,f%d,s%d" hw hw (pick 1 16 16)
        (Util.Rng.choice rng [| 1; 3 |])
        (pick 1 16 16)
        (Util.Rng.choice rng [| 1; 2 |])
  | 6 ->
      let hw = Util.Rng.choice rng [| 14; 28; 56; 112 |] in
      let k = Util.Rng.choice rng [| 2; 3 |] in
      Printf.sprintf "maxpool:%dx%dx%d,k%d,s%d" hw hw (pick 1 64 8) k k
  | 7 | 8 -> Printf.sprintf "add:%dx%d" (pick 1 128 16) (pick 1 128 16)
  | _ -> Printf.sprintf "relu:%dx%d" (pick 1 128 16) (pick 1 128 16)

let gen_requests ?(rate = rate) ?(hot_share = hot_share) ~seed engine ~n =
  let rng = Util.Rng.derive seed ~stream:4 in
  let seen = Hashtbl.create 4096 in
  let menu () =
    Op_spec.to_spec (Generator.random_op rng (Util.Rng.choice rng kinds))
  in
  let rec distinct draw tries =
    if tries > 100_000 then failwith "serve: cannot draw another distinct op";
    match draw () with
    | None -> distinct draw (tries + 1)
    | Some spec -> (
        match Serve.Engine.resolve_target engine (P.Spec spec) with
        | Error _ -> distinct draw (tries + 1)
        | Ok op ->
            let d = Serve.Engine.nest_digest op in
            if Hashtbl.mem seen d then distinct draw (tries + 1)
            else begin
              Hashtbl.add seen d ();
              (spec, op)
            end)
  in
  let hot = Array.init hot_ops (fun _ -> distinct menu 0) in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t -. (log (1.0 -. Util.Rng.uniform rng) /. rate);
      let spec, op =
        if Util.Rng.uniform rng < hot_share then Util.Rng.choice rng hot
        else distinct (fun () -> Some (random_spec rng)) 0
      in
      { due = !t; spec; op })

type drive = {
  start : float;
  replies : (float * P.response) option array;
  late_ms : float array;
}

let drive server reqs =
  let n = Array.length reqs in
  let replies = Array.make n None in
  let lock = Mutex.create () in
  let pending = Atomic.make n in
  let late_ms = Array.make n 0.0 in
  let start = Trace.now () +. 0.02 in
  Array.iteri
    (fun i r ->
      let due = start +. r.due in
      let d = due -. Trace.now () in
      if d > 0.0 then Unix.sleepf d;
      late_ms.(i) <- (Trace.now () -. due) *. 1e3;
      let req = P.Optimize { id = string_of_int i; target = P.Spec r.spec; deadline_ms = None } in
      Serve.Server.submit server req (fun resp ->
          let t = Trace.now () in
          Mutex.lock lock;
          replies.(i) <- Some (t, resp);
          Mutex.unlock lock;
          Atomic.decr pending))
    reqs;
  let deadline = Trace.now () +. 60.0 in
  while Atomic.get pending > 0 && Trace.now () < deadline do
    Unix.sleepf 0.001
  done;
  Mutex.lock lock;
  let replies = Array.copy replies in
  Mutex.unlock lock;
  { start; replies; late_ms }

let window = 500

let rec chunks n xs =
  if List.length xs < 2 * n then [ xs ]
  else List.filteri (fun i _ -> i < n) xs :: chunks n (List.filteri (fun i _ -> i >= n) xs)

let run ~seed ~seconds ~work =
  (* The open loop cannot share the host with set-ups, so the run sets up
     twice before it and twice after it. *)
  let su = setups () in
  discard (set_up su (fun () -> setup ~work));
  let (engine, server), path = set_up su (fun () -> setup ~work) in
  let reqs = gen_requests ~seed engine ~n:(int_of_float (rate *. seconds)) in
  let d = drive server reqs in
  Serve.Server.drain server;
  (* Oracle: every ok reply is byte-identical to a singleton solve_batch
     answer of a fresh engine loaded from the same checkpoint. *)
  let fresh = create_engine path in
  let expected = Hashtbl.create 4096 in
  let oracle id r =
    let o =
      match Hashtbl.find_opt expected r.spec with
      | Some o -> o
      | None ->
          let o =
            match Serve.Engine.solve_batch fresh [| r.op |] with
            | [| Ok o |] -> Some o
            | _ -> None
          in
          Hashtbl.add expected r.spec o;
          o
    in
    Option.map
      (fun (o : Serve.Engine.outcome) ->
        P.encode_response
          (P.Ok_reply
             {
               P.r_id = id;
               schedule = o.Serve.Engine.schedule;
               speedup = o.Serve.Engine.speedup;
               policy_digest = Serve.Engine.policy_digest fresh;
             }))
      o
  in
  let failed = ref 0 and lat_ok = ref [] and speedups = ref [] and good = ref 0 in
  let last = ref d.start in
  Array.iteri
    (fun i reply ->
      match reply with
      | Some (t, (P.Ok_reply rep as resp)) ->
          last := Float.max !last t;
          let lat = (t -. (d.start +. reqs.(i).due)) *. 1e3 in
          if oracle rep.P.r_id reqs.(i) <> Some (P.encode_response resp) then incr failed
          else begin
            lat_ok := lat :: !lat_ok;
            speedups := rep.P.speedup :: !speedups;
            if lat <= latency_limit_ms then incr good
          end
      | Some (t, _) ->
          last := Float.max !last t;
          incr failed
      | None -> incr failed)
    d.replies;
  Serve.Engine.shutdown fresh;
  Serve.Engine.shutdown engine;
  for _ = 1 to 2 do
    discard (set_up su (fun () -> setup ~work))
  done;
  let setup_s = setup_s su in
  let lat = List.rev !lat_ok in
  let goodput = float_of_int !good /. (!last -. d.start) in
  let late = Array.to_list d.late_ms in
  let late_p50 = Util.Stats.percentile 50.0 late in
  let hits = Serve.Engine.cache_hits engine and misses = Serve.Engine.cache_misses engine in
  let speedup = if !speedups = [] then nan else Util.Stats.geomean !speedups in
  let rss = peak_rss_mb () in
  let p50 = if lat = [] then nan else Util.Stats.median lat in
  let run_tail = tail_value lat in
  (* The tail over the whole run rests on its ten slowest requests; the
     median over windows of 500 requests of each window's tail (p97.8) is
     printed beside it as a steadier view. *)
  let windows = chunks window lat in
  let window_tail = Util.Stats.median (List.map tail_value windows) in
  {
    attempted = Array.length reqs;
    failed = !failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "work_per_s" "1/s" goodput;
        m "latency_ms_p50" "ms" p50;
      ];
    named =
      [
        m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MB" rss;
        m "failed_frac" "frac" (failed_frac ~attempted:(Array.length reqs) ~failed:!failed);
        m "serve.latency_ms_p50" "ms" p50;
        m "serve.latency_ms_tail" "ms" run_tail;
        m "serve.goodput_rps" "1/s" goodput;
        m "serve.speedup_geomean" "x" speedup;
      ];
    notes =
      [
        Printf.sprintf
          "%s; the median over %d windows of %d requests of each window's tail (p%.2f) \
           is %.3f ms"
          (tail_note "serve.latency_ms_tail" lat) (List.length windows) window
          (match tail (List.hd windows) with Some t -> t.t_pct | None -> nan)
          window_tail;
        Printf.sprintf
          "open loop: %d requests at %.0f/s Poisson, %.0f%% from %d hot ops; limit %.0f ms; \
           result cache %d hits / %d misses"
          (Array.length reqs) rate (hot_share *. 100.0) hot_ops latency_limit_ms hits misses;
        Printf.sprintf "generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms" late_p50
          (Util.Stats.percentile 99.0 late) (List.fold_left Float.max 0.0 late);
      ];
    invalid =
      (if late_p50 > late_limit_ms then
         Some (Printf.sprintf "generator fell behind: median lateness %.1f ms > %.0f ms" late_p50
                 late_limit_ms)
       else None);
  }

(* -- traced run ----------------------------------------------------------

   The open loop runs once, traced, over half as many requests. Its work
   runs on the server's worker domain, out of reach of spans placed here,
   so it yields only Server.metrics: queue waits, batch sizes, shed and
   expired counts. The same request stream is then replayed through
   Engine.solve_batch on fresh engines, in batches of the mean size the
   server formed: once to warm up, once untraced and once traced. The
   last two differ by the tracing overhead, and layer spans must cover the
   traced replay. *)

let run_traced ~seed ~seconds ~work =
  let (engine, server), path = setup ~work in
  let reqs = gen_requests ~seed engine ~n:(int_of_float (rate *. seconds /. 2.0)) in
  let gc0 = gc_start () in
  let d = drive server reqs in
  Serve.Server.drain server;
  let metrics = Serve.Server.metrics server in
  let count = Serve.Metrics.hist_count metrics "serve_batch_size" in
  let batch_mean = Serve.Metrics.hist_sum metrics "serve_batch_size" /. float_of_int (max 1 count) in
  let waits = Serve.Metrics.hist_count metrics "serve_queue_wait_seconds" in
  let wait_q q =
    Option.value ~default:0.0 (Serve.Metrics.quantile metrics "serve_queue_wait_seconds" q) *. 1e3
  in
  let batch = max 1 (int_of_float (Float.round batch_mean)) in
  let replay () =
    let e = Trace.span "serve.engine_create" (fun () -> create_engine path) in
    let n = Array.length reqs in
    let i = ref 0 in
    while !i < n do
      let len = min batch (n - !i) in
      let ops = Array.init len (fun k -> reqs.(!i + k).op) in
      ignore (Trace.span "serve.solve_batch" (fun () -> Serve.Engine.solve_batch e ops));
      i := !i + len
    done;
    Trace.span "serve.engine_shutdown" (fun () -> Serve.Engine.shutdown e)
  in
  replay ();
  let t0 = Trace.now () in
  replay ();
  let untraced = Trace.now () -. t0 in
  Trace.reset ();
  Trace.enabled := true;
  let t1 = Trace.now () in
  replay ();
  let t2 = Trace.now () in
  Trace.enabled := false;
  let gc = gc_since gc0 in
  let s = Trace.summarize () in
  let errors = ref 0 in
  Array.iter
    (function Some (_, P.Ok_reply _) -> () | _ -> incr errors)
    d.replies;
  let shed = Serve.Metrics.counter metrics "serve_shed_total" in
  let expired = Serve.Metrics.counter metrics "serve_expired_total" in
  let base, state = evaluator_caches (Serve.Engine.evaluator_cache_stats engine) in
  let result_cache = Serve.Engine.cache_stats engine in
  Serve.Engine.shutdown engine;
  let layer =
    [
      m "serve.queue_wait_ms.p50" "ms" (wait_q 0.5);
      m "serve.queue_wait_ms.tail" "ms"
        (wait_q (1.0 -. (10.0 /. float_of_int (max 11 waits))));
      m "serve.batch_size.mean" "count" batch_mean;
      m "serve.result_cache.hit_frac" "frac" (hit_frac [ result_cache ]);
      m "serve.solve_batch.ms" "ms" (Trace.self_ms s "serve.solve_batch");
      m "serve.shed" "count" (float_of_int shed);
      m "serve.expired" "count" (float_of_int expired);
      m "serve.errors" "count" (float_of_int (!errors - shed - expired));
      m "serve.generator_late_ms.p99" "ms" (Util.Stats.percentile 99.0 (Array.to_list d.late_ms));
      m "perf.base_cache.hit_frac" "frac" (hit_frac base);
      m "perf.state_cache.hit_frac" "frac" (hit_frac state);
      m "gc.minor_mwords" "Mwords" (gc.minor_words /. 1e6);
      m "gc.major_collections" "count" (float_of_int gc.major_collections);
    ]
  in
  {
    layer;
    untraced_s = untraced;
    traced_s = t2 -. t1;
    window = (t1, t2);
    checked = 0;
    mismatched = 0;
    traced_notes =
      [
        Printf.sprintf
          "open loop: %d requests; its work runs on the server's worker domain, so spans \
           cover the replay of %d requests through solve_batch in batches of %d"
          (Array.length reqs) (Array.length reqs) batch;
      ];
  }

(* -- capacity probe -------------------------------------------------------

   perfbench.exe --workload serve-capacity steps the open-loop rate of an
   all-miss stream (every request a distinct op, no hot set) through a
   fresh server per step, [seconds] per step. The server keeps up with a
   rate when it sheds, expires and fails nothing and its backlog does not
   grow: the median latency of the last quarter of the requests stays
   within twice that of the first quarter. The serve workload's [rate] is
   half the highest rate it kept up with (NOTES.md). *)

let probe_rates = [ 250.; 400.; 500.; 550.; 600.; 650.; 700.; 1000.; 2000. ]

let capacity ~seed ~seconds ~work =
  let ((_, path) as first) = setup ~work in
  discard first;
  let quarter_median lats q =
    let n = Array.length lats in
    let part = Array.to_list (Array.sub lats (q * n / 4) (max 1 (n / 4))) in
    Util.Stats.median (List.filter Float.is_finite part)
  in
  let kept = ref 0.0 and behind = ref false and saturated = ref [] in
  let lines =
    List.map
      (fun rate ->
        let engine = create_engine path in
        let server = Serve.Server.create ~config:Serve.Server.default_config engine in
        let reqs =
          gen_requests ~rate ~hot_share:0.0 ~seed engine
            ~n:(int_of_float (rate *. seconds))
        in
        let d = drive server reqs in
        Serve.Server.drain server;
        let batch =
          let mt = Serve.Server.metrics server in
          Serve.Metrics.hist_sum mt "serve_batch_size"
          /. float_of_int (max 1 (Serve.Metrics.hist_count mt "serve_batch_size"))
        in
        Serve.Engine.shutdown engine;
        let bad = ref 0 and last = ref d.start in
        let lats =
          Array.mapi
            (fun i reply ->
              match reply with
              | Some (t, P.Ok_reply _) ->
                  last := Float.max !last t;
                  (t -. (d.start +. reqs.(i).due)) *. 1e3
              | _ ->
                  incr bad;
                  nan)
            d.replies
        in
        let first = quarter_median lats 0 and final = quarter_median lats 3 in
        let ok = !bad = 0 && final <= 2.0 *. first in
        let answered = float_of_int (Array.length reqs - !bad) /. (!last -. d.start) in
        if ok && not !behind then kept := rate else behind := true;
        if not ok then saturated := answered :: !saturated;
        Printf.sprintf
          "rate %6.0f/s: answered %6.1f/s, not ok %5d, mean batch %.2f, median latency first \
           quarter %7.2f ms, last quarter %7.2f ms, generator late p50 %.3f ms: %s"
          rate answered !bad batch first final
          (Util.Stats.percentile 50.0 (Array.to_list d.late_ms))
          (if ok then "kept up" else "fell behind"))
      probe_rates
  in
  {
    attempted = 1;
    failed = 0;
    metrics = [];
    named = [];
    notes =
      lines
      @ [
          Printf.sprintf
            "all-miss capacity: kept up with %.0f requests/s; answered a median %.0f/s when \
             it fell behind; the serve workload runs %.0f"
            !kept
            (if !saturated = [] then nan else Util.Stats.median !saturated)
            rate;
        ];
    invalid = None;
  }

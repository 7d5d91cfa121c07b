(* Closed-loop load generator for the serving daemon (lib/serve).

   Three measurements, each in-process against a real Server (worker
   pool, dispatcher, batcher — everything but the socket); 1 and 3 are
   claims, 2 is reported as measured:

   1. result caching: a repeated sweep answers >= 10x faster than the
      cold sweep that populated the cache;
   2. closed-loop client scaling: throughput at 1, 2 and 4 clients on
      one worker domain. Dispatch is work-conserving, so a lone client
      is answered without waiting and more clients only add a backlog,
      which leaves as batches; a batched rollout is not measurably
      cheaper per row than a lone one (EXPERIMENTS.md), so the rows
      show what queueing does, not an amortization gain;
   3. admission control: with a tiny queue and many clients the server
      sheds with explicit overloaded replies while the latency of the
      accepted requests stays bounded.

   The committed quick run is BENCH_serve.json (written to the cwd);
   EXPERIMENTS.md records the interpretation. *)

let now () = Unix.gettimeofday ()

(* Blocking request over Server.submit: the reply callback (fired on a
   dispatcher/worker domain) hands the response back to the calling
   client thread. *)
let sync_call server req =
  let m = Mutex.create () in
  let c = Condition.create () in
  let slot = ref None in
  let t0 = now () in
  Serve.Server.submit server req (fun resp ->
      Mutex.lock m;
      slot := Some resp;
      Condition.broadcast c;
      Mutex.unlock m);
  Mutex.lock m;
  while !slot = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  let latency = now () -. t0 in
  (Option.get !slot, latency)

let optimize_req id spec =
  Serve.Protocol.Optimize
    { id; target = Serve.Protocol.Spec spec; deadline_ms = None }

let make_server ?(max_queue = 64) ?(max_batch = 8) ~hidden () =
  let engine =
    match
      Serve.Engine.create
        { Serve.Engine.default_config with Serve.Engine.hidden }
    with
    | Ok e -> e
    | Error e -> failwith ("exp_serve: engine: " ^ e)
  in
  Serve.Server.create
    ~config:
      { Serve.Server.workers = 1; batcher = { Serve.Batcher.max_queue; max_batch } }
    engine

(* A pool of distinct specs so a throughput run is all cache misses:
   every request pays for a real rollout. *)
let distinct_specs n =
  List.init n (fun i ->
      let m = 16 + (8 * (i mod 13)) in
      let k = 16 + (8 * (i / 13 mod 13)) in
      Printf.sprintf "matmul:%dx%dx%d" m (16 + (8 * (i mod 7))) k)

let sweep_specs =
  [
    "matmul:64x64x64";
    "matmul:128x64x32";
    "conv2d:28x28x32,k3,f64,s1";
    "maxpool:56x56x32,k2,s2";
    "add:256x256";
    "relu:512x128";
  ]

let expect_ok spec = function
  | Serve.Protocol.Ok_reply _ -> ()
  | Serve.Protocol.Error_reply { code; message; _ } ->
      failwith
        (Printf.sprintf "exp_serve: %s answered %s: %s" spec
           (Serve.Protocol.error_code_to_string code)
           message)
  | _ -> failwith "exp_serve: unexpected response kind"

(* -- 1. cold vs hot sweep --------------------------------------------- *)

type cold_hot = { n_ops : int; cold_s : float; hot_s : float }

let run_cold_hot ~hidden =
  let server = make_server ~hidden () in
  let sweep tag =
    let t0 = now () in
    List.iteri
      (fun i spec ->
        let resp, _ =
          sync_call server (optimize_req (Printf.sprintf "%s%d" tag i) spec)
        in
        expect_ok spec resp)
      sweep_specs;
    now () -. t0
  in
  let cold_s = sweep "cold" in
  let hot_s = sweep "hot" in
  Serve.Server.drain server;
  { n_ops = List.length sweep_specs; cold_s; hot_s }

(* -- 2. throughput vs closed-loop client concurrency ------------------ *)

type tput_point = { clients : int; requests : int; wall_s : float }

let run_clients ?(shed_backoff_s = 0.0) server ~clients ~specs =
  let specs = Array.of_list specs in
  let total = Array.length specs in
  let next = Atomic.make 0 in
  let lat_m = Mutex.create () in
  let accepted_lats = ref [] in
  let shed = Atomic.make 0 in
  let client id =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= total then continue := false
      else begin
        let resp, lat =
          sync_call server (optimize_req (Printf.sprintf "c%d-%d" id i) specs.(i))
        in
        match resp with
        | Serve.Protocol.Error_reply { code = Serve.Protocol.Overloaded; _ } ->
            Atomic.incr shed;
            (* A well-behaved client backs off after a shed instead of
               hammering; keeps the overload mix non-degenerate. *)
            if shed_backoff_s > 0.0 then Thread.delay shed_backoff_s
        | r ->
            expect_ok specs.(i) r;
            Mutex.lock lat_m;
            accepted_lats := lat :: !accepted_lats;
            Mutex.unlock lat_m
      end
    done
  in
  let t0 = now () in
  let threads = List.init clients (fun id -> Thread.create client id) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  (wall, !accepted_lats, Atomic.get shed)

let run_throughput ~hidden ~requests =
  List.map
    (fun clients ->
      (* A fresh server per point: identical total work, empty cache. *)
      let server = make_server ~hidden ~max_batch:8 () in
      let wall, _lats, shed = run_clients server ~clients ~specs:(distinct_specs requests) in
      Serve.Server.drain server;
      if shed > 0 then failwith "exp_serve: throughput run unexpectedly shed";
      { clients; requests; wall_s = wall })
    [ 1; 2; 4 ]

(* -- 3. overload ------------------------------------------------------ *)

type overload = {
  o_clients : int;
  o_requests : int;
  max_queue : int;
  accepted : int;
  o_shed : int;
  p99_s : float;
}

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank =
        int_of_float (Float.round (p *. float_of_int (n - 1)))
      in
      List.nth sorted rank

let run_overload ~hidden ~requests =
  let o_clients = 16 and max_queue = 4 in
  let server = make_server ~hidden ~max_queue ~max_batch:4 () in
  let wall, accepted_lats, shed =
    run_clients ~shed_backoff_s:0.004 server ~clients:o_clients
      ~specs:(distinct_specs requests)
  in
  ignore wall;
  Serve.Server.drain server;
  {
    o_clients;
    o_requests = requests;
    max_queue;
    accepted = requests - shed;
    o_shed = shed;
    p99_s = percentile 0.99 accepted_lats;
  }

(* -- harness ----------------------------------------------------------- *)

let json_of_results ~quick ~hidden (ch : cold_hot) (tp : tput_point list)
    (ov : overload) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"serve\",\n";
  add "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  add "  \"hidden\": %d,\n" hidden;
  add "  \"cache\": {\n";
  add "    \"ops\": %d,\n" ch.n_ops;
  add "    \"cold_seconds\": %.6f,\n" ch.cold_s;
  add "    \"hot_seconds\": %.6f,\n" ch.hot_s;
  add "    \"speedup\": %.2f\n" (ch.cold_s /. ch.hot_s);
  add "  },\n";
  add "  \"throughput\": [\n";
  List.iteri
    (fun i p ->
      add "    {\"clients\": %d, \"requests\": %d, \"wall_seconds\": %.6f, \"rps\": %.2f}%s\n"
        p.clients p.requests p.wall_s
        (float_of_int p.requests /. p.wall_s)
        (if i = List.length tp - 1 then "" else ","))
    tp;
  add "  ],\n";
  add "  \"overload\": {\n";
  add "    \"clients\": %d,\n" ov.o_clients;
  add "    \"max_queue\": %d,\n" ov.max_queue;
  add "    \"requests\": %d,\n" ov.o_requests;
  add "    \"accepted\": %d,\n" ov.accepted;
  add "    \"shed\": %d,\n" ov.o_shed;
  add "    \"accepted_p99_seconds\": %.6f\n" ov.p99_s;
  add "  }\n";
  add "}\n";
  Buffer.contents b

let run ?(quick = false) (c : Bench_common.config) =
  Bench_common.heading "serving daemon (lib/serve): cache, batching, admission";
  let hidden = c.Bench_common.hidden in
  let requests = if quick then 24 else 96 in
  let overload_requests = if quick then 48 else 160 in

  Bench_common.subheading "result cache: repeated sweep vs cold sweep";
  let ch = run_cold_hot ~hidden in
  Printf.printf "%d ops | cold %.4f s | hot %.4f s | %.1fx faster hot\n" ch.n_ops
    ch.cold_s ch.hot_s (ch.cold_s /. ch.hot_s);

  Bench_common.subheading
    "throughput vs closed-loop clients (1 worker domain: batches form only \
     from the backlog)";
  let tp = run_throughput ~hidden ~requests in
  Printf.printf "%8s %10s %10s %10s\n" "clients" "requests" "wall (s)" "req/s";
  let base = ref None in
  List.iter
    (fun p ->
      let rps = float_of_int p.requests /. p.wall_s in
      let rel =
        match !base with
        | None ->
            base := Some rps;
            ""
        | Some b -> Printf.sprintf "  (%.2fx vs 1 client)" (rps /. b)
      in
      Printf.printf "%8d %10d %10.3f %10.2f%s\n" p.clients p.requests p.wall_s
        rps rel)
    tp;

  Bench_common.subheading "overload: 16 clients against a 4-deep queue";
  let ov = run_overload ~hidden ~requests:overload_requests in
  Printf.printf
    "%d requests | accepted %d | shed %d (overloaded replies) | accepted p99 %.4f s\n"
    ov.o_requests ov.accepted ov.o_shed ov.p99_s;
  if ov.o_shed = 0 then
    Printf.printf "WARNING: nothing shed; queue never filled on this machine\n";

  let json = json_of_results ~quick ~hidden ch tp ov in
  let path = "BENCH_serve.json" in
  (* Atomic (temp + rename): a reader or a crash mid-run never sees a
     half-written artifact. *)
  Util.Atomic_file.write_string ~path json;
  Printf.printf "\nwrote %s\n" path

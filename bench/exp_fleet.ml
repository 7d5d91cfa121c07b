(* Closed-loop chaos + scaling benchmark for the supervised serving
   fleet (Serve.Supervisor over real replica child processes).

   Three claims, measured against real `serve --socket` processes
   spawned from the CLI executable:

   1. scaling: with a per-unique-nest emulated hardware-measurement
      delay (serving is measurement-bound in production, not
      inference-bound), going 1 -> 3 replicas multiplies throughput,
      because replicas overlap their measurement stalls; repeating the
      sweep hits each replica's digest-sharded result cache;
   2. chaos: under seeded replica kills (and stalls in full mode)
      injected mid-load, every accepted request still gets exactly one
      reply — hedged retries rescue requests stranded on dying
      replicas — and killed replicas restart to healthy within the
      capped-backoff bound;
   3. reload: a rolling supervisor reload during load drops nothing.

   The committed quick run is BENCH_fleet.json; CI greps it for
   "lost": 0 and the restart bound. *)

let now () = Unix.gettimeofday ()

(* The replica executable: the CLI binary, located relative to the
   bench binary inside _build, overridable with MLIR_RL_EXE. *)
let find_cli_exe () =
  match Sys.getenv_opt "MLIR_RL_EXE" with
  | Some p -> p
  | None -> (
      let candidates =
        [
          Filename.concat
            (Filename.dirname Sys.executable_name)
            "../bin/mlir_rl_cli.exe";
          "_build/default/bin/mlir_rl_cli.exe";
        ]
      in
      match List.find_opt Sys.file_exists candidates with
      | Some p -> p
      | None ->
          failwith
            "exp_fleet: cannot find mlir_rl_cli.exe (set MLIR_RL_EXE)")

(* Replica boot is policy-size independent for these claims; a narrow
   policy keeps fleet start cheap. *)
let replica_hidden = 32

let fleet_dir_counter = ref 0

let supervisor_config ~replicas =
  {
    Serve.Supervisor.default_config with
    Serve.Supervisor.replicas;
    request_timeout_s = 2.0;
    health_interval_s = 0.1;
    health_timeout_s = 0.5;
    ready_timeout_s = 20.0;
  }

type fleet = {
  sup : Serve.Supervisor.t;
  replicas : int;
  dir : string;
  shutdown : unit -> unit;
}

let start_fleet ~replicas ~measure_delay_ms =
  let exe = find_cli_exe () in
  incr fleet_dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mlir-rl-bench-fleet-%d-%d" (Unix.getpid ())
         !fleet_dir_counter)
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket_of i = Filename.concat dir (Printf.sprintf "replica-%d.sock" i) in
  let launcher ~index =
    Serve.Replica.spawn ~exe
      ~args:
        [
          "serve";
          "--socket"; socket_of index;
          "--hidden"; string_of_int replica_hidden;
          "--workers"; "1";
          "--max-batch"; "8";
          "--max-queue"; "256";
          "--measure-delay-ms"; Printf.sprintf "%g" measure_delay_ms;
        ]
      ~socket:(socket_of index) ()
  in
  let sup =
    match
      Serve.Supervisor.create ~config:(supervisor_config ~replicas) ~launcher
        ()
    with
    | Ok s -> s
    | Error e -> failwith ("exp_fleet: supervisor: " ^ e)
  in
  if not (Serve.Supervisor.await_ready sup ~timeout_s:60.0) then
    failwith "exp_fleet: fleet did not become ready";
  Serve.Supervisor.start_heartbeat sup;
  let shutdown () =
    Serve.Supervisor.drain sup;
    for i = 0 to replicas - 1 do
      try Sys.remove (socket_of i) with Sys_error _ -> ()
    done;
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  { sup; replicas; dir; shutdown }

(* -- spec pool --------------------------------------------------------- *)

(* Distinct matmul specs, chosen so the digest shards are exactly
   balanced across the replica ring: scaling should measure replica
   overlap, not the (deterministic, key-set-specific) multinomial
   imbalance of an arbitrary pool. The selection is itself
   deterministic — digests and the ring depend on nothing but the
   spec strings and the replica count. *)
let balanced_specs ~replicas ~per_shard =
  let ring = Serve.Router.create ~replicas () in
  let counts = Array.make replicas 0 in
  let picked = ref [] in
  let taken = ref 0 in
  let i = ref 0 in
  let total = replicas * per_shard in
  while !taken < total do
    let a = !i mod 50 and b = !i / 50 in
    if b >= 50 then failwith "exp_fleet: candidate pool exhausted";
    let spec = Printf.sprintf "matmul:%dx%dx32" (16 + (4 * a)) (16 + (4 * b)) in
    let shard =
      Serve.Router.owner ring
        (Serve.Engine.target_digest (Serve.Protocol.Spec spec))
    in
    if counts.(shard) < per_shard then begin
      counts.(shard) <- counts.(shard) + 1;
      picked := spec :: !picked;
      incr taken
    end;
    incr i
  done;
  List.rev !picked

(* Partition specs by their digest shard on an n-replica ring. *)
let shard_groups ~replicas specs =
  let ring = Serve.Router.create ~replicas () in
  let buckets = Array.make replicas [] in
  List.iter
    (fun spec ->
      let s =
        Serve.Router.owner ring
          (Serve.Engine.target_digest (Serve.Protocol.Spec spec))
      in
      buckets.(s) <- spec :: buckets.(s))
    specs;
  Array.to_list (Array.map List.rev buckets)

(* -- closed-loop load -------------------------------------------------- *)

type load_result = {
  sent : int;
  ok : int;
  error_replies : int;
  lost : int;  (* no reply at all: must be 0 *)
  wall_s : float;
}

let req_counter = ref 0

(* Closed-loop clients partitioned by digest shard: each group of
   [clients_per_group] threads works through its own shard's specs.
   Without the partition a shared work queue starves replicas at
   random (the in-flight shard mix is multinomial, and a closed-loop
   client blocked on one replica cannot feed an idle one), which
   measures queueing noise instead of replica overlap. Against a
   single replica every group lands on the same process, so the 1- and
   3-replica points see identical offered load. *)
let run_load sup ~clients_per_group ~groups ~rounds =
  let groups = List.map Array.of_list groups in
  let total = rounds * List.fold_left (fun a g -> a + Array.length g) 0 groups in
  let ok = Atomic.make 0 in
  let error_replies = Atomic.make 0 in
  let lost = Atomic.make 0 in
  let group_client specs next () =
    let n = rounds * Array.length specs in
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue := false
      else begin
        incr req_counter;
        let id = Printf.sprintf "f%d" !req_counter in
        let spec = specs.(i mod Array.length specs) in
        match
          Serve.Supervisor.call sup
            (Serve.Protocol.Optimize
               { id; target = Serve.Protocol.Spec spec; deadline_ms = None })
        with
        | Serve.Protocol.Ok_reply { r_id; _ } when r_id = id -> Atomic.incr ok
        | Serve.Protocol.Error_reply _ -> Atomic.incr error_replies
        | _ -> Atomic.incr error_replies
        | exception _ -> Atomic.incr lost
      end
    done
  in
  let t0 = now () in
  let threads =
    List.concat_map
      (fun specs ->
        let next = Atomic.make 0 in
        List.init clients_per_group (fun _ ->
            Thread.create (group_client specs next) ()))
      groups
  in
  List.iter Thread.join threads;
  let wall_s = now () -. t0 in
  {
    sent = total;
    ok = Atomic.get ok;
    error_replies = Atomic.get error_replies;
    lost = Atomic.get lost;
    wall_s;
  }

(* -- per-replica cache stats ------------------------------------------- *)

let parse_kv_int body key =
  let prefix = key ^ "=" in
  String.split_on_char '\n' body
  |> List.concat_map (String.split_on_char ' ')
  |> List.find_map (fun tok ->
         if String.starts_with ~prefix tok then
           int_of_string_opt
             (String.sub tok (String.length prefix)
                (String.length tok - String.length prefix))
         else None)
  |> Option.value ~default:0

let fleet_cache_totals fleet =
  let hits = ref 0 and misses = ref 0 in
  for i = 0 to fleet.replicas - 1 do
    match
      Serve.Supervisor.replica_call fleet.sup i
        (Serve.Protocol.Stats { id = "bench-stats" })
        ~timeout_s:2.0
    with
    | Ok (Serve.Protocol.Stats_reply { body; _ }) ->
        hits := !hits + parse_kv_int body "cache_hits";
        misses := !misses + parse_kv_int body "cache_misses"
    | _ -> ()
  done;
  (!hits, !misses)

(* -- chaos driver ------------------------------------------------------ *)

(* Replay a Faults.chaos_plan against the live fleet: kills go through
   the supervisor's chaos hook (SIGKILL, unannounced), stalls
   SIGSTOP/SIGCONT the replica process so it is alive but
   unresponsive. Garbled replies are exercised by the tier-1 supervisor
   tests. *)
let run_chaos_plan fleet plan ~t0 =
  let applied_kills = ref 0 and applied_stalls = ref 0 in
  List.iter
    (fun (e : Faults.chaos_event) ->
      let delay = t0 +. e.Faults.at_s -. now () in
      if delay > 0.0 then Thread.delay delay;
      match e.Faults.action with
      | Faults.Kill_replica ->
          incr applied_kills;
          Serve.Supervisor.kill_replica fleet.sup e.Faults.replica
      | Faults.Stall d -> (
          match Serve.Supervisor.replica_pid fleet.sup e.Faults.replica with
          | None -> ()
          | Some pid ->
              incr applied_stalls;
              (try Unix.kill pid Sys.sigstop with Unix.Unix_error _ -> ());
              let _t : Thread.t =
                Thread.create
                  (fun () ->
                    Thread.delay d;
                    try Unix.kill pid Sys.sigcont
                    with Unix.Unix_error _ -> ())
                  ()
              in
              ()))
    plan;
  (!applied_kills, !applied_stalls)

let await_all_up fleet ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    let st = Serve.Supervisor.status fleet.sup in
    if Array.for_all (fun r -> r.Serve.Supervisor.rs_state = "up") st then
      Some (now ())
    else if now () >= deadline then None
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* -- the experiment ---------------------------------------------------- *)

type scale_point = { replicas_n : int; wall : float; rps : float }

let run ?(quick = false) (_c : Bench_common.config) =
  Bench_common.heading
    "serving fleet (Serve.Supervisor): scaling, chaos, rolling reload";
  (* Large enough that the emulated measurement stall dominates the
     per-request socket + inference overhead (~2-4ms on this box):
     that is the production regime the scaling claim is about. *)
  let measure_delay_ms = 60.0 in
  let per_shard = if quick then 30 else 60 in
  let clients_per_group = 3 in
  let chaos_rounds = if quick then 4 else 6 in
  let chaos_duration = if quick then 5.0 else 10.0 in
  let chaos_seed = 0xC4A05 in
  let specs = balanced_specs ~replicas:3 ~per_shard in
  let groups = shard_groups ~replicas:3 specs in
  let n_specs = List.length specs in
  let clients = clients_per_group * List.length groups in

  (* --- 1. scaling: 1 replica vs 3 replicas, cold then hot ------------- *)
  Bench_common.subheading
    (Printf.sprintf
       "scaling: %d distinct nests, %d closed-loop clients, %.0fms emulated \
        measurement per unique nest"
       n_specs clients measure_delay_ms);
  let scale_point ~replicas =
    let fleet = start_fleet ~replicas ~measure_delay_ms in
    let cold = run_load fleet.sup ~clients_per_group ~groups ~rounds:1 in
    if cold.lost > 0 || cold.error_replies > 0 then
      failwith "exp_fleet: scaling run lost or failed requests";
    let hot = run_load fleet.sup ~clients_per_group ~groups ~rounds:1 in
    let hits, _misses = fleet_cache_totals fleet in
    fleet.shutdown ();
    let rps = float_of_int cold.sent /. cold.wall_s in
    let hot_rps = float_of_int hot.sent /. hot.wall_s in
    (* Cold sweep = all misses, hot sweep = all hits when each shard's
       cache survived; hits/specs is the per-shard preservation rate. *)
    let hit_fraction = float_of_int hits /. float_of_int (max 1 n_specs) in
    ({ replicas_n = replicas; wall = cold.wall_s; rps }, hot_rps, hit_fraction)
  in
  let p1, hot1_rps, hotfrac1 = scale_point ~replicas:1 in
  let p3, hot3_rps, hotfrac3 = scale_point ~replicas:3 in
  let speedup = p3.rps /. p1.rps in
  Printf.printf "%10s %10s %10s %12s %14s\n" "replicas" "wall (s)" "req/s"
    "hot req/s" "hot hit frac";
  Printf.printf "%10d %10.3f %10.2f %12.2f %14.2f\n" 1 p1.wall p1.rps hot1_rps
    hotfrac1;
  Printf.printf "%10d %10.3f %10.2f %12.2f %14.2f\n" 3 p3.wall p3.rps hot3_rps
    hotfrac3;
  Printf.printf "1 -> 3 replicas: %.2fx throughput\n" speedup;

  (* --- 2. chaos -------------------------------------------------------- *)
  Bench_common.subheading
    (Printf.sprintf
       "chaos: seeded kills%s under load (seed %#x, %.0fs plan)"
       (if quick then "" else " + stalls")
       chaos_seed chaos_duration);
  let plan =
    Faults.chaos_plan ~seed:chaos_seed ~replicas:3
      ~duration_s:chaos_duration ~kill_rate:0.5
      ~stall_rate:(if quick then 0.0 else 0.15)
      ~stall_seconds:0.4 ()
  in
  List.iter
    (fun e -> Printf.printf "  plan: %s\n" (Faults.chaos_event_to_string e))
    plan;
  let fleet = start_fleet ~replicas:3 ~measure_delay_ms in
  let t0 = now () in
  let chaos_thread =
    Thread.create (fun () -> ignore (run_chaos_plan fleet plan ~t0)) ()
  in
  let load = run_load fleet.sup ~clients_per_group ~groups ~rounds:chaos_rounds in
  Thread.join chaos_thread;
  let kills, stalls =
    List.fold_left
      (fun (k, s) (e : Faults.chaos_event) ->
        match e.Faults.action with
        | Faults.Kill_replica -> (k + 1, s)
        | Faults.Stall _ -> (k, s + 1))
      (0, 0) plan
  in
  (* Recovery: after the last kill, replicas must be back up within the
     capped-backoff bound (worst restart delay + health/ready laps +
     process boot). *)
  let recovery_started = now () in
  let backoff_cap =
    Serve.Backoff.max_delay (supervisor_config ~replicas:3).Serve.Supervisor.backoff
  in
  let recovery_bound = backoff_cap +. 1.0 +. 10.0 in
  let recovered_at = await_all_up fleet ~timeout_s:recovery_bound in
  let recovery_s =
    match recovered_at with Some t -> t -. recovery_started | None -> -1.0
  in
  let m = Serve.Supervisor.metrics fleet.sup in
  let hedges = Util.Metrics.counter m "fleet_hedges_total" in
  let rescues = Util.Metrics.counter m "fleet_hedge_rescues_total" in
  let upstream = Util.Metrics.counter m "fleet_upstream_failures_total" in
  let unavailable = Util.Metrics.counter m "fleet_unavailable_total" in
  let restarts =
    Array.fold_left
      (fun acc r -> acc + r.Serve.Supervisor.rs_restarts)
      0
      (Serve.Supervisor.status fleet.sup)
  in
  Printf.printf
    "%d requests | ok %d | error replies %d | LOST %d | hedges %d (rescued \
     %d) | upstream failures %d | unavailable %d\n"
    load.sent load.ok load.error_replies load.lost hedges rescues upstream
    unavailable;
  Printf.printf
    "%d kills, %d stalls injected | %d restarts | all-up again in %.2fs \
     (bound %.2fs)\n"
    kills stalls restarts recovery_s recovery_bound;
  if load.lost > 0 then failwith "exp_fleet: lost accepted requests";
  if recovered_at = None then
    failwith "exp_fleet: fleet did not recover within the backoff bound";

  (* --- 3. rolling reload under load ------------------------------------ *)
  Bench_common.subheading "rolling reload under load (hot checkpoint swap)";
  let reload_result = ref (Ok ()) in
  let reload_thread =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        reload_result := Serve.Supervisor.reload fleet.sup)
      ()
  in
  let reload_load = run_load fleet.sup ~clients_per_group ~groups ~rounds:2 in
  Thread.join reload_thread;
  let reload_ok = match !reload_result with Ok () -> true | Error _ -> false in
  Printf.printf "%d requests during reload | ok %d | error replies %d | LOST \
                 %d | reload %s\n"
    reload_load.sent reload_load.ok reload_load.error_replies reload_load.lost
    (match !reload_result with
    | Ok () -> "ok"
    | Error e -> "FAILED: " ^ e);
  if reload_load.lost > 0 then
    failwith "exp_fleet: lost requests during reload";
  fleet.shutdown ();

  (* --- artifact --------------------------------------------------------- *)
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"fleet\",\n";
  add "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  add "  \"replica_hidden\": %d,\n" replica_hidden;
  add "  \"measure_delay_ms\": %.1f,\n" measure_delay_ms;
  add "  \"scaling\": {\n";
  add "    \"requests\": %d,\n" n_specs;
  add "    \"clients\": %d,\n" clients;
  add "    \"one_replica\": {\"wall_seconds\": %.6f, \"rps\": %.2f, \
       \"hot_rps\": %.2f, \"hot_hit_fraction\": %.3f},\n"
    p1.wall p1.rps hot1_rps hotfrac1;
  add "    \"three_replicas\": {\"wall_seconds\": %.6f, \"rps\": %.2f, \
       \"hot_rps\": %.2f, \"hot_hit_fraction\": %.3f},\n"
    p3.wall p3.rps hot3_rps hotfrac3;
  add "    \"speedup\": %.2f\n" speedup;
  add "  },\n";
  add "  \"chaos\": {\n";
  add "    \"seed\": %d,\n" chaos_seed;
  add "    \"plan_duration_seconds\": %.1f,\n" chaos_duration;
  add "    \"kills\": %d,\n" kills;
  add "    \"stalls\": %d,\n" stalls;
  add "    \"requests\": %d,\n" load.sent;
  add "    \"ok\": %d,\n" load.ok;
  add "    \"error_replies\": %d,\n" load.error_replies;
  add "    \"lost\": %d,\n" load.lost;
  add "    \"hedges\": %d,\n" hedges;
  add "    \"hedge_rescues\": %d,\n" rescues;
  add "    \"upstream_failures\": %d,\n" upstream;
  add "    \"unavailable\": %d,\n" unavailable;
  add "    \"restarts\": %d,\n" restarts;
  add "    \"recovery_seconds\": %.3f,\n" recovery_s;
  add "    \"recovery_bound_seconds\": %.3f,\n" recovery_bound;
  add "    \"recovered_within_bound\": %b\n" (recovered_at <> None);
  add "  },\n";
  add "  \"reload\": {\n";
  add "    \"requests\": %d,\n" reload_load.sent;
  add "    \"ok\": %d,\n" reload_load.ok;
  add "    \"error_replies\": %d,\n" reload_load.error_replies;
  add "    \"lost\": %d,\n" reload_load.lost;
  add "    \"reload_ok\": %b\n" reload_ok;
  add "  },\n";
  add "  \"zero_lost_accepted\": %b\n"
    (load.lost = 0 && reload_load.lost = 0);
  add "}\n";
  let path = "BENCH_fleet.json" in
  Util.Atomic_file.write_string ~path (Buffer.contents b);
  Printf.printf "\nwrote %s\n" path

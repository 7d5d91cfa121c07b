(* The fleet layer of lib/serve, with no real sleeps and no forked
   processes:

   - Backoff: exact schedules under zero jitter, jitter bounds, reset,
     seed determinism;
   - Breaker: the full closed -> open -> half-open -> closed cycle on a
     scripted clock, including the read-time open -> half-open
     transition;
   - Router: determinism, owner/preference coherence, permutation,
     shard balance;
   - Supervisor: driven by [tick] under an injected mock clock, against
     in-process fake replicas (plain Replica.t records of closures) —
     restart scheduling with backoff spacing, crash detection, breaker
     shedding, hedged-retry rescue, unavailability, drain and reload
     holding accepted in-flight requests, metrics aggregation;
   - Faults.chaos_plan: determinism and argument validation;
   - Util.Atomic_file: atomicity of the temp+rename path. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Mock clock                                                          *)
(* ------------------------------------------------------------------ *)

type clock = { mutable t : float }

let mk_clock () = { t = 0.0 }
let clock_now c () = c.t
let clock_sleep c d = c.t <- c.t +. d

(* ------------------------------------------------------------------ *)
(* Fake replicas                                                       *)
(* ------------------------------------------------------------------ *)

let ok_reply id =
  Serve.Protocol.Ok_reply
    { r_id = id; schedule = "S0"; speedup = 1.0; policy_digest = "deadbeef" }

(* A healthy in-process replica: answers every verb, dies on [kill]. *)
let ok_replica ?(pid = None) () =
  let alive = ref true in
  let handle =
    {
      Serve.Replica.pid;
      describe = "fake-ok";
      call =
        (fun req ~timeout_s:_ ->
          if not !alive then Error (Serve.Replica.Connection "dead")
          else
            match req with
            | Serve.Protocol.Ping { id } ->
                Ok (Serve.Protocol.Pong { p_id = id })
            | Serve.Protocol.Optimize { id; _ } -> Ok (ok_reply id)
            | Serve.Protocol.Stats { id } ->
                Ok (Serve.Protocol.Stats_reply { s_id = id; body = "" })
            | Serve.Protocol.Metrics { id } ->
                Ok (Serve.Protocol.Metrics_reply { m_id = id; body = "" }));
      alive = (fun () -> !alive);
      kill = (fun () -> alive := false);
    }
  in
  (handle, alive)

(* Healthy on pings (so the heartbeat keeps it Up) but every optimize
   fails with [err]: the hedge-trigger / breaker-food replica. *)
let bad_optimize_replica err =
  let alive = ref true in
  {
    Serve.Replica.pid = None;
    describe = "fake-bad";
    call =
      (fun req ~timeout_s:_ ->
        if not !alive then Error (Serve.Replica.Connection "dead")
        else
          match req with
          | Serve.Protocol.Ping { id } -> Ok (Serve.Protocol.Pong { p_id = id })
          | Serve.Protocol.Optimize _ -> Error err
          | Serve.Protocol.Stats { id } ->
              Ok (Serve.Protocol.Stats_reply { s_id = id; body = "" })
          | Serve.Protocol.Metrics { id } ->
              Ok (Serve.Protocol.Metrics_reply { m_id = id; body = "" }));
    alive = (fun () -> !alive);
    kill = (fun () -> alive := false);
  }

(* A replica whose optimize calls block on a latch until [release] —
   for proving drain/reload wait out accepted in-flight requests. *)
let latched_replica () =
  let alive = ref true in
  let m = Mutex.create () in
  let c = Condition.create () in
  let released = ref false in
  let entered = ref 0 in
  let release () =
    Mutex.lock m;
    released := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  let handle =
    {
      Serve.Replica.pid = None;
      describe = "fake-latched";
      call =
        (fun req ~timeout_s:_ ->
          match req with
          | Serve.Protocol.Ping { id } -> Ok (Serve.Protocol.Pong { p_id = id })
          | Serve.Protocol.Optimize { id; _ } ->
              Mutex.lock m;
              incr entered;
              while not !released do
                Condition.wait c m
              done;
              Mutex.unlock m;
              Ok (ok_reply id)
          | Serve.Protocol.Stats { id } ->
              Ok (Serve.Protocol.Stats_reply { s_id = id; body = "" })
          | Serve.Protocol.Metrics { id } ->
              Ok (Serve.Protocol.Metrics_reply { m_id = id; body = "" }));
      alive = (fun () -> !alive);
      kill = (fun () -> alive := false);
    }
  in
  (handle, release, entered)

let no_jitter_backoff =
  { Serve.Backoff.base_s = 1.0; multiplier = 2.0; cap_s = 4.0; jitter = 0.0 }

let test_config ~replicas =
  {
    Serve.Supervisor.default_config with
    Serve.Supervisor.replicas;
    backoff = no_jitter_backoff;
  }

let make_sup ?config ~replicas ~launcher clock =
  let config =
    match config with Some c -> c | None -> test_config ~replicas
  in
  match
    Serve.Supervisor.create ~config ~now:(clock_now clock)
      ~sleep:(clock_sleep clock) ~launcher ()
  with
  | Ok s -> s
  | Error e -> failwith e

let states sup =
  Serve.Supervisor.status sup
  |> Array.map (fun r -> r.Serve.Supervisor.rs_state)
  |> Array.to_list

(* A spec string whose digest shard (on a fresh [replicas]-ring with
   the default vnodes) is [owner]. Deterministic: digests and the ring
   depend only on the strings. *)
let spec_owned_by ~replicas ~owner =
  let ring = Serve.Router.create ~replicas () in
  let rec go i =
    if i > 10_000 then failwith "no spec found for shard"
    else
      let s = Printf.sprintf "matmul:%dx32x32" (8 + i) in
      if
        Serve.Router.owner ring
          (Serve.Engine.target_digest (Serve.Protocol.Spec s))
        = owner
      then s
      else go (i + 1)
  in
  go 0

let optimize id spec =
  Serve.Protocol.Optimize
    { id; target = Serve.Protocol.Spec spec; deadline_ms = None }

(* Spin (yield, no sleep) until [p ()] holds — for handing off to real
   threads in the latch tests. *)
let spin_until ?(spins = 10_000_000) p =
  let rec go n =
    if p () then ()
    else if n = 0 then failwith "spin_until: condition never held"
    else begin
      Thread.yield ();
      go (n - 1)
    end
  in
  go spins

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let b = Serve.Backoff.create ~seed:1 no_jitter_backoff in
  let d1 = Serve.Backoff.next b in
  let d2 = Serve.Backoff.next b in
  let d3 = Serve.Backoff.next b in
  let d4 = Serve.Backoff.next b in
  check "base first" true (d1 = 1.0);
  check "doubles" true (d2 = 2.0);
  check "caps" true (d3 = 4.0);
  check "stays capped" true (d4 = 4.0);
  Serve.Backoff.reset b;
  check "reset returns to base" true (Serve.Backoff.next b = 1.0)

let test_backoff_jitter_bounds () =
  let cfg =
    { Serve.Backoff.base_s = 0.1; multiplier = 2.0; cap_s = 2.0; jitter = 0.25 }
  in
  let b = Serve.Backoff.create ~seed:7 cfg in
  let ideal = ref cfg.Serve.Backoff.base_s in
  for i = 1 to 20 do
    let d = Serve.Backoff.next b in
    let lo = !ideal *. 0.75 and hi = !ideal *. 1.25 in
    check (Printf.sprintf "delay %d in [%g, %g]" i lo hi) true
      (d >= lo -. 1e-9 && d <= hi +. 1e-9);
    ideal :=
      Float.min cfg.Serve.Backoff.cap_s
        (!ideal *. cfg.Serve.Backoff.multiplier)
  done;
  check "max_delay is cap*(1+jitter)" true
    (Serve.Backoff.max_delay cfg = 2.0 *. 1.25)

let test_backoff_deterministic () =
  let cfg =
    { Serve.Backoff.base_s = 0.1; multiplier = 2.0; cap_s = 2.0; jitter = 0.1 }
  in
  let draw seed =
    let b = Serve.Backoff.create ~seed cfg in
    List.init 10 (fun _ -> Serve.Backoff.next b)
  in
  check "same seed, same schedule" true (draw 42 = draw 42);
  check "different seed, different schedule" true (draw 42 <> draw 43)

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)
(* ------------------------------------------------------------------ *)

let breaker_cfg =
  { Serve.Breaker.failure_threshold = 3; cooldown_s = 1.0; success_threshold = 2 }

let test_breaker_cycle () =
  let b = Serve.Breaker.create ~config:breaker_cfg () in
  let st now = Serve.Breaker.state b ~now in
  check "starts closed" true (st 0.0 = Serve.Breaker.Closed);
  Serve.Breaker.record_failure b ~now:0.0;
  Serve.Breaker.record_failure b ~now:0.1;
  check "two failures stay closed" true (st 0.1 = Serve.Breaker.Closed);
  Serve.Breaker.record_success b ~now:0.2;
  Serve.Breaker.record_failure b ~now:0.3;
  Serve.Breaker.record_failure b ~now:0.4;
  check "success resets the consecutive count" true
    (st 0.4 = Serve.Breaker.Closed);
  Serve.Breaker.record_failure b ~now:0.5;
  check "third consecutive failure trips open" true
    (st 0.5 = Serve.Breaker.Open);
  check "open sheds" false (Serve.Breaker.allow b ~now:0.6);
  (* The open -> half-open transition is a function of the clock. *)
  check "still open within cooldown" true (st 1.4 = Serve.Breaker.Open);
  check "reads half-open after cooldown" true
    (st 1.6 = Serve.Breaker.Half_open);
  check "half-open allows probes" true (Serve.Breaker.allow b ~now:1.6);
  (* A failure while half-open re-opens and restarts the cooldown. *)
  Serve.Breaker.record_failure b ~now:1.7;
  check "half-open failure re-opens" true (st 1.8 = Serve.Breaker.Open);
  check "cooldown restarted" true (st 2.8 = Serve.Breaker.Half_open);
  Serve.Breaker.record_success b ~now:2.9;
  check "one success not enough" true (st 2.9 = Serve.Breaker.Half_open);
  Serve.Breaker.record_success b ~now:3.0;
  check "success_threshold successes close" true
    (st 3.0 = Serve.Breaker.Closed)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let test_router_basics () =
  let ring = Serve.Router.create ~replicas:3 () in
  let keys = List.init 300 (fun i -> Printf.sprintf "digest-%d" i) in
  List.iter
    (fun k ->
      let pref = Serve.Router.preference ring k in
      check_int "preference covers every replica once" 3
        (List.length (List.sort_uniq compare pref));
      check_int "owner heads the preference list" (Serve.Router.owner ring k)
        (List.hd pref))
    keys;
  (* Determinism across independently built rings. *)
  let ring2 = Serve.Router.create ~replicas:3 () in
  check "owner is a pure function of key and ring shape" true
    (List.for_all
       (fun k -> Serve.Router.owner ring k = Serve.Router.owner ring2 k)
       keys);
  (* 64 vnodes/replica: every shard owns a non-trivial key share. *)
  let counts = Array.make 3 0 in
  List.iter (fun k -> counts.(Serve.Router.owner ring k) <- counts.(Serve.Router.owner ring k) + 1) keys;
  Array.iteri
    (fun i c ->
      check (Printf.sprintf "shard %d owns a fair share (%d keys)" i c) true
        (c > 15))
    counts

(* ------------------------------------------------------------------ *)
(* Supervisor: startup, restart scheduling                             *)
(* ------------------------------------------------------------------ *)

let test_supervisor_starts_healthy_fleet () =
  let clock = mk_clock () in
  let launches = ref 0 in
  let launcher ~index:_ =
    incr launches;
    Ok (fst (ok_replica ()))
  in
  let sup = make_sup ~replicas:3 ~launcher clock in
  check_str "launched, not yet probed" "starting starting starting"
    (String.concat " " (states sup));
  check "ready after probes" true
    (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  check_str "all up" "up up up" (String.concat " " (states sup));
  check_int "one launch per slot" 3 !launches;
  (match Serve.Supervisor.call sup (optimize "q1" "matmul:64x64x64") with
  | Serve.Protocol.Ok_reply { r_id; _ } -> check_str "reply id" "q1" r_id
  | _ -> Alcotest.fail "expected Ok_reply");
  Serve.Supervisor.drain sup;
  (match Serve.Supervisor.call sup (optimize "q2" "matmul:64x64x64") with
  | Serve.Protocol.Error_reply { code = Serve.Protocol.Shutting_down; _ } -> ()
  | _ -> Alcotest.fail "expected shutting_down while draining");
  check_str "drain is idempotent" "down" (List.hd (states (let () = Serve.Supervisor.drain sup in sup)))

(* Launcher fails forever: relaunch attempts must follow the exact
   zero-jitter backoff schedule (1s, 2s, 4s, 4s...) on the mock clock,
   with no attempt firing early. *)
let test_supervisor_restart_backoff_spacing () =
  let clock = mk_clock () in
  let attempt_times = ref [] in
  let launcher ~index:_ =
    attempt_times := clock.t :: !attempt_times;
    Error "refusing to start"
  in
  let sup = make_sup ~replicas:1 ~launcher clock in
  (* create at t=0 made the first attempt; next due at 0 + 1.0. *)
  let step dt =
    clock.t <- clock.t +. dt;
    Serve.Supervisor.tick sup
  in
  step 0.5 (* t=0.5: too early *);
  check_int "no attempt before the base delay" 1 (List.length !attempt_times);
  step 0.5 (* t=1.0: due *);
  check_int "second attempt at base delay" 2 (List.length !attempt_times);
  step 1.9 (* t=2.9: next due at 1.0 + 2.0 = 3.0 *);
  check_int "no attempt before the doubled delay" 2 (List.length !attempt_times);
  step 0.1 (* t=3.0 *);
  check_int "third attempt after doubling" 3 (List.length !attempt_times);
  step 3.9 (* t=6.9: next due at 3.0 + 4.0 (cap) = 7.0 *);
  check_int "no attempt before the capped delay" 3 (List.length !attempt_times);
  step 0.2 (* t=7.1 *);
  check_int "fourth attempt at the cap" 4 (List.length !attempt_times);
  let m = Serve.Supervisor.metrics sup in
  check_int "every failure counted" 4
    (Util.Metrics.counter m "fleet_launch_failures_total");
  Serve.Supervisor.drain sup

let test_supervisor_crash_detect_and_restart () =
  let clock = mk_clock () in
  let launcher ~index:_ = Ok (fst (ok_replica ())) in
  let sup = make_sup ~replicas:3 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  let gen_before = (Serve.Supervisor.status sup).(1).Serve.Supervisor.rs_generation in
  (* SIGKILL equivalent: the fake dies without telling the supervisor. *)
  Serve.Supervisor.kill_replica sup 1;
  Serve.Supervisor.tick sup;
  check_str "crash discovered by the health pass" "down"
    (List.nth (states sup) 1);
  let m = Serve.Supervisor.metrics sup in
  check "crash counted" true
    (Util.Metrics.counter m "fleet_crashes_detected_total" >= 1);
  (* Before the backoff delay: still down. *)
  Serve.Supervisor.tick sup;
  check_str "not relaunched early" "down" (List.nth (states sup) 1);
  clock.t <- clock.t +. 1.1;
  Serve.Supervisor.tick sup (* relaunch *);
  Serve.Supervisor.tick sup (* probe -> up *);
  let st = (Serve.Supervisor.status sup).(1) in
  check_str "replica recovered" "up" st.Serve.Supervisor.rs_state;
  check_int "restart counted" 1 st.Serve.Supervisor.rs_restarts;
  check "generation bumped" true (st.Serve.Supervisor.rs_generation > gen_before);
  check "restart metric" true
    (Util.Metrics.counter m "fleet_restarts_total" >= 1);
  (* The two bystander replicas were never touched. *)
  check_int "no collateral restarts" 0
    ((Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_restarts
    + (Serve.Supervisor.status sup).(2).Serve.Supervisor.rs_restarts);
  Serve.Supervisor.drain sup

(* The heartbeat thread supervises on its own: a replica killed under it
   comes back without a manual [tick]. The thread is real; only the
   clock it ticks on is mocked, so recovery is awaited under a
   wall-clock bound. *)
let test_supervisor_heartbeat_restarts_replica () =
  let wait_for ?(timeout = 10.0) pred =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if pred () then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Thread.yield ();
        go ()
      end
    in
    go ()
  in
  let clock = mk_clock () in
  let launcher ~index:_ = Ok (fst (ok_replica ())) in
  let sup = make_sup ~replicas:1 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  let restarts () =
    (Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_restarts
  in
  Serve.Supervisor.start_heartbeat sup;
  Serve.Supervisor.kill_replica sup 0;
  check "heartbeat restarts the killed replica" true
    (wait_for (fun () -> restarts () >= 1));
  Serve.Supervisor.drain sup

(* ------------------------------------------------------------------ *)
(* Supervisor: request path                                            *)
(* ------------------------------------------------------------------ *)

(* Replica 0 times out every optimize; requests homed on it must be
   hedged to replica 1, and after failure_threshold transport errors
   the breaker opens and sheds — no further hedges needed. *)
let test_supervisor_hedge_and_breaker_shed () =
  let clock = mk_clock () in
  let launcher ~index =
    if index = 0 then Ok (bad_optimize_replica Serve.Replica.Timeout)
    else Ok (fst (ok_replica ()))
  in
  let sup = make_sup ~replicas:2 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  let spec = spec_owned_by ~replicas:2 ~owner:0 in
  let m = Serve.Supervisor.metrics sup in
  let threshold = breaker_cfg.Serve.Breaker.failure_threshold in
  for i = 1 to threshold do
    match Serve.Supervisor.call sup (optimize (Printf.sprintf "h%d" i) spec) with
    | Serve.Protocol.Ok_reply { r_id; _ } ->
        check_str "hedged reply keeps the request id"
          (Printf.sprintf "h%d" i) r_id
    | _ -> Alcotest.fail "expected a hedged Ok_reply"
  done;
  check_int "one hedge per failed attempt" threshold
    (Util.Metrics.counter m "fleet_hedges_total");
  check_int "every hedge rescued" threshold
    (Util.Metrics.counter m "fleet_hedge_rescues_total");
  check "breaker open after consecutive transport failures" true
    ((Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_breaker
    = Serve.Breaker.Open);
  (* Shed: the open breaker removes replica 0 from pick, so the next
     request goes straight to replica 1 — no new hedge. *)
  (match Serve.Supervisor.call sup (optimize "shed" spec) with
  | Serve.Protocol.Ok_reply _ -> ()
  | _ -> Alcotest.fail "expected a shed Ok_reply");
  check_int "no hedge once shedding" threshold
    (Util.Metrics.counter m "fleet_hedges_total");
  Serve.Supervisor.drain sup

let test_supervisor_garbled_reply_is_hedged () =
  let clock = mk_clock () in
  let launcher ~index =
    if index = 0 then
      Ok (bad_optimize_replica (Serve.Replica.Garbled "wrong id"))
    else Ok (fst (ok_replica ()))
  in
  let sup = make_sup ~replicas:2 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  let spec = spec_owned_by ~replicas:2 ~owner:0 in
  (match Serve.Supervisor.call sup (optimize "g1" spec) with
  | Serve.Protocol.Ok_reply { r_id; _ } -> check_str "rescued" "g1" r_id
  | _ -> Alcotest.fail "expected rescue of a garbled reply");
  check_int "garble counted as hedge rescue" 1
    (Util.Metrics.counter (Serve.Supervisor.metrics sup)
       "fleet_hedge_rescues_total");
  Serve.Supervisor.drain sup

let test_supervisor_upstream_failure_and_no_hedge () =
  (* Single replica, failing optimize: the hedge has nowhere to go. *)
  let clock = mk_clock () in
  let launcher ~index:_ = Ok (bad_optimize_replica Serve.Replica.Timeout) in
  let sup = make_sup ~replicas:1 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  (match Serve.Supervisor.call sup (optimize "u1" "matmul:32x32x32") with
  | Serve.Protocol.Error_reply { code = Serve.Protocol.Upstream_failure; _ } ->
      ()
  | _ -> Alcotest.fail "expected upstream_failure with no hedge target");
  Serve.Supervisor.drain sup;
  (* hedge = false: fail typed and fast, no second attempt. *)
  let clock = mk_clock () in
  let cfg = { (test_config ~replicas:2) with Serve.Supervisor.hedge = false } in
  let launcher ~index =
    if index = 0 then Ok (bad_optimize_replica Serve.Replica.Timeout)
    else Ok (fst (ok_replica ()))
  in
  let sup = make_sup ~config:cfg ~replicas:2 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  let spec = spec_owned_by ~replicas:2 ~owner:0 in
  (match Serve.Supervisor.call sup (optimize "u2" spec) with
  | Serve.Protocol.Error_reply { code = Serve.Protocol.Upstream_failure; _ } ->
      ()
  | _ -> Alcotest.fail "expected upstream_failure with hedging disabled");
  check_int "no hedge when disabled" 0
    (Util.Metrics.counter (Serve.Supervisor.metrics sup) "fleet_hedges_total");
  Serve.Supervisor.drain sup

let test_supervisor_unavailable_when_all_down () =
  let clock = mk_clock () in
  let launcher ~index:_ = Error "no binary" in
  let sup = make_sup ~replicas:3 ~launcher clock in
  (match Serve.Supervisor.call sup (optimize "n1" "matmul:32x32x32") with
  | Serve.Protocol.Error_reply { code = Serve.Protocol.Unavailable; _ } -> ()
  | _ -> Alcotest.fail "expected unavailable with the whole fleet down");
  check_int "unavailability counted" 1
    (Util.Metrics.counter (Serve.Supervisor.metrics sup)
       "fleet_unavailable_total");
  Serve.Supervisor.drain sup

(* ------------------------------------------------------------------ *)
(* Supervisor: drain / reload never drop accepted in-flight requests   *)
(* ------------------------------------------------------------------ *)

let test_supervisor_drain_waits_for_in_flight () =
  let clock = mk_clock () in
  let handle, release, entered = latched_replica () in
  let launcher ~index:_ = Ok handle in
  let sup = make_sup ~replicas:1 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  let reply = ref None in
  let client =
    Thread.create
      (fun () ->
        reply := Some (Serve.Supervisor.call sup (optimize "d1" "matmul:32x32x32")))
      ()
  in
  (* The request is accepted (inside the replica, in_flight = 1)... *)
  spin_until (fun () -> !entered = 1);
  check_int "accepted request is in flight" 1
    (Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_in_flight;
  (* ... and a concurrent drain must wait it out, not drop it. *)
  let drainer = Thread.create (fun () -> Serve.Supervisor.drain sup) () in
  spin_until (fun () ->
      (Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_state = "draining");
  check "drain blocked on the in-flight request" true
    ((Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_in_flight = 1);
  release ();
  Thread.join client;
  Thread.join drainer;
  (match !reply with
  | Some (Serve.Protocol.Ok_reply { r_id; _ }) ->
      check_str "accepted request answered through drain" "d1" r_id
  | _ -> Alcotest.fail "in-flight request was dropped by drain");
  check_int "nothing left in flight" 0
    (Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_in_flight

let test_supervisor_reload_waits_and_swaps () =
  let clock = mk_clock () in
  let handle, release, entered = latched_replica () in
  let generation = ref 0 in
  let launcher ~index:_ =
    incr generation;
    if !generation = 1 then Ok handle else Ok (fst (ok_replica ()))
  in
  let sup = make_sup ~replicas:1 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  let reply = ref None in
  let client =
    Thread.create
      (fun () ->
        reply := Some (Serve.Supervisor.call sup (optimize "r1" "matmul:32x32x32")))
      ()
  in
  spin_until (fun () -> !entered = 1);
  let reload_result = ref (Error "not run") in
  let reloader =
    Thread.create (fun () -> reload_result := Serve.Supervisor.reload sup) ()
  in
  (* Reload fences the slot and waits: the old process must still be
     serving the accepted request. *)
  spin_until (fun () ->
      (Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_state = "draining");
  check "old replica still holds the request" true ((Serve.Supervisor.status sup).(0).Serve.Supervisor.rs_in_flight = 1);
  release ();
  Thread.join client;
  Thread.join reloader;
  (match !reply with
  | Some (Serve.Protocol.Ok_reply { r_id; _ }) ->
      check_str "accepted request survived the reload" "r1" r_id
  | _ -> Alcotest.fail "in-flight request was dropped by reload");
  check "reload succeeded" true (!reload_result = Ok ());
  let st = (Serve.Supervisor.status sup).(0) in
  check_str "new replica serving" "up" st.Serve.Supervisor.rs_state;
  check_int "launcher ran twice" 2 !generation;
  (* The swap reaches the request path: the latched replica is gone. *)
  (match Serve.Supervisor.call sup (optimize "r2" "matmul:32x32x32") with
  | Serve.Protocol.Ok_reply { r_id; _ } -> check_str "served by new" "r2" r_id
  | _ -> Alcotest.fail "expected the reloaded replica to serve");
  Serve.Supervisor.drain sup

(* ------------------------------------------------------------------ *)
(* Metrics aggregation                                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_merge_rendered () =
  let a = Util.Metrics.create () and b = Util.Metrics.create () in
  for _ = 1 to 2 do Util.Metrics.incr a "serve_requests_total" done;
  for _ = 1 to 3 do Util.Metrics.incr b "serve_requests_total" done;
  Util.Metrics.incr b "serve_cache_hits_total";
  Util.Metrics.set_gauge a "serve_queue_depth" 4.0;
  Util.Metrics.set_gauge b "serve_queue_depth" 1.0;
  Util.Metrics.observe a "serve_latency_seconds" 0.010;
  Util.Metrics.observe b "serve_latency_seconds" 0.020;
  let merged =
    Util.Metrics.merge_rendered
      [ Util.Metrics.render a; Util.Metrics.render b ]
  in
  let has s = Astring_contains.contains merged s in
  check "counters sum across replicas" true (has "serve_requests_total 5");
  check "lone counters pass through" true (has "serve_cache_hits_total 1");
  check "gauges sum" true (has "serve_queue_depth 5");
  check "histogram counts sum" true (has "serve_latency_seconds_count 2")

let test_supervisor_fleet_metrics () =
  let clock = mk_clock () in
  let launcher ~index:_ = Ok (fst (ok_replica ())) in
  let sup = make_sup ~replicas:2 ~launcher clock in
  check "ready" true (Serve.Supervisor.await_ready sup ~timeout_s:5.0);
  ignore (Serve.Supervisor.call sup (optimize "m1" "matmul:32x32x32"));
  let m = Serve.Supervisor.metrics sup in
  check_int "request counted" 1 (Util.Metrics.counter m "fleet_requests_total");
  check_int "ok reply counted" 1
    (Util.Metrics.counter m "fleet_replies_ok_total");
  check "latency observed" true
    (Util.Metrics.hist_count m "fleet_latency_seconds" = 1);
  check "up gauge" true
    (Astring_contains.contains (Util.Metrics.render m) "\nfleet_replica_0_up 1\n");
  let rendered =
    match Serve.Supervisor.call sup (Serve.Protocol.Metrics { id = "m" }) with
    | Serve.Protocol.Metrics_reply { body; _ } -> body
    | _ -> Alcotest.fail "expected a metrics reply"
  in
  check "rendered fleet series" true
    (Astring_contains.contains rendered "fleet_requests_total 1");
  (* The status body is the stats verb's payload. *)
  (match Serve.Supervisor.call sup (Serve.Protocol.Stats { id = "s" }) with
  | Serve.Protocol.Stats_reply { body; _ } ->
      check "status body lists replicas" true
        (Astring_contains.contains body "replica=1 state=up")
  | _ -> Alcotest.fail "expected stats reply");
  Serve.Supervisor.drain sup

(* ------------------------------------------------------------------ *)
(* Chaos plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_chaos_plan_deterministic () =
  let mk seed =
    Faults.chaos_plan ~seed ~replicas:3 ~duration_s:10.0 ~kill_rate:0.5
      ~stall_rate:0.2 ~stall_seconds:0.4 ()
  in
  let p1 = mk 99 and p2 = mk 99 in
  check "same seed, same plan" true (p1 = p2);
  check "different seed, different plan" true (p1 <> mk 100);
  check "events stay inside the duration" true
    (List.for_all
       (fun (e : Faults.chaos_event) ->
         e.Faults.at_s >= 0.0 && e.Faults.at_s < 10.0)
       p1);
  check "events are time-sorted" true
    (List.sort (fun (a : Faults.chaos_event) b -> compare a.Faults.at_s b.Faults.at_s) p1 = p1);
  check "replica indices in range" true
    (List.for_all
       (fun (e : Faults.chaos_event) ->
         e.Faults.replica >= 0 && e.Faults.replica < 3)
       p1);
  check "stall durations in [0.5, 1.5] * stall_seconds" true
    (List.for_all
       (fun (e : Faults.chaos_event) ->
         match e.Faults.action with
         | Faults.Stall d -> d >= 0.2 -. 1e-9 && d <= 0.6 +. 1e-9
         | _ -> true)
       p1);
  check "zero rates, empty plan" true
    (Faults.chaos_plan ~seed:1 ~replicas:3 ~duration_s:10.0 ~kill_rate:0.0 ()
    = []);
  check "negative rate rejected" true
    (try
       ignore
         (Faults.chaos_plan ~seed:1 ~replicas:3 ~duration_s:1.0
            ~kill_rate:(-1.0) ());
       false
     with Invalid_argument _ -> true);
  check "zero replicas rejected" true
    (try
       ignore (Faults.chaos_plan ~seed:1 ~replicas:0 ~duration_s:1.0 ());
       false
     with Invalid_argument _ -> true)

let test_chaos_event_strings () =
  check_str "kill event" "t=1.250s replica=2 kill"
    (Faults.chaos_event_to_string
       { Faults.at_s = 1.25; replica = 2; action = Faults.Kill_replica })

(* ------------------------------------------------------------------ *)
(* Atomic file writes                                                  *)
(* ------------------------------------------------------------------ *)

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_atomic_file_write_and_abort () =
  let dir = Filename.temp_file "atomic-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "artifact.json" in
  Util.Atomic_file.write_string ~path "{\"v\": 1}\n";
  check_str "first write lands" "{\"v\": 1}\n" (read_all path);
  Util.Atomic_file.write_string ~path "{\"v\": 2}\n";
  check_str "overwrite replaces content" "{\"v\": 2}\n" (read_all path);
  (* A writer that dies mid-dump must leave the old content intact and
     no temp debris behind. *)
  (try
     Util.Atomic_file.write_sealed ~path ~header:"test v1" (fun oc ->
         output_string oc "half-written garbage";
         failwith "simulated crash")
   with Failure _ -> ());
  check_str "aborted write leaves the previous content" "{\"v\": 2}\n"
    (read_all path);
  check_int "no temp files left behind" 1 (Array.length (Sys.readdir dir));
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "backoff: zero-jitter schedule" `Quick
      test_backoff_schedule;
    Alcotest.test_case "backoff: jitter bounds" `Quick
      test_backoff_jitter_bounds;
    Alcotest.test_case "backoff: seed determinism" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "breaker: full transition cycle" `Quick
      test_breaker_cycle;
    Alcotest.test_case "router: owner, preference, balance" `Quick
      test_router_basics;
    Alcotest.test_case "supervisor: healthy fleet startup + drain" `Quick
      test_supervisor_starts_healthy_fleet;
    Alcotest.test_case "supervisor: restart backoff spacing" `Quick
      test_supervisor_restart_backoff_spacing;
    Alcotest.test_case "supervisor: crash detection + restart" `Quick
      test_supervisor_crash_detect_and_restart;
    Alcotest.test_case "supervisor: heartbeat restart of a killed replica" `Quick
      test_supervisor_heartbeat_restarts_replica;
    Alcotest.test_case "supervisor: hedge rescue + breaker shed" `Quick
      test_supervisor_hedge_and_breaker_shed;
    Alcotest.test_case "supervisor: garbled reply hedged" `Quick
      test_supervisor_garbled_reply_is_hedged;
    Alcotest.test_case "supervisor: upstream failure, hedge off" `Quick
      test_supervisor_upstream_failure_and_no_hedge;
    Alcotest.test_case "supervisor: unavailable when fleet down" `Quick
      test_supervisor_unavailable_when_all_down;
    Alcotest.test_case "supervisor: drain holds in-flight" `Quick
      test_supervisor_drain_waits_for_in_flight;
    Alcotest.test_case "supervisor: reload holds in-flight + swaps" `Quick
      test_supervisor_reload_waits_and_swaps;
    Alcotest.test_case "metrics: merge_rendered sums fleets" `Quick
      test_metrics_merge_rendered;
    Alcotest.test_case "supervisor: fleet metrics + status body" `Quick
      test_supervisor_fleet_metrics;
    Alcotest.test_case "chaos plan: determinism + validation" `Quick
      test_chaos_plan_deterministic;
    Alcotest.test_case "chaos plan: event rendering" `Quick
      test_chaos_event_strings;
    Alcotest.test_case "atomic file: write, overwrite, abort" `Quick
      test_atomic_file_write_and_abort;
  ]

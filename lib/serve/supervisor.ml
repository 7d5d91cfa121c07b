(* Fleet supervisor. One mutex guards all slot state; everything slow
   (launching processes, socket round trips, health pings) happens
   outside it under a generation guard: each launch bumps the slot's
   generation, and an outcome observed against generation g is applied
   only if the slot still runs generation g. That makes tick safe to
   run concurrently with the request path, reload and itself.

   The clock and sleep are injected so tier-1 tests script time:
   restart schedules, breaker cooldowns and ready timeouts are all
   functions of [now ()], never of wall time. *)

type config = {
  replicas : int;
  vnodes : int;
  request_timeout_s : float;
  health_interval_s : float;
  health_timeout_s : float;
  ready_timeout_s : float;
  hedge : bool;
  breaker : Breaker.config;
  backoff : Backoff.config;
  seed : int;
}

let default_config =
  {
    replicas = 3;
    vnodes = 64;
    request_timeout_s = 10.0;
    health_interval_s = 0.2;
    health_timeout_s = 1.0;
    ready_timeout_s = 10.0;
    hedge = true;
    breaker = Breaker.default_config;
    backoff = Backoff.default_config;
    seed = 0x5eed;
  }

let validate c =
  if c.replicas < 1 then Error "replicas must be >= 1"
  else if c.vnodes < 1 then Error "vnodes must be >= 1"
  else if c.request_timeout_s <= 0.0 then Error "request_timeout_s must be > 0"
  else if c.health_interval_s <= 0.0 then Error "health_interval_s must be > 0"
  else if c.health_timeout_s <= 0.0 then Error "health_timeout_s must be > 0"
  else if c.ready_timeout_s <= 0.0 then Error "ready_timeout_s must be > 0"
  else
    match Breaker.validate c.breaker with
    | Error e -> Error ("breaker: " ^ e)
    | Ok () -> (
        match Backoff.validate c.backoff with
        | Error e -> Error ("backoff: " ^ e)
        | Ok () -> Ok ())

type slot_state = Starting | Up | Down | Draining

let slot_state_to_string = function
  | Starting -> "starting"
  | Up -> "up"
  | Down -> "down"
  | Draining -> "draining"

type slot = {
  index : int;
  mutable proc : Replica.t option;
  mutable state : slot_state;
  mutable generation : int;
  mutable restarts : int;
  mutable next_restart_at : float;
  mutable restarting : bool;  (* a launcher call for this slot is in flight *)
  mutable started_at : float;  (* of the current generation's launch *)
  mutable in_flight : int;
  breaker : Breaker.t;
  backoff : Backoff.t;
}

type t = {
  cfg : config;
  now : unit -> float;
  sleep : float -> unit;
  launcher : index:int -> (Replica.t, string) result;
  ring : Router.t;
  slots : slot array;
  mutex : Mutex.t;
  cond : Condition.t;  (* in_flight decrements and drain progress *)
  metrics : Util.Metrics.t;
  mutable draining : bool;
  mutable heartbeat : Thread.t option;
  mutable heartbeat_stop : bool;
}

type replica_status = {
  rs_index : int;
  rs_state : string;
  rs_pid : int option;
  rs_restarts : int;
  rs_breaker : Breaker.state;
  rs_in_flight : int;
  rs_generation : int;
}

let metrics t = t.metrics

let draining t =
  Mutex.lock t.mutex;
  let d = t.draining in
  Mutex.unlock t.mutex;
  d

(* ---------- locked helpers ---------- *)

let update_slot_gauges_locked t slot ~now =
  let g fmt = Printf.sprintf fmt slot.index in
  Util.Metrics.set_gauge t.metrics
    (g "fleet_replica_%d_up")
    (if slot.state = Up then 1.0 else 0.0);
  Util.Metrics.set_gauge t.metrics
    (g "fleet_replica_%d_breaker_state")
    (Breaker.state_to_float (Breaker.state slot.breaker ~now));
  Util.Metrics.set_gauge t.metrics
    (g "fleet_replica_%d_in_flight")
    (float_of_int slot.in_flight);
  Util.Metrics.set_gauge t.metrics
    (g "fleet_replica_%d_restarts")
    (float_of_int slot.restarts)

let update_gauges_locked t =
  let now = t.now () in
  Array.iter (fun s -> update_slot_gauges_locked t s ~now) t.slots

let schedule_restart_locked t slot =
  slot.state <- Down;
  slot.next_restart_at <- t.now () +. Backoff.next slot.backoff

(* Stop the slot's process (if any) and put it on the restart
   schedule. SIGKILL cannot be caught or ignored (it even stops
   SIGSTOPped children), and reaping after it is immediate, so doing
   this under the lock is fine. *)
let take_down_locked t slot =
  (match slot.proc with
  | Some p -> p.Replica.kill ()
  | None -> ());
  slot.proc <- None;
  Util.Metrics.incr t.metrics "fleet_replica_down_total";
  schedule_restart_locked t slot;
  update_slot_gauges_locked t slot ~now:(t.now ())

let install_launch_locked t slot result ~relaunch =
  slot.restarting <- false;
  (match result with
  | Ok proc ->
      (match slot.proc with
      | Some old -> old.Replica.kill ()
      | None -> ());
      slot.proc <- Some proc;
      slot.generation <- slot.generation + 1;
      slot.state <- Starting;
      slot.started_at <- t.now ();
      if relaunch then begin
        slot.restarts <- slot.restarts + 1;
        Util.Metrics.incr t.metrics "fleet_restarts_total"
      end
  | Error _ ->
      Util.Metrics.incr t.metrics "fleet_launch_failures_total";
      schedule_restart_locked t slot);
  update_slot_gauges_locked t slot ~now:(t.now ())

(* ---------- create ---------- *)

let create ?(config = default_config) ?now ?sleep ~launcher () =
  (* A replica dying mid-write (the chaos harness's bread and butter)
     must produce EPIPE, not a process-killing SIGPIPE. *)
  Replica.ignore_sigpipe ();
  match validate config with
  | Error e -> Error ("Supervisor.create: " ^ e)
  | Ok () ->
      let now = match now with Some f -> f | None -> Unix.gettimeofday in
      let sleep = match sleep with Some f -> f | None -> Thread.delay in
      let mk_slot index =
        {
          index;
          proc = None;
          state = Down;
          generation = 0;
          restarts = 0;
          next_restart_at = neg_infinity;
          restarting = false;
          started_at = neg_infinity;
          in_flight = 0;
          breaker = Breaker.create ~config:config.breaker ();
          backoff = Backoff.create ~seed:(config.seed + index) config.backoff;
        }
      in
      let t =
        {
          cfg = config;
          now;
          sleep;
          launcher;
          ring = Router.create ~vnodes:config.vnodes ~replicas:config.replicas ();
          slots = Array.init config.replicas mk_slot;
          mutex = Mutex.create ();
          cond = Condition.create ();
          metrics = Util.Metrics.create ();
          draining = false;
          heartbeat = None;
          heartbeat_stop = false;
        }
      in
      Array.iter
        (fun slot ->
          let result = t.launcher ~index:slot.index in
          Mutex.lock t.mutex;
          install_launch_locked t slot result ~relaunch:false;
          Mutex.unlock t.mutex)
        t.slots;
      Ok t

(* ---------- health / supervision pass ---------- *)

let ping_id = "fleet-hc"

let probe_healthy t (proc : Replica.t) =
  proc.Replica.alive ()
  &&
  match
    proc.Replica.call
      (Protocol.Ping { id = ping_id })
      ~timeout_s:t.cfg.health_timeout_s
  with
  | Ok (Protocol.Pong _) -> true
  | Ok _ | Error _ -> false

let tick t =
  (* Phase 1 (locked): decide what to do. *)
  Mutex.lock t.mutex;
  if t.draining then Mutex.unlock t.mutex
  else begin
    let now = t.now () in
    let relaunch = ref [] in
    let probe = ref [] in
    Array.iter
      (fun slot ->
        match slot.state with
        | Down when (not slot.restarting) && now >= slot.next_restart_at ->
            slot.restarting <- true;
            relaunch := slot :: !relaunch
        | (Starting | Up) when slot.proc <> None -> (
            match slot.proc with
            | Some proc -> probe := (slot, proc, slot.generation) :: !probe
            | None -> ())
        | _ -> ())
      t.slots;
    Mutex.unlock t.mutex;
    (* Phase 2 (unlocked): launch and probe. *)
    List.iter
      (fun slot ->
        let result = t.launcher ~index:slot.index in
        Mutex.lock t.mutex;
        install_launch_locked t slot result ~relaunch:true;
        Mutex.unlock t.mutex)
      (List.rev !relaunch);
    List.iter
      (fun (slot, proc, gen) ->
        let healthy = probe_healthy t proc in
        Mutex.lock t.mutex;
        if slot.generation = gen && slot.state <> Draining then begin
          let now = t.now () in
          if healthy then begin
            Breaker.record_success slot.breaker ~now;
            if slot.state = Starting then begin
              slot.state <- Up;
              Backoff.reset slot.backoff;
              Util.Metrics.incr t.metrics "fleet_replica_ready_total"
            end
          end
          else begin
            Util.Metrics.incr t.metrics "fleet_health_failures_total";
            if not (proc.Replica.alive ()) then begin
              Util.Metrics.incr t.metrics "fleet_crashes_detected_total";
              take_down_locked t slot
            end
            else if slot.state = Starting then begin
              (* Not serving yet: give it ready_timeout_s, no breaker
                 food (a loading replica is not misbehaving). *)
              if now -. slot.started_at > t.cfg.ready_timeout_s then begin
                Util.Metrics.incr t.metrics "fleet_ready_timeouts_total";
                take_down_locked t slot
              end
            end
            else begin
              (* Up but failing probes: alive yet stalled or garbling.
                 Feed the breaker; when it opens, recycle the process —
                 a stall is a crash that forgot to exit. *)
              Breaker.record_failure slot.breaker ~now;
              if Breaker.state slot.breaker ~now = Open then begin
                Util.Metrics.incr t.metrics "fleet_stall_recycles_total";
                take_down_locked t slot
              end
            end
          end;
          update_slot_gauges_locked t slot ~now
        end;
        Mutex.unlock t.mutex)
      !probe;
    Mutex.lock t.mutex;
    update_gauges_locked t;
    Mutex.unlock t.mutex
  end

let all_up t =
  Mutex.lock t.mutex;
  let up = Array.for_all (fun s -> s.state = Up) t.slots in
  Mutex.unlock t.mutex;
  up

let await_ready t ~timeout_s =
  let deadline = t.now () +. timeout_s in
  let rec go () =
    tick t;
    if all_up t then true
    else if t.now () >= deadline then false
    else begin
      t.sleep (Float.min t.cfg.health_interval_s 0.05);
      go ()
    end
  in
  go ()

let start_heartbeat t =
  Mutex.lock t.mutex;
  if t.heartbeat = None && not t.draining then
    t.heartbeat <-
      Some
        (Thread.create
           (fun () ->
             while not t.heartbeat_stop do
               tick t;
               t.sleep t.cfg.health_interval_s
             done)
           ());
  Mutex.unlock t.mutex

(* ---------- request path ---------- *)

(* Reserve the first routable replica in ring-preference order for
   [key], skipping [exclude]. Bumps in_flight so drain/reload wait for
   us; the caller must hand the reservation to [finish_attempt]. *)
let pick t ~key ~exclude =
  Mutex.lock t.mutex;
  let now = t.now () in
  let chosen =
    if t.draining then None
    else
      List.find_map
        (fun r ->
          if List.mem r exclude then None
          else
            let slot = t.slots.(r) in
            match (slot.state, slot.proc) with
            | Up, Some proc when Breaker.allow slot.breaker ~now ->
                slot.in_flight <- slot.in_flight + 1;
                Some (slot, proc, slot.generation)
            | _ -> None)
        (Router.preference t.ring key)
  in
  Mutex.unlock t.mutex;
  chosen

(* Release the reservation and account the outcome. Any decoded
   response is breaker success (the replica answered — an error *reply*
   is the replica working); transport errors are breaker failures, and
   a dead process is taken down immediately rather than waiting for
   the next heartbeat. *)
let finish_attempt t (slot, (proc : Replica.t), gen) outcome =
  Mutex.lock t.mutex;
  slot.in_flight <- slot.in_flight - 1;
  Condition.broadcast t.cond;
  let now = t.now () in
  (if slot.generation = gen && slot.state <> Draining then
     match outcome with
     | Ok _ -> Breaker.record_success slot.breaker ~now
     | Error _ ->
         Util.Metrics.incr t.metrics "fleet_transport_errors_total";
         Breaker.record_failure slot.breaker ~now;
         if not (proc.Replica.alive ()) then begin
           Util.Metrics.incr t.metrics "fleet_crashes_detected_total";
           take_down_locked t slot
         end);
  update_slot_gauges_locked t slot ~now;
  Mutex.unlock t.mutex

let attempt t reservation req =
  let _, (proc : Replica.t), _ = reservation in
  let outcome =
    proc.Replica.call req ~timeout_s:t.cfg.request_timeout_s
  in
  finish_attempt t reservation outcome;
  outcome

let route_optimize t req ~id ~key =
  let started = t.now () in
  let fail code message = Protocol.Error_reply { e_id = id; code; message } in
  let ok resp =
    Util.Metrics.observe t.metrics "fleet_latency_seconds" (t.now () -. started);
    (match resp with
    | Protocol.Ok_reply _ -> Util.Metrics.incr t.metrics "fleet_replies_ok_total"
    | _ -> Util.Metrics.incr t.metrics "fleet_replies_other_total");
    resp
  in
  Util.Metrics.incr t.metrics "fleet_requests_total";
  match pick t ~key ~exclude:[] with
  | None ->
      Util.Metrics.incr t.metrics "fleet_unavailable_total";
      fail Protocol.Unavailable
        "no healthy replica (fleet down, restarting, or shedding)"
  | Some ((slot1, _, _) as res1) -> (
      match attempt t res1 req with
      | Ok resp -> ok resp
      | Error e1 -> (
          let e1s = Replica.error_to_string e1 in
          if not t.cfg.hedge then begin
            Util.Metrics.incr t.metrics "fleet_upstream_failures_total";
            fail Protocol.Upstream_failure e1s
          end
          else begin
            Util.Metrics.incr t.metrics "fleet_hedges_total";
            match pick t ~key ~exclude:[ slot1.index ] with
            | None ->
                Util.Metrics.incr t.metrics "fleet_upstream_failures_total";
                fail Protocol.Upstream_failure
                  (Printf.sprintf "replica %d failed (%s); no hedge target"
                     slot1.index e1s)
            | Some res2 -> (
                match attempt t res2 req with
                | Ok resp ->
                    Util.Metrics.incr t.metrics "fleet_hedge_rescues_total";
                    ok resp
                | Error e2 ->
                    Util.Metrics.incr t.metrics "fleet_upstream_failures_total";
                    fail Protocol.Upstream_failure
                      (Printf.sprintf
                         "replica %d failed (%s); hedge on replica %d failed \
                          (%s)"
                         slot1.index e1s
                         (let s, _, _ = res2 in
                          s.index)
                         (Replica.error_to_string e2)))
          end))

(* ---------- introspection ---------- *)

let status t =
  Mutex.lock t.mutex;
  let now = t.now () in
  let st =
    Array.map
      (fun s ->
        {
          rs_index = s.index;
          rs_state = slot_state_to_string s.state;
          rs_pid =
            (match s.proc with Some p -> p.Replica.pid | None -> None);
          rs_restarts = s.restarts;
          rs_breaker = Breaker.state s.breaker ~now;
          rs_in_flight = s.in_flight;
          rs_generation = s.generation;
        })
      t.slots
  in
  Mutex.unlock t.mutex;
  st

let status_body t =
  let st = status t in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "fleet replicas=%d draining=%b\n" t.cfg.replicas
       (draining t));
  Array.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "replica=%d state=%s pid=%s restarts=%d breaker=%s in_flight=%d \
            generation=%d\n"
           r.rs_index r.rs_state
           (match r.rs_pid with Some p -> string_of_int p | None -> "-")
           r.rs_restarts
           (Breaker.state_to_string r.rs_breaker)
           r.rs_in_flight r.rs_generation))
    st;
  Buffer.add_string b (Util.Metrics.stats_line t.metrics);
  Buffer.contents b

let scrape_replicas t =
  let procs = ref [] in
  Mutex.lock t.mutex;
  Array.iter
    (fun s ->
      match (s.state, s.proc) with
      | Up, Some p -> procs := p :: !procs
      | _ -> ())
    t.slots;
  Mutex.unlock t.mutex;
  List.filter_map
    (fun (p : Replica.t) ->
      match
        p.Replica.call
          (Protocol.Metrics { id = "fleet-scrape" })
          ~timeout_s:t.cfg.health_timeout_s
      with
      | Ok (Protocol.Metrics_reply { body; _ }) -> Some body
      | Ok _ | Error _ -> None)
    (List.rev !procs)

let render_metrics t =
  Mutex.lock t.mutex;
  update_gauges_locked t;
  Mutex.unlock t.mutex;
  Util.Metrics.merge_rendered (Util.Metrics.render t.metrics :: scrape_replicas t)

(* ---------- front door ---------- *)

let call t req =
  let id = Protocol.request_id req in
  if draining t then
    Protocol.Error_reply
      {
        e_id = id;
        code = Protocol.Shutting_down;
        message = "fleet is draining";
      }
  else
    match req with
    | Protocol.Ping _ -> Protocol.Pong { p_id = id }
    | Protocol.Stats _ ->
        Protocol.Stats_reply { s_id = id; body = status_body t }
    | Protocol.Metrics _ ->
        Protocol.Metrics_reply { m_id = id; body = render_metrics t }
    | Protocol.Optimize { target; _ } ->
        route_optimize t req ~id ~key:(Engine.target_digest target)

(* ---------- drain / reload ---------- *)

let stop_heartbeat t =
  Mutex.lock t.mutex;
  t.heartbeat_stop <- true;
  let hb = t.heartbeat in
  t.heartbeat <- None;
  Mutex.unlock t.mutex;
  match hb with Some th -> Thread.join th | None -> ()

let drain t =
  Mutex.lock t.mutex;
  if t.draining then Mutex.unlock t.mutex
  else begin
    t.draining <- true;
    Array.iter (fun s -> s.state <- Draining) t.slots;
    while Array.exists (fun s -> s.in_flight > 0) t.slots do
      Condition.wait t.cond t.mutex
    done;
    let procs =
      Array.to_list t.slots
      |> List.filter_map (fun s ->
             let p = s.proc in
             s.proc <- None;
             s.state <- Down;
             p)
    in
    update_gauges_locked t;
    Mutex.unlock t.mutex;
    List.iter (fun (p : Replica.t) -> p.Replica.kill ()) procs;
    stop_heartbeat t
  end

let reload t =
  let errors = ref [] in
  Array.iter
    (fun slot ->
      Mutex.lock t.mutex;
      if t.draining then begin
        Mutex.unlock t.mutex;
        errors := Printf.sprintf "replica %d: fleet draining" slot.index :: !errors
      end
      else begin
        (* 1. Fence: pick skips non-Up slots, so no new request lands
           here from now on. *)
        slot.state <- Draining;
        (* 2. Event-driven wait for the accepted in-flight requests —
           this is what "reload never drops an accepted request"
           means. *)
        while slot.in_flight > 0 do
          Condition.wait t.cond t.mutex
        done;
        let old = slot.proc in
        slot.proc <- None;
        Mutex.unlock t.mutex;
        (match old with Some p -> p.Replica.kill () | None -> ());
        (* 3. Launch the replacement. *)
        let result = t.launcher ~index:slot.index in
        Mutex.lock t.mutex;
        (match result with
        | Error e ->
            errors :=
              Printf.sprintf "replica %d: relaunch failed: %s" slot.index e
              :: !errors;
            Util.Metrics.incr t.metrics "fleet_launch_failures_total";
            slot.restarting <- false;
            schedule_restart_locked t slot
        | Ok _ -> install_launch_locked t slot result ~relaunch:true);
        let gen = slot.generation in
        Mutex.unlock t.mutex;
        (* 4. Wait until it serves (or put it on the restart path). *)
        match result with
        | Error _ -> ()
        | Ok proc ->
            let deadline = t.now () +. t.cfg.ready_timeout_s in
            let rec wait_ready () =
              if probe_healthy t proc then begin
                Mutex.lock t.mutex;
                if slot.generation = gen && slot.state = Starting then begin
                  slot.state <- Up;
                  Backoff.reset slot.backoff;
                  update_slot_gauges_locked t slot ~now:(t.now ())
                end;
                Mutex.unlock t.mutex;
                true
              end
              else if t.now () >= deadline then false
              else begin
                t.sleep (Float.min t.cfg.health_interval_s 0.05);
                wait_ready ()
              end
            in
            if not (wait_ready ()) then begin
              Mutex.lock t.mutex;
              if slot.generation = gen then begin
                Util.Metrics.incr t.metrics "fleet_ready_timeouts_total";
                take_down_locked t slot
              end;
              Mutex.unlock t.mutex;
              errors :=
                Printf.sprintf "replica %d: not ready after reload" slot.index
                :: !errors
            end
      end)
    t.slots;
  Util.Metrics.incr t.metrics "fleet_reloads_total";
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

(* ---------- chaos hooks ---------- *)

let replica_pid t i =
  Mutex.lock t.mutex;
  let pid =
    match t.slots.(i).proc with Some p -> p.Replica.pid | None -> None
  in
  Mutex.unlock t.mutex;
  pid

let kill_replica t i =
  Mutex.lock t.mutex;
  let proc = t.slots.(i).proc in
  Mutex.unlock t.mutex;
  (* Kill without bookkeeping: the supervisor must *discover* this. *)
  match proc with Some p -> p.Replica.kill () | None -> ()

let replica_call t i req ~timeout_s =
  Mutex.lock t.mutex;
  let proc = t.slots.(i).proc in
  Mutex.unlock t.mutex;
  match proc with
  | Some p -> p.Replica.call req ~timeout_s
  | None -> Error (Replica.Connection "slot has no process")

type config = { workers : int; batcher : Batcher.config }

let default_config = { workers = 1; batcher = Batcher.default_config }

(* Event-driven timed wait for the dispatcher. The stdlib has no timed
   condition wait, so blocking "until notified or until the next
   request deadline" uses the classic self-pipe: waiters select on the
   read end with the deadline as select's timeout, notifiers write one
   byte. The byte persists until drained, so a notification sent between
   "checked state under the lock" and "entered select" wakes the very
   next wait — no lost-wakeup window, and an idle dispatcher burns no
   CPU (it used to sleep-poll in sub-millisecond slices). *)
module Waker = struct
  type t = { rd : Unix.file_descr; wr : Unix.file_descr }

  let create () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock rd;
    Unix.set_nonblock wr;
    { rd; wr }

  let notify t =
    (* A full pipe already holds a pending wakeup; a closed pipe means
       the dispatcher is gone. Either way there is nothing to do. *)
    try ignore (Unix.write t.wr (Bytes.make 1 '\001') 0 1)
    with
    | Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
    ->
      ()

  let drain_pipe t =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read t.rd buf 0 (Bytes.length buf) with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()

  (* Block until notified or [timeout] seconds pass ([None] = forever).
     Pending notifications are drained before returning; the caller
     re-examines all shared state after every wakeup, so coalescing
     them is safe. *)
  let wait t timeout =
    let tv = match timeout with None -> -1.0 | Some s -> Float.max s 0.0 in
    (match Unix.select [ t.rd ] [] [] tv with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    drain_pipe t

  let close t =
    (try Unix.close t.wr with Unix.Unix_error _ -> ());
    try Unix.close t.rd with Unix.Unix_error _ -> ()
end

(* One admitted optimize request: resolved op, reply callback, and the
   submit timestamp for the latency histogram. *)
type job = {
  j_id : string;
  op : Linalg.t;
  reply : Protocol.response -> unit;
  submitted_at : float;
}

type state = Running | Draining | Drained

type t = {
  engine : Engine.t;
  cfg : config;
  pool : Util.Domain_pool.t;
  metrics : Util.Metrics.t;
  mutex : Mutex.t;
  cond : Condition.t;  (** drain waiters; the dispatcher waits on [waker] *)
  waker : Waker.t;
  batcher : job Batcher.t;
  mutable state : state;
  mutable in_flight : int;  (** batches currently on the pool *)
  mutable dispatcher : unit Domain.t option;
  mutable drain_done : bool;  (** set once by the draining caller *)
}

let now () = Unix.gettimeofday ()

let metrics t = t.metrics

(* -- reply helpers ---------------------------------------------------- *)

let code_counter code =
  "serve_replies_" ^ Protocol.error_code_to_string code ^ "_total"

let reply_error t job code message =
  Util.Metrics.incr t.metrics (code_counter code);
  Util.Metrics.observe t.metrics "serve_latency_seconds"
    (now () -. job.submitted_at);
  job.reply (Protocol.Error_reply { e_id = job.j_id; code; message })

let reply_ok t job (o : Engine.outcome) =
  Util.Metrics.incr t.metrics "serve_replies_ok_total";
  Util.Metrics.observe t.metrics "serve_latency_seconds"
    (now () -. job.submitted_at);
  job.reply
    (Protocol.Ok_reply
       {
         r_id = job.j_id;
         schedule = o.Engine.schedule;
         speedup = o.Engine.speedup;
         policy_digest = Engine.policy_digest t.engine;
       })

(* -- worker side ------------------------------------------------------ *)

let run_batch t (items : job Batcher.item list) =
  let jobs = Array.of_list (List.map (fun it -> it.Batcher.payload) items) in
  let t0 = now () in
  List.iter
    (fun (it : job Batcher.item) ->
      Util.Metrics.observe t.metrics "serve_queue_wait_seconds"
        (t0 -. it.Batcher.enqueued_at))
    items;
  Util.Metrics.observe t.metrics "serve_batch_size"
    (float_of_int (Array.length jobs));
  let results =
    try Engine.solve_batch t.engine (Array.map (fun j -> j.op) jobs)
    with e ->
      Array.map
        (fun _ ->
          Error (Protocol.Env_failure, "batch failed: " ^ Printexc.to_string e))
        jobs
  in
  Array.iteri
    (fun i job ->
      match results.(i) with
      | Ok outcome -> reply_ok t job outcome
      | Error (code, msg) -> reply_error t job code msg)
    jobs

(* -- dispatcher ------------------------------------------------------- *)

(* Work-conserving dispatch: whenever a worker slot is free and the
   queue is not empty, the oldest [min length max_batch] requests go to
   the pool at once. A request never waits for company — a batched
   rollout is not measurably cheaper per row than a lone one
   (EXPERIMENTS.md) — so batches form only from the backlog that builds
   while every worker is busy. Otherwise the dispatcher blocks on its
   {!Waker}: forever on an empty queue, until the soonest request
   deadline on a backlog. Every state change that could unblock it
   (admission, drain, a worker slot freeing) notifies the waker, and
   the notification byte persists until drained, so an idle dispatcher
   costs zero CPU and still reacts to events immediately. *)
let dispatcher_loop t =
  let finished = ref false in
  while not !finished do
    Mutex.lock t.mutex;
    let tnow = now () in
    let expired = Batcher.pop_expired t.batcher ~now:tnow in
    let batch =
      if t.in_flight < t.cfg.workers then begin
        let b = Batcher.take_batch t.batcher in
        if b <> [] then t.in_flight <- t.in_flight + 1;
        b
      end
      else []
    in
    let drained_now =
      t.state = Draining && Batcher.length t.batcher = 0 && t.in_flight = 0
      && batch = [] && expired = []
    in
    if drained_now then t.state <- Drained;
    (* Decide how to wait before releasing the lock. Notifications sent
       after we unlock are parked in the waker pipe and wake the select
       instantly, so the decision cannot go stale. *)
    let wait =
      if drained_now || batch <> [] || expired <> [] then None
      else Some (Batcher.next_expiry_in t.batcher ~now:tnow)
    in
    Mutex.unlock t.mutex;
    List.iter
      (fun (it : job Batcher.item) ->
        Util.Metrics.incr t.metrics "serve_expired_total";
        reply_error t it.Batcher.payload Protocol.Deadline_exceeded
          "deadline expired while queued")
      expired;
    if batch <> [] then begin
      let _p =
        Util.Domain_pool.submit t.pool (fun () ->
            Fun.protect
              ~finally:(fun () ->
                Mutex.lock t.mutex;
                t.in_flight <- t.in_flight - 1;
                Condition.broadcast t.cond;
                Mutex.unlock t.mutex;
                Waker.notify t.waker)
              (fun () -> run_batch t batch))
      in
      ()
    end;
    Option.iter (Waker.wait t.waker) wait;
    if drained_now then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      finished := true
    end
  done

let create ?(config = default_config) engine =
  if config.workers < 1 then invalid_arg "Server.create: workers < 1";
  let t =
    {
      engine;
      cfg = config;
      pool = Util.Domain_pool.create ~size:config.workers;
      metrics = Util.Metrics.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      waker = Waker.create ();
      batcher = Batcher.create config.batcher;
      state = Running;
      in_flight = 0;
      dispatcher = None;
      drain_done = false;
    }
  in
  (* The evaluator caches sit below the result cache: base times per op
     and memoized state seconds per nest digest, shared by every forked
     rollout env. *)
  Util.Metrics.add_collector t.metrics (fun () ->
      Evaluator.cache_counters (Engine.evaluator_cache_stats engine));
  t.dispatcher <- Some (Domain.spawn (fun () -> dispatcher_loop t));
  t

(* The instance fields are one snapshot under the lock: the dispatcher
   pops a batch and bumps [in_flight] in one critical section, so an
   unlocked read could show neither. The registries render outside it,
   because the evaluator collector takes the cache shard locks. *)
let stats_body t =
  let cache = Engine.cache_stats t.engine in
  Mutex.lock t.mutex;
  let fields =
    Printf.sprintf
      "state=%s queue=%d in_flight=%d admitted=%d shed=%d expired=%d \
       cache_hits=%d cache_misses=%d cache_size=%d"
      (match t.state with
      | Running -> "running"
      | Draining -> "draining"
      | Drained -> "drained")
      (Batcher.length t.batcher) t.in_flight
      (Batcher.admitted_total t.batcher)
      (Batcher.shed_total t.batcher)
      (Batcher.expired_total t.batcher)
      cache.Util.Sharded_cache.hits cache.Util.Sharded_cache.misses
      cache.Util.Sharded_cache.size
  in
  Mutex.unlock t.mutex;
  String.concat " "
    (fields
    :: List.map Util.Metrics.stats_line [ t.metrics; Util.Metrics.global ])

let submit t (req : Protocol.request) reply =
  Util.Metrics.incr t.metrics "serve_requests_total";
  match req with
  | Protocol.Ping { id } -> reply (Protocol.Pong { p_id = id })
  | Protocol.Stats { id } ->
      reply (Protocol.Stats_reply { s_id = id; body = stats_body t })
  | Protocol.Metrics { id } ->
      reply
        (Protocol.Metrics_reply
           {
             m_id = id;
             body =
               Util.Metrics.render t.metrics
               ^ Util.Metrics.render Util.Metrics.global;
           })
  | Protocol.Optimize { id; target; deadline_ms } -> (
      let submitted_at = now () in
      match Engine.resolve_target t.engine target with
      | Error (code, msg) ->
          Util.Metrics.incr t.metrics (code_counter code);
          reply (Protocol.Error_reply { e_id = id; code; message = msg })
      | Ok op -> (
          let job = { j_id = id; op; reply; submitted_at } in
          Mutex.lock t.mutex;
          let verdict =
            if t.state <> Running then `Shutting_down
            else
              match
                Batcher.admit t.batcher ~now:submitted_at ?deadline_ms job
              with
              | Batcher.Admitted ->
                  Waker.notify t.waker;
                  `Admitted
              | Batcher.Shed -> `Shed
          in
          Mutex.unlock t.mutex;
          match verdict with
          | `Admitted -> ()
          | `Shed ->
              Util.Metrics.incr t.metrics "serve_shed_total";
              reply_error t job Protocol.Overloaded "admission queue full"
          | `Shutting_down ->
              reply_error t job Protocol.Shutting_down "server is draining"))

let drain t =
  Mutex.lock t.mutex;
  match t.state with
  | Draining | Drained ->
      (* Another caller is (or was) draining; wait for it to finish. *)
      while not t.drain_done do
        Condition.wait t.cond t.mutex
      done;
      Mutex.unlock t.mutex
  | Running ->
      t.state <- Draining;
      Condition.broadcast t.cond;
      Waker.notify t.waker;
      while t.state <> Drained do
        Condition.wait t.cond t.mutex
      done;
      Mutex.unlock t.mutex;
      (match t.dispatcher with
      | Some d ->
          (try Domain.join d with _ -> ());
          t.dispatcher <- None
      | None -> ());
      Waker.close t.waker;
      Util.Domain_pool.shutdown t.pool;
      (* Workers are gone, so no solve_batch is in flight: the engine's
         rollout pool (if --jobs gave it one) can join too. *)
      Engine.shutdown t.engine;
      Mutex.lock t.mutex;
      t.drain_done <- true;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex

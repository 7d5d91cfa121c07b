(* The serving subsystem (lib/serve), layer by layer:

   - Protocol: encode/decode identity on randomized requests and
     responses, and totality under fuzz — malformed lines come back as
     [Error _], never as an exception;
   - Batcher: admission bound, deadline expiry, immediate release
     capped at max_batch in FIFO order — all on a scripted clock;
   - Metrics: counters, histogram quantiles, Prometheus rendering;
   - Engine: target resolution (spec / IR / unsupported), raise_nest
     round-trips, cache behavior, batch-independent determinism;
   - Server: the end-to-end acceptance property — identical requests
     produce byte-identical reply lines whether or not they hit the
     cache — plus work-conserving batching, shed, deadline, drain
     idempotence. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

(* Strings that stress the escaper: spaces, newlines, percents, UTF-8
   bytes, empty. *)
let gnarly_string =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_range 0 30);
        string_size ~gen:(char_range '\000' '\255') (int_range 0 20);
        oneofl [ ""; " "; "%"; "%2"; "a b"; "line\nbreak"; "tab\there"; "100%" ];
      ])

let gen_id = QCheck.Gen.(string_size ~gen:printable (int_range 1 12))

let gen_request =
  QCheck.Gen.(
    let* id = gen_id in
    let* deadline_ms = opt (int_range 0 100000) in
    oneof
      [
        (let* s = gnarly_string in
         oneofl
           [
             Serve.Protocol.Optimize
               { id; target = Serve.Protocol.Spec s; deadline_ms };
             Serve.Protocol.Optimize
               { id; target = Serve.Protocol.Ir s; deadline_ms };
           ]);
        return (Serve.Protocol.Stats { id });
        return (Serve.Protocol.Metrics { id });
        return (Serve.Protocol.Ping { id });
      ])

let gen_response =
  QCheck.Gen.(
    let* id = gen_id in
    let* s = gnarly_string in
    let* f = float_bound_inclusive 1e6 in
    let* code =
      oneofl
        Serve.Protocol.
          [
            Parse_error; Invalid_request; Unsupported; Overloaded;
            Deadline_exceeded; Env_failure; Shutting_down; Unavailable;
            Upstream_failure;
          ]
    in
    oneofl
      [
        Serve.Protocol.Ok_reply
          { r_id = id; schedule = s; speedup = f; policy_digest = "d41d8cd9" };
        Serve.Protocol.Error_reply { e_id = id; code; message = s };
        Serve.Protocol.Stats_reply { s_id = id; body = s };
        Serve.Protocol.Metrics_reply { m_id = id; body = s };
        Serve.Protocol.Pong { p_id = id };
      ])

(* Payloads are percent-escaped on the wire: any string survives an
   encode/decode round trip as an op-spec payload. *)
let qcheck_escape_roundtrip =
  QCheck.Test.make ~name:"escape/unescape identity" ~count:500
    (QCheck.make gnarly_string) (fun s ->
      let req =
        Serve.Protocol.Optimize
          { id = "e"; target = Serve.Protocol.Spec s; deadline_ms = None }
      in
      match Serve.Protocol.decode_request (Serve.Protocol.encode_request req) with
      | Ok r -> r = req
      | Error _ -> false)

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode identity" ~count:500
    (QCheck.make gen_request) (fun req ->
      match Serve.Protocol.(decode_request (encode_request req)) with
      | Ok req' -> req = req'
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode identity" ~count:500
    (QCheck.make gen_response) (fun resp ->
      match Serve.Protocol.(decode_response (encode_response resp)) with
      | Ok resp' -> resp = resp'
      | Error _ -> false)

(* Fuzz: random garbage and mutated valid lines must decode to a typed
   [Error], never raise. *)
let gen_fuzz_line =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:(char_range '\000' '\255') (int_range 0 60);
        (let* req = gen_request in
         let line = Serve.Protocol.encode_request req in
         let* i = int_range 0 (max 0 (String.length line - 1)) in
         let* c = char_range '\000' '\255' in
         return (String.mapi (fun j ch -> if j = i then c else ch) line));
        (let* req = gen_request in
         let* n = int_range 0 10 in
         let line = Serve.Protocol.encode_request req in
         return (String.sub line 0 (min n (String.length line))));
      ])

let qcheck_decode_never_raises =
  QCheck.Test.make ~name:"decoders are total under fuzz" ~count:1000
    (QCheck.make gen_fuzz_line) (fun line ->
      (match Serve.Protocol.decode_request line with
      | Ok _ | Error _ -> ());
      (match Serve.Protocol.decode_response line with
      | Ok _ | Error _ -> ());
      true)

let test_protocol_malformed () =
  let bad line =
    match Serve.Protocol.decode_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded malformed line %S" line
  in
  bad "";
  bad "mrs1";
  bad "mrs2 id ping";
  bad "http GET /";
  bad "mrs1 id warble";
  bad "mrs1 id optimize";
  bad "mrs1 id optimize spec";
  bad "mrs1 id optimize blob x";
  bad "mrs1 id optimize spec x notanumber";
  bad "mrs1 id optimize spec x -5";
  bad "mrs1 id optimize spec x 5 extra";
  bad "mrs1 id ping extra";
  bad "mrs1 %2 ping";
  bad "mrs1 %ZZ ping";
  (* an id that unescapes to the empty string is unanswerable *)
  bad "mrs1  ping";
  match Serve.Protocol.decode_request "mrs1 id optimize spec matmul:8x8x8 250" with
  | Ok
      (Serve.Protocol.Optimize
        { id = "id"; target = Serve.Protocol.Spec "matmul:8x8x8";
          deadline_ms = Some 250 }) -> ()
  | _ -> Alcotest.fail "valid optimize line did not decode"

(* ------------------------------------------------------------------ *)
(* Batcher (scripted clock)                                           *)
(* ------------------------------------------------------------------ *)

let bcfg ?(max_queue = 8) ?(max_batch = 3) () =
  { Serve.Batcher.max_queue; max_batch }

let payloads items = List.map (fun it -> it.Serve.Batcher.payload) items

let test_batcher_lone_item () =
  let b = Serve.Batcher.create (bcfg ()) in
  check "empty queue: nothing to take" true (Serve.Batcher.take_batch b = []);
  ignore (Serve.Batcher.admit b ~now:0.0 "a");
  Alcotest.(check (list string))
    "a lone item leaves at its own admission instant" [ "a" ]
    (payloads (Serve.Batcher.take_batch b));
  check_int "queue drained" 0 (Serve.Batcher.length b);
  ignore (Serve.Batcher.admit b ~now:0.0 "b");
  ignore (Serve.Batcher.admit b ~now:0.001 "c");
  Alcotest.(check (list string))
    "an under-full backlog leaves whole, in FIFO order" [ "b"; "c" ]
    (payloads (Serve.Batcher.take_batch b))

let test_batcher_caps_batch () =
  let b = Serve.Batcher.create (bcfg ~max_queue:10 ~max_batch:3 ()) in
  List.iter (fun p -> ignore (Serve.Batcher.admit b ~now:0.0 p))
    [ "a"; "b"; "c"; "d"; "e" ];
  Alcotest.(check (list string))
    "first batch takes the oldest max_batch" [ "a"; "b"; "c" ]
    (payloads (Serve.Batcher.take_batch b));
  Alcotest.(check (list string))
    "the remainder is the next batch" [ "d"; "e" ]
    (payloads (Serve.Batcher.take_batch b))

let test_batcher_shed_on_full () =
  let b = Serve.Batcher.create (bcfg ~max_queue:2 ()) in
  check "1 fits" true (Serve.Batcher.admit b ~now:0.0 "a" = Serve.Batcher.Admitted);
  check "2 fits" true (Serve.Batcher.admit b ~now:0.0 "b" = Serve.Batcher.Admitted);
  check "3 shed" true (Serve.Batcher.admit b ~now:0.0 "c" = Serve.Batcher.Shed);
  check_int "admitted counter" 2 (Serve.Batcher.admitted_total b);
  check_int "shed counter" 1 (Serve.Batcher.shed_total b);
  ignore (Serve.Batcher.take_batch b);
  check "after a batch leaves there is room again" true
    (Serve.Batcher.admit b ~now:0.0 "d" = Serve.Batcher.Admitted)

let test_batcher_deadlines () =
  let b = Serve.Batcher.create (bcfg ()) in
  ignore (Serve.Batcher.admit b ~now:0.0 ~deadline_ms:5 "urgent");
  ignore (Serve.Batcher.admit b ~now:0.0 "patient");
  check "nothing expired yet" true (Serve.Batcher.pop_expired b ~now:0.004 = []);
  Alcotest.(check (list string))
    "deadline passed while queued" [ "urgent" ]
    (payloads (Serve.Batcher.pop_expired b ~now:0.005));
  check_int "expired counter" 1 (Serve.Batcher.expired_total b);
  Alcotest.(check (list string))
    "expired item is gone from subsequent batches" [ "patient" ]
    (payloads (Serve.Batcher.take_batch b));
  (* a zero deadline is admitted already expired *)
  ignore (Serve.Batcher.admit b ~now:1.0 ~deadline_ms:0 "dead-on-arrival");
  Alcotest.(check (list string))
    "deadline_ms=0 expires at its own admission time" [ "dead-on-arrival" ]
    (payloads (Serve.Batcher.pop_expired b ~now:1.0))

let test_batcher_next_event () =
  let b = Serve.Batcher.create (bcfg ()) in
  check "empty queue: no event" true (Serve.Batcher.next_expiry_in b ~now:0.0 = None);
  ignore (Serve.Batcher.admit b ~now:0.0 "a");
  check "no deadlines: no expiry event" true
    (Serve.Batcher.next_expiry_in b ~now:0.0 = None);
  ignore (Serve.Batcher.admit b ~now:0.0 ~deadline_ms:8 "b");
  ignore (Serve.Batcher.admit b ~now:0.0 ~deadline_ms:4 "c");
  Alcotest.(check (option (float 1e-9)))
    "the soonest deadline is the next event" (Some 0.004)
    (Serve.Batcher.next_expiry_in b ~now:0.0);
  Alcotest.(check (option (float 1e-9)))
    "events in the past clamp to zero" (Some 0.0)
    (Serve.Batcher.next_expiry_in b ~now:1.0)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Util.Metrics.create () in
  check_int "unbumped counter reads 0" 0 (Util.Metrics.counter m "x");
  Util.Metrics.incr m "x";
  for _ = 1 to 4 do Util.Metrics.incr m "x" done;
  check_int "incr accumulates" 5 (Util.Metrics.counter m "x")

let test_metrics_histogram () =
  let m = Util.Metrics.create () in
  check "empty histogram has no quantile" true
    (Util.Metrics.quantile m "lat" 0.5 = None);
  List.iter (Util.Metrics.observe m "lat") [ 0.001; 0.001; 0.001; 0.1 ];
  check_int "count" 4 (Util.Metrics.hist_count m "lat");
  Alcotest.(check (float 1e-9)) "sum" 0.103 (Util.Metrics.hist_sum m "lat");
  (match Util.Metrics.quantile m "lat" 0.5 with
  | Some q -> check "p50 upper bound is near the mode" true (q >= 0.001 && q < 0.005)
  | None -> Alcotest.fail "p50 missing");
  match Util.Metrics.quantile m "lat" 1.0 with
  | Some q -> check "p100 covers the largest observation" true (q >= 0.1)
  | None -> Alcotest.fail "p100 missing"

let test_metrics_render () =
  let m = Util.Metrics.create () in
  for _ = 1 to 7 do Util.Metrics.incr m "serve_requests_total" done;
  Util.Metrics.observe m "serve_latency_seconds" 0.002;
  let text = Util.Metrics.render m in
  let has needle = Astring_contains.contains text needle in
  check "counter TYPE line" true (has "# TYPE serve_requests_total counter");
  check "counter value" true (has "serve_requests_total 7");
  check "histogram TYPE line" true (has "# TYPE serve_latency_seconds histogram");
  check "cumulative +Inf bucket" true
    (has "serve_latency_seconds_bucket{le=\"+Inf\"} 1");
  check "histogram count" true (has "serve_latency_seconds_count 1");
  let stats = Util.Metrics.stats_line m in
  check "stats line carries counters" true
    (Astring_contains.contains stats "serve_requests_total=7")

(* ------------------------------------------------------------------ *)
(* raise_nest                                                         *)
(* ------------------------------------------------------------------ *)

let test_raise_nest_roundtrip () =
  List.iter
    (fun spec ->
      let op =
        match Op_spec.parse spec with
        | Ok op -> op
        | Error e -> Alcotest.failf "%s: %s" spec e
      in
      let nest = Lower.to_loop_nest op in
      match Lower.raise_nest nest with
      | Error e -> Alcotest.failf "%s: raise failed: %s" spec e
      | Ok op' ->
          check_str
            (spec ^ ": lower(raise(lower(op))) = lower(op)")
            (Ir_printer.to_string nest)
            (Ir_printer.to_string (Lower.to_loop_nest op')))
    [
      "matmul:16x16x16";
      "conv2d:8x8x4,k3,f8,s1";
      "maxpool:8x8x4,k2,s2";
      "add:16x16";
      "relu:32x8";
    ]

let read_nest file =
  let ic = open_in (Filename.concat "../examples/nests" file) in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Ir_parser.parse_result text with
  | Ok nest -> nest
  | Error e -> Alcotest.failf "%s: parse error: %s" file e

let test_raise_nest_examples () =
  List.iter
    (fun file ->
      match Lower.raise_nest (read_nest file) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s should raise cleanly: %s" file e)
    [ "matmul.nest"; "conv2d.nest"; "relu.nest" ];
  List.iter
    (fun file ->
      match Lower.raise_nest (read_nest file) with
      | Ok _ -> Alcotest.failf "%s should be rejected" file
      | Error _ -> ())
    [ "stencil1d.nest"; "skewed2d.nest" ]

(* ------------------------------------------------------------------ *)
(* act_greedy_batch                                                   *)
(* ------------------------------------------------------------------ *)

let test_act_greedy_batch_matches_scalar () =
  let cfg = Env_config.default in
  let policy = Policy.create ~hidden:32 ~backbone_layers:2 (Util.Rng.create 7) cfg in
  let envs =
    Array.map
      (fun op ->
        let env = Env.create cfg in
        let obs = Env.reset env op in
        (env, ref obs, ref true))
      [|
        Linalg.matmul ~m:16 ~n:16 ~k:16 ();
        Linalg.matmul ~m:32 ~n:8 ~k:8 ();
        Linalg.relu [| 16; 16 |];
      |]
  in
  (* Walk the episodes in lockstep (exactly the engine's loop shape),
     comparing the batched argmax row against the singleton call at
     every live state. *)
  let compared = ref 0 in
  for _step = 0 to 3 do
    let live =
      Array.of_list
        (List.filter (fun (_, _, alive) -> !alive) (Array.to_list envs))
    in
    if Array.length live > 0 then begin
      let obs = Array.map (fun (_, o, _) -> !o) live in
      let masks = Array.map (fun (e, _, _) -> Env.masks e) live in
      let batched = Policy.act_greedy_batch policy ~obs ~masks in
      Array.iteri
        (fun i (env, obs_ref, alive) ->
          let single = Policy.act_greedy policy ~obs:!obs_ref ~masks:masks.(i) in
          check "batched row = singleton act_greedy" true (batched.(i) = single);
          incr compared;
          let r = Env.step_hierarchical env batched.(i) in
          obs_ref := r.Env.obs;
          if r.Env.terminal then alive := false)
        live
    end
  done;
  check "compared at least one full batch" true (!compared >= 3)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let mk_engine ?(cache_capacity = 256) ?(measure_delay_s = 0.0) () =
  match
    Serve.Engine.create
      {
        Serve.Engine.default_config with
        Serve.Engine.hidden = 32;
        cache_capacity;
        measure_delay_s;
      }
  with
  | Ok e -> e
  | Error e -> Alcotest.failf "engine create failed: %s" e

let test_engine_resolve () =
  let e = mk_engine () in
  (match Serve.Engine.resolve_target e (Serve.Protocol.Spec "matmul:8x8x8") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "valid spec rejected");
  (match Serve.Engine.resolve_target e (Serve.Protocol.Spec "matmul:8x8") with
  | Error (Serve.Protocol.Parse_error, _) -> ()
  | _ -> Alcotest.fail "bad spec should be Parse_error");
  (match Serve.Engine.resolve_target e (Serve.Protocol.Ir "func nonsense") with
  | Error (Serve.Protocol.Parse_error, _) -> ()
  | _ -> Alcotest.fail "bad IR should be Parse_error");
  (* valid IR that cannot be raised: stencil accumulator *)
  let stencil =
    let ic = open_in "../examples/nests/stencil1d.nest" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  in
  (match Serve.Engine.resolve_target e (Serve.Protocol.Ir stencil) with
  | Error (Serve.Protocol.Unsupported, _) -> ()
  | _ -> Alcotest.fail "stencil IR should be Unsupported");
  (* parses and raises cleanly, but its 8 loops exceed the policy's
     N=7 bound (Op_spec cannot express this; raw IR can) *)
  let deep =
    let b = Buffer.create 256 in
    Buffer.add_string b "func @deep_copy {\n";
    Buffer.add_string b
      (Printf.sprintf "  buffer in0 : [%s]\n"
         (String.concat ", " (List.init 8 (fun _ -> "2"))));
    Buffer.add_string b
      (Printf.sprintf "  buffer out : [%s]\n"
         (String.concat ", " (List.init 8 (fun _ -> "2"))));
    for i = 0 to 7 do
      Buffer.add_string b (Printf.sprintf "  for %%%d = 0 to 2 origin %d {\n" i i)
    done;
    let idx = String.concat ", " (List.init 8 (Printf.sprintf "%%%d")) in
    Buffer.add_string b
      (Printf.sprintf "  store out[%s] = load in0[%s]\n" idx idx);
    for _ = 0 to 7 do
      Buffer.add_string b "  }\n"
    done;
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  match Serve.Engine.resolve_target e (Serve.Protocol.Ir deep) with
  | Error (Serve.Protocol.Unsupported, msg) ->
      check "bound violation names the loop budget" true
        (Astring_contains.contains msg "loops")
  | _ -> Alcotest.fail "8-loop nest should be Unsupported"

(* What [train --save] writes (a backbone-2 policy) loads into an engine
   configured for that depth, weights and all; the default depth-4
   engine rejects it with a typed error. *)
let test_engine_loads_train_checkpoint () =
  let path = Filename.temp_file "engine_bb2" ".params" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let policy =
        Policy.create ~hidden:16 ~backbone_layers:2 (Util.Rng.create 9)
          Env_config.default
      in
      Policy.save policy path;
      let cfg =
        {
          Serve.Engine.default_config with
          Serve.Engine.hidden = 16;
          checkpoint = Some path;
        }
      in
      (match Serve.Engine.create { cfg with Serve.Engine.backbone_layers = 2 } with
      | Ok e ->
          check "serves the saved weights" true
            (Serve.Engine.policy_digest e = Serialize.digest (Policy.params policy));
          Serve.Engine.shutdown e
      | Error e -> Alcotest.failf "backbone-2 checkpoint rejected: %s" e);
      (match Serve.Engine.create cfg with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "depth-4 engine accepted a backbone-2 checkpoint");
      (* a path that exists but is not a readable file is a typed error
         too, not an escaping Sys_error *)
      let dir = Filename.get_temp_dir_name () in
      match Serve.Engine.create { cfg with Serve.Engine.checkpoint = Some dir } with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a directory loaded as a checkpoint")

let test_engine_cache_and_determinism () =
  let e = mk_engine () in
  let op = function
    | Ok op -> op
    | Error _ -> Alcotest.fail "spec"
  in
  let a = op (Op_spec.parse "matmul:16x16x16") in
  let b = op (Op_spec.parse "relu:32x8") in
  (* batch with an internal duplicate *)
  let r1 = Serve.Engine.solve_batch e [| a; b; a |] in
  check_int "no hits on a cold cache" 0 (Serve.Engine.cache_hits e);
  let outcome = function
    | Ok (o : Serve.Engine.outcome) -> (o.Serve.Engine.schedule, o.Serve.Engine.speedup)
    | Error (_, m) -> Alcotest.failf "solve failed: %s" m
  in
  check "duplicate rows in one batch agree" true (outcome r1.(0) = outcome r1.(2));
  (* same ops again: all hits, same answers *)
  let r2 = Serve.Engine.solve_batch e [| a; b |] in
  check "cache hits recorded" true (Serve.Engine.cache_hits e >= 2);
  check "cached answer = computed answer (a)" true (outcome r1.(0) = outcome r2.(0));
  check "cached answer = computed answer (b)" true (outcome r1.(1) = outcome r2.(1));
  (* batch-independence: a fresh engine solving singletons agrees *)
  let e' = mk_engine () in
  let s1 = Serve.Engine.solve_batch e' [| a |] in
  let s2 = Serve.Engine.solve_batch e' [| b |] in
  check "singleton = batched (a)" true (outcome s1.(0) = outcome r1.(0));
  check "singleton = batched (b)" true (outcome s2.(0) = outcome r1.(1));
  check "policy digest is stable across engines" true
    (String.equal (Serve.Engine.policy_digest e) (Serve.Engine.policy_digest e'))

(* ------------------------------------------------------------------ *)
(* Server (in-process, no sockets)                                    *)
(* ------------------------------------------------------------------ *)

let sync_submit server req =
  let m = Mutex.create () in
  let c = Condition.create () in
  let slot = ref None in
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
  Option.get !slot

let mk_server ?(workers = 1) ?(max_queue = 16) ?(max_batch = 4)
    ?measure_delay_s () =
  let engine = mk_engine ?measure_delay_s () in
  ( Serve.Server.create
      ~config:
        { Serve.Server.workers; batcher = { Serve.Batcher.max_queue; max_batch } }
      engine,
    engine )

let optimize ?deadline_ms id spec =
  Serve.Protocol.Optimize
    { id; target = Serve.Protocol.Spec spec; deadline_ms }

(* Reply collector for requests submitted without waiting. *)
let collector () =
  let got = ref [] in
  let m = Mutex.create () in
  let record resp =
    Mutex.lock m;
    got := resp :: !got;
    Mutex.unlock m
  in
  let ok_ids () =
    Mutex.lock m;
    let ids =
      List.filter_map
        (function
          | Serve.Protocol.Ok_reply r -> Some r.Serve.Protocol.r_id | _ -> None)
        !got
    in
    Mutex.unlock m;
    List.sort compare ids
  in
  (record, ok_ids)

let stats_show server s =
  match sync_submit server (Serve.Protocol.Stats { id = "s" }) with
  | Serve.Protocol.Stats_reply { body; _ } -> Astring_contains.contains body s
  | _ -> Alcotest.fail "expected a stats reply"

(* Occupy the single worker of a server whose engine stalls on every
   uncached nest: submit [id], then poll until the dispatcher has handed
   it to the worker and the queue is empty again. Requests submitted
   after this returns queue up behind it for the rest of the stall. *)
let hold_worker server id spec record =
  Serve.Server.submit server (optimize id spec) record;
  let give_up = Unix.gettimeofday () +. 10.0 in
  while not (stats_show server "queue=0 in_flight=1") do
    if Unix.gettimeofday () > give_up then
      Alcotest.fail "the worker never picked up the held request";
    Unix.sleepf 0.001
  done

(* Give the dispatcher time to act on the requests just submitted. With
   its only worker held, it must leave them queued. *)
let check_backlog server ~queued =
  Unix.sleepf 0.02;
  check
    (Printf.sprintf "%d requests wait behind the busy worker" queued)
    true
    (stats_show server (Printf.sprintf "queue=%d in_flight=1" queued))

let test_server_byte_identical_replies () =
  let server, engine = mk_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.drain server)
    (fun () ->
      let req = optimize "r1" "matmul:16x16x16" in
      (* First answer computes; the second must hit the cache. The wire
         lines must be byte-identical — the reply deliberately carries
         no cache marker. *)
      let l1 = Serve.Protocol.encode_response (sync_submit server req) in
      let l2 = Serve.Protocol.encode_response (sync_submit server req) in
      check_str "identical requests get byte-identical reply lines" l1 l2;
      check "second answer came from the cache" true
        (Serve.Engine.cache_hits engine >= 1);
      (match Serve.Protocol.decode_response l1 with
      | Ok (Serve.Protocol.Ok_reply r) ->
          check "reply carries the policy digest" true
            (String.equal r.Serve.Protocol.policy_digest
               (Serve.Engine.policy_digest engine));
          check "reply schedule parses" true
            (Result.is_ok (Schedule.of_string r.Serve.Protocol.schedule))
      | _ -> Alcotest.fail "expected an ok reply"))

let test_server_typed_errors () =
  let server, _ = mk_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.drain server)
    (fun () ->
      (match sync_submit server (optimize "e1" "matmul:oops") with
      | Serve.Protocol.Error_reply { code = Serve.Protocol.Parse_error; _ } -> ()
      | _ -> Alcotest.fail "bad spec should answer parse_error");
      (match sync_submit server (optimize ~deadline_ms:0 "e2" "matmul:8x8x8") with
      | Serve.Protocol.Error_reply { code = Serve.Protocol.Deadline_exceeded; _ }
        -> ()
      | _ -> Alcotest.fail "0ms deadline should answer deadline_exceeded");
      (match sync_submit server (Serve.Protocol.Ping { id = "p" }) with
      | Serve.Protocol.Pong { p_id = "p" } -> ()
      | _ -> Alcotest.fail "ping should pong");
      (match sync_submit server (Serve.Protocol.Stats { id = "s" }) with
      | Serve.Protocol.Stats_reply { body; _ } ->
          check "stats body mentions the queue" true
            (Astring_contains.contains body "queue=")
      | _ -> Alcotest.fail "stats should answer stats");
      match sync_submit server (Serve.Protocol.Metrics { id = "m" }) with
      | Serve.Protocol.Metrics_reply { body; _ } ->
          check "metrics body is a Prometheus dump" true
            (Astring_contains.contains body "# TYPE serve_requests_total")
      | _ -> Alcotest.fail "metrics should answer metrics")

let test_server_sheds_when_full () =
  (* One worker held busy and a 2-deep queue make shedding
     deterministic: two requests wait behind the held one, the next one
     bounces. *)
  let server, _ = mk_server ~max_queue:2 ~measure_delay_s:0.5 () in
  let record, ok_ids = collector () in
  let spec = "matmul:16x16x16" in
  hold_worker server "q1" spec record;
  Serve.Server.submit server (optimize "q2" spec) record;
  Serve.Server.submit server (optimize "q3" spec) record;
  check_backlog server ~queued:2;
  (match sync_submit server (optimize "q4" spec) with
  | Serve.Protocol.Error_reply { e_id = "q4"; code = Serve.Protocol.Overloaded; _ }
    -> ()
  | _ -> Alcotest.fail "a request beyond the full queue should be shed");
  (* drain must serve the held and the queued requests, not drop them *)
  Serve.Server.drain server;
  Alcotest.(check (list string))
    "drain served everything admitted" [ "q1"; "q2"; "q3" ] (ok_ids ())

(* Nothing waits for company, but the backlog that builds behind a busy
   worker leaves as one batch as soon as the worker frees up. *)
let test_server_batches_backlog () =
  let server, _ = mk_server ~max_batch:4 ~measure_delay_s:0.5 () in
  let record, ok_ids = collector () in
  let spec = "matmul:16x16x16" in
  hold_worker server "held" spec record;
  List.iter
    (fun id -> Serve.Server.submit server (optimize id spec) record)
    [ "b1"; "b2"; "b3" ];
  check_backlog server ~queued:3;
  Serve.Server.drain server;
  let m = Serve.Server.metrics server in
  check_int "two batches: the held request, then the backlog" 2
    (Util.Metrics.hist_count m "serve_batch_size");
  Alcotest.(check (float 1e-9))
    "the three queued requests left together" 4.0
    (Util.Metrics.hist_sum m "serve_batch_size");
  Alcotest.(check (list string))
    "every request answered" [ "b1"; "b2"; "b3"; "held" ] (ok_ids ())

let test_server_drain_idempotent () =
  let server, _ = mk_server () in
  ignore (sync_submit server (optimize "r" "matmul:8x8x8"));
  Serve.Server.drain server;
  (* a second drain returns immediately; a concurrent pair both return *)
  Serve.Server.drain server;
  let d1 = Domain.spawn (fun () -> Serve.Server.drain server) in
  let d2 = Domain.spawn (fun () -> Serve.Server.drain server) in
  Domain.join d1;
  Domain.join d2;
  match sync_submit server (optimize "late" "matmul:8x8x8") with
  | Serve.Protocol.Error_reply { code = Serve.Protocol.Shutting_down; _ } -> ()
  | _ -> Alcotest.fail "post-drain optimize should answer shutting_down"

(* The layer counters reach both replies: the evaluator collector the
   server registers, and the check counters on the process-wide
   registry. Those are process-wide, so the test compares deltas. *)
let test_server_reports_layer_counters () =
  let server, _ = mk_server () in
  let was = Verifier.enabled () in
  Verifier.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Verifier.set_enabled was;
      Serve.Server.drain server)
    (fun () ->
      let verify_checks () =
        match sync_submit server (Serve.Protocol.Metrics { id = "m" }) with
        | Serve.Protocol.Metrics_reply { body; _ } -> (
            match
              List.find_map
                (fun line ->
                  match String.split_on_char ' ' line with
                  | [ "verify_checks_total"; v ] -> int_of_string_opt v
                  | _ -> None)
                (String.split_on_char '\n' body)
            with
            | Some v -> v
            | None -> Alcotest.fail "metrics reply lacks verify_checks_total")
        | _ -> Alcotest.fail "metrics should answer metrics"
      in
      let before = verify_checks () in
      (match sync_submit server (optimize "v" "matmul:16x16x16") with
      | Serve.Protocol.Ok_reply _ -> ()
      | _ -> Alcotest.fail "optimize should succeed");
      check "an optimize request raises verify_checks_total" true
        (verify_checks () > before);
      match sync_submit server (Serve.Protocol.Stats { id = "s" }) with
      | Serve.Protocol.Stats_reply { body; _ } ->
          check "stats carry the evaluator cache counters" true
            (Astring_contains.contains body "eval_base_cache_misses_total=");
          check "stats carry the check counters" true
            (Astring_contains.contains body "verify_violations_total=")
      | _ -> Alcotest.fail "stats should answer stats")

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_escape_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decode_never_raises;
    Alcotest.test_case "malformed lines decode to typed errors" `Quick
      test_protocol_malformed;
    Alcotest.test_case "batcher releases a lone item at once" `Quick
      test_batcher_lone_item;
    Alcotest.test_case "batcher caps batch size, keeps FIFO order" `Quick
      test_batcher_caps_batch;
    Alcotest.test_case "batcher sheds when full" `Quick test_batcher_shed_on_full;
    Alcotest.test_case "batcher expires deadlines" `Quick test_batcher_deadlines;
    Alcotest.test_case "batcher next-event computation" `Quick
      test_batcher_next_event;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics histogram quantiles" `Quick
      test_metrics_histogram;
    Alcotest.test_case "metrics Prometheus rendering" `Quick test_metrics_render;
    Alcotest.test_case "raise_nest round-trips structured ops" `Quick
      test_raise_nest_roundtrip;
    Alcotest.test_case "raise_nest on the example nests" `Quick
      test_raise_nest_examples;
    Alcotest.test_case "act_greedy_batch rows = singleton act_greedy" `Quick
      test_act_greedy_batch_matches_scalar;
    Alcotest.test_case "engine target resolution" `Quick test_engine_resolve;
    Alcotest.test_case "engine cache + batch-independent determinism" `Quick
      test_engine_cache_and_determinism;
    Alcotest.test_case "server: identical requests, byte-identical replies"
      `Quick test_server_byte_identical_replies;
    Alcotest.test_case "server: typed error and info replies" `Quick
      test_server_typed_errors;
    Alcotest.test_case "server sheds deterministically when full" `Quick
      test_server_sheds_when_full;
    Alcotest.test_case "server drain is idempotent and concurrent-safe" `Quick
      test_server_drain_idempotent;
    Alcotest.test_case "engine loads a train --save checkpoint" `Quick
      test_engine_loads_train_checkpoint;
    Alcotest.test_case "server batches the backlog behind a busy worker"
      `Quick test_server_batches_backlog;
    Alcotest.test_case "server: layer counters in stats and metrics" `Quick
      test_server_reports_layer_counters;
  ]

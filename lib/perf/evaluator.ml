type cache_stats = {
  base : Util.Sharded_cache.stats;
  state : Util.Sharded_cache.stats option;
  surrogate : Util.Sharded_cache.stats option;
}

type measure_hook = Sched_state.t -> seconds:float -> unit

type t = {
  machine : Machine.t;
  base_cache : (string, float) Util.Sharded_cache.t;
  mutable explored : int;
  noise : float;
  noise_rng : Util.Rng.t;
  (* Emulated hardware-measurement stall per state-seconds call. The
     analytic cost model answers in microseconds, which no real
     deployment does; benches of parallel search scaling would
     otherwise measure this host's core count instead of how well the
     search overlaps measurement latency. Bit-invisible to every
     result: only wall-clock changes. 0 (off) by default. *)
  measure_delay_s : float;
  (* Physical-identity memo for [base_seconds]: a search evaluates
     thousands of candidates of the SAME original op, so the common case
     is the exact same [Linalg.t] value — skip even the digest+lookup.
     A fork starts from its parent's memo (an immutable pair of a pure
     value, safe to read from any domain) and then keeps its own; purely
     a wall-clock optimization. *)
  mutable base_memo : (Linalg.t * float) option;
  (* Measurement tap: called once per state-seconds call with the pure,
     pre-jitter cost-model value — the surrogate's dataset logger
     installs itself here. The hook never sees jitter and never perturbs
     the noise stream, so enabling it is bit-invisible to every
     consumer. *)
  mutable measure_hook : measure_hook option;
  (* A surrogate ranker's stats closure, attached so its counters
     surface through the one {!cache_stats} record (and so
     {!cache_counters}) instead of growing another ad-hoc stats path. A
     closure keeps the ranker's type out of this interface. *)
  mutable surrogate_cache : (unit -> Util.Sharded_cache.stats) option;
}

let timeout_factor = 10.0
let default_cache_capacity = 4096

let create ?(machine = Machine.e5_2680_v4) ?(noise = 0.0) ?(noise_seed = 0)
    ?(cache_capacity = default_cache_capacity) ?(measure_delay_s = 0.0) () =
  {
    machine;
    base_cache = Util.Sharded_cache.create ~capacity:cache_capacity ();
    explored = 0;
    noise;
    noise_rng = Util.Rng.create noise_seed;
    measure_delay_s;
    base_memo = None;
    measure_hook = None;
    surrogate_cache = None;
  }

let fork t =
  (* Same machine and noise sigma, and the same (shared, domain-safe)
     base-time cache — base times are pure, so every fork may reuse
     them. The explored counter and jitter stream are per-fork: each
     parallel episode runs its own decorrelated noise stream and
     reports its explored delta for the trainer to merge. *)
  {
    machine = t.machine;
    base_cache = t.base_cache;
    explored = 0;
    noise = t.noise;
    noise_rng = Util.Rng.create 0;
    measure_delay_s = t.measure_delay_s;
    base_memo = t.base_memo;
    (* Forks inherit the measurement tap (the dataset logger is
       mutex-protected) and the attached surrogate cache. *)
    measure_hook = t.measure_hook;
    surrogate_cache = t.surrogate_cache;
  }

let jitter t seconds =
  if t.noise <= 0.0 then seconds
  else seconds *. exp (t.noise *. Util.Rng.gaussian t.noise_rng)

let machine t = t.machine
let noise t = t.noise

let base_seconds t (op : Linalg.t) =
  match t.base_memo with
  | Some (memo_op, s) when memo_op == op -> s
  | _ ->
      (* Keyed by the canonical digest, not op_name: two ops sharing a
         name but differing in shape must not reuse each other's
         baseline. *)
      let key = Linalg.digest op in
      let s =
        Util.Sharded_cache.find_or_compute t.base_cache key (fun () ->
            let nest = Lower.to_loop_nest op in
            Cost_model.seconds ~machine:t.machine
              ~iter_kinds:op.Linalg.iter_kinds nest)
      in
      t.base_memo <- Some (op, s);
      s

let set_measure_hook t hook = t.measure_hook <- hook
let attach_surrogate_cache t stats = t.surrogate_cache <- Some stats

let state_seconds t (state : Sched_state.t) =
  t.explored <- t.explored + 1;
  (* Differential sanitizer (MLIR_RL_SANITIZE): every measurement path —
     train, autosched, serve — funnels through here, so this one hook
     covers them all. The digest-pair dedup inside sanitize_state keeps
     it to one interpretation per distinct transformed nest per process;
     when disabled the cost is a single atomic load. *)
  if Sanitizer.enabled () then ignore (Differential.sanitize_state state);
  (* The sleep blocks only this domain's OS thread, so concurrent
     pricings stall concurrently — which is exactly the overlap a
     parallel search buys on measurement-bound deployments. *)
  if t.measure_delay_s > 0.0 then Unix.sleepf t.measure_delay_s;
  let s =
    Cost_model.seconds ~machine:t.machine
      ~iter_kinds:state.Sched_state.op.Linalg.iter_kinds
      ~packing_elements:state.Sched_state.packing_elements
      state.Sched_state.nest
  in
  (match t.measure_hook with None -> () | Some hook -> hook state ~seconds:s);
  jitter t s

let measure t state =
  let base = base_seconds t state.Sched_state.original in
  let s = state_seconds t state in
  let cap = timeout_factor *. base in
  if s > cap then `Timeout cap else `Seconds s

let speedup t state =
  let base = base_seconds t state.Sched_state.original in
  match measure t state with
  | `Seconds s -> base /. s
  | `Timeout capped -> base /. capped

let schedule_speedup t op sched =
  Result.map (speedup t) (Sched_state.apply_all op sched)

let explored t = t.explored
let reset_explored t = t.explored <- 0
let set_explored t n = t.explored <- n
let noise_state t = Util.Rng.state t.noise_rng
let set_noise_state t s = Util.Rng.set_state t.noise_rng s

let cache_stats t =
  {
    base = Util.Sharded_cache.stats t.base_cache;
    state = None;
    surrogate = Option.map (fun stats -> stats ()) t.surrogate_cache;
  }

(* One counter per (cache, field), present caches only — the names every
   telemetry registry renders these caches under. *)
let cache_counters stats =
  [ ("base", Some stats.base); ("surrogate", stats.surrogate) ]
  |> List.concat_map (fun (tag, s) ->
         match s with
         | None -> []
         | Some (s : Util.Sharded_cache.stats) ->
             let name f = Printf.sprintf "eval_%s_cache_%s_total" tag f in
             [
               (name "hits", s.Util.Sharded_cache.hits);
               (name "misses", s.Util.Sharded_cache.misses);
               (name "evictions", s.Util.Sharded_cache.evictions);
               (name "contention", s.Util.Sharded_cache.contention);
             ])

(* The staged-search ranker: wraps a trained {!Model} with everything a
   search loop needs to score thousands of candidates per op cheaply —

   - the machine block is computed once at construction;
   - op blocks are memoized per op digest ({!Features.cache});
   - predictions are memoized in a ranker-private table keyed
     "<op id>|<schedule dedup key>" — the cache belongs to one ranker,
     whose machine is fixed, so a small per-ranker op id replaces the
     full digest and machine name. One mutex guards the whole table:
     the batched path locks it once per few thousand candidates, which
     beats per-key shard locking, and the stats it reports plug into
     the evaluator's unified cache stats
     ({!Evaluator.attach_surrogate_cache});
   - the forward pass reuses one [1; dim] input tensor and a workspace,
     so a steady-state score allocates almost nothing.

   Scoring a candidate never applies its transformations: the feature
   vector comes from (cached op block, schedule encoding, machine
   block) alone. That is what buys the staged search its throughput —
   stage 1 skips both [Sched_state.apply] and the cost model, and only
   the top-k survivors pay for the exact path. *)

type t = {
  model : Model.t;
  machine : Machine.t;
  machine_blk : float array;
  op_blocks : Features.cache;
  (* memo state below is guarded by cache_mutex (NOT forward_mutex:
     the single-score path computes under the memo's miss handler and
     must be free to take the forward lock) *)
  cache_mutex : Mutex.t;
  op_ids : (string, string) Hashtbl.t;  (* op digest -> "<n>|" prefix *)
  predictions : (string, float) Hashtbl.t;
  fifo : string Queue.t;  (* insertion order, for capacity eviction *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable lock_waits : int;  (* cache_mutex acquisitions that blocked *)
  (* the reused forward-pass buffers are not domain-safe on their own *)
  forward_mutex : Mutex.t;
  input : Tensor.t;  (* [1; Features.dim], refilled per score *)
  ws : Tensor.Workspace.t;
}

let default_cache_capacity = 65_536

let create ?(cache_capacity = default_cache_capacity) ~machine model =
  {
    model;
    machine;
    machine_blk = Features.machine_block machine;
    op_blocks = Features.create_cache ();
    cache_mutex = Mutex.create ();
    op_ids = Hashtbl.create 64;
    predictions = Hashtbl.create 4096;
    fifo = Queue.create ();
    capacity = max 1 cache_capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock_waits = 0;
    forward_mutex = Mutex.create ();
    input = Tensor.zeros [| 1; Features.dim |];
    ws = Tensor.Workspace.create ();
  }

let of_checkpoint ?cache_capacity ~machine ~path () =
  Result.map (fun m -> create ?cache_capacity ~machine m) (Model.load ~path)

let machine t = t.machine
let model t = t.model

(* Contention-counting acquisition of the memo mutex, mirroring
   Sharded_cache: a blocked acquisition is counted once the lock is
   ours, so the counter needs no synchronization of its own. Under
   parallel search many workers funnel into this single mutex — the
   counter is what shows whether that ever matters. *)
let lock_cache t =
  if Mutex.try_lock t.cache_mutex then ()
  else begin
    Mutex.lock t.cache_mutex;
    t.lock_waits <- t.lock_waits + 1
  end

let cache_stats t : Util.Sharded_cache.stats =
  lock_cache t;
  let s =
    {
      Util.Sharded_cache.hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      contention = t.lock_waits;
      size = Hashtbl.length t.predictions;
      capacity = t.capacity;
      shards = 1;
    }
  in
  Mutex.unlock t.cache_mutex;
  s

let attach t evaluator =
  Evaluator.attach_surrogate_cache evaluator (fun () -> cache_stats t)

(* Callers hold cache_mutex. *)
let memo_add_locked t key v =
  if not (Hashtbl.mem t.predictions key) then begin
    Hashtbl.replace t.predictions key v;
    Queue.push key t.fifo;
    while Hashtbl.length t.predictions > t.capacity do
      let oldest = Queue.pop t.fifo in
      Hashtbl.remove t.predictions oldest;
      t.evictions <- t.evictions + 1
    done
  end

(* One guarded forward over the reused input tensor. Features are raw;
   normalization lives inside the model. *)
let score_features t features =
  Mutex.lock t.forward_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.forward_mutex)
    (fun () ->
      let mean = Model.feature_mean t.model in
      let std = Model.feature_std t.model in
      for i = 0 to Features.dim - 1 do
        Tensor.set t.input i ((features.(i) -. mean.(i)) /. std.(i))
      done;
      (* Reset before each forward so the workspace's two activation
         buffers are recycled — a steady-state score allocates nothing. *)
      Tensor.Workspace.reset t.ws;
      let y = Layers.forward_batch ~ws:t.ws (Model.net t.model) t.input in
      (Tensor.get y 0 *. Model.target_std t.model) +. Model.target_mean t.model)

(* Callers hold cache_mutex. *)
let op_prefix_locked t op =
  let digest = Linalg.digest op in
  match Hashtbl.find_opt t.op_ids digest with
  | Some p -> p
  | None ->
      let p = string_of_int (Hashtbl.length t.op_ids) ^ "|" in
      Hashtbl.add t.op_ids digest p;
      p

(* Predicted log-seconds of [sched] on [op] — no transformation is
   applied. Memoized by (op id | schedule); under a racing miss both
   threads compute and one result wins, which is observationally
   identical because the prediction is pure. *)
let score_schedule t op sched =
  lock_cache t;
  let key = op_prefix_locked t op ^ Schedule.dedup_key sched in
  let cached = Hashtbl.find_opt t.predictions key in
  (match cached with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  Mutex.unlock t.cache_mutex;
  match cached with
  | Some v -> v
  | None ->
      let features =
        Features.assemble ~machine:t.machine_blk
          ~op:(Features.cached_op_block t.op_blocks op)
          ~sched:(Features.schedule_block sched)
      in
      let v = score_features t features in
      lock_cache t;
      memo_add_locked t key v;
      Mutex.unlock t.cache_mutex;
      v

(* Beam search's exact scorer appends vectorization virtually before
   consulting the oracle; mirror that in the encoded schedule so the
   vectors the ranker scores look like the (vectorized) states the
   surrogate was trained on. *)
let virtual_vectorize (state : Sched_state.t) =
  let applied = state.Sched_state.applied in
  if List.mem Schedule.Vectorize applied then applied
  else applied @ [ Schedule.Vectorize ]

let score_state t (state : Sched_state.t) =
  score_schedule t state.Sched_state.original (virtual_vectorize state)

(* Batched stage-1 scoring: the memo cache answers repeats, and ALL
   misses go through one forward — one [m; dim] matmul per layer
   instead of m tiny ones, which is what amortizes the network cost to
   well under the exact path's per-candidate price. The input matrix is
   staged in the same workspace the activations use. The machine and op
   blocks are identical for every row of a batch, so their normalized
   values are computed once; only the schedule block is per-row work. *)
let score_misses t op_blk (misses : (int * Schedule.t) list) out =
  match misses with
  | [] -> ()
  | _ ->
      let m = List.length misses in
      let d = Features.dim in
      let static_dim = Features.machine_dim + Features.op_dim in
      let mean = Model.feature_mean t.model in
      let std = Model.feature_std t.model in
      let t_mean = Model.target_mean t.model in
      let t_std = Model.target_std t.model in
      Mutex.lock t.forward_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.forward_mutex)
        (fun () ->
          Tensor.Workspace.reset t.ws;
          let x = Tensor.Workspace.get t.ws [| m; d |] in
          let static =
            Array.init static_dim (fun col ->
                let v =
                  if col < Features.machine_dim then t.machine_blk.(col)
                  else op_blk.(col - Features.machine_dim)
                in
                (v -. mean.(col)) /. std.(col))
          in
          let inv_std =
            Array.init Features.schedule_dim (fun j ->
                1.0 /. std.(static_dim + j))
          in
          let sb = Array.make Features.schedule_dim 0.0 in
          List.iteri
            (fun row (_, sched) ->
              let base = row * d in
              for col = 0 to static_dim - 1 do
                Tensor.set x (base + col) static.(col)
              done;
              Features.schedule_block_into sb sched;
              for j = 0 to Features.schedule_dim - 1 do
                Tensor.set x
                  (base + static_dim + j)
                  ((sb.(j) -. mean.(static_dim + j)) *. inv_std.(j))
              done)
            misses;
          let y = Layers.forward_batch ~ws:t.ws (Model.net t.model) x in
          List.iteri
            (fun row (i, _) -> out.(i) <- (Tensor.get y row *. t_std) +. t_mean)
            misses)

let score_schedules t op (scheds : Schedule.t array) =
  let n = Array.length scheds in
  let out = Array.make n 0.0 in
  if n > 0 then begin
    let op_blk = Features.cached_op_block t.op_blocks op in
    (* One lock covers the whole lookup scan; keys are built once and
       reused for insertion. *)
    lock_cache t;
    let prefix = op_prefix_locked t op in
    let buf = Buffer.create (String.length prefix + 48) in
    let keys =
      Array.map
        (fun sched ->
          Buffer.clear buf;
          Buffer.add_string buf prefix;
          Schedule.add_dedup_key buf sched;
          Buffer.contents buf)
        scheds
    in
    let misses = ref [] in
    Array.iteri
      (fun i key ->
        match Hashtbl.find_opt t.predictions key with
        | Some v ->
            t.hits <- t.hits + 1;
            out.(i) <- v
        | None ->
            t.misses <- t.misses + 1;
            misses := (i, scheds.(i)) :: !misses)
      keys;
    Mutex.unlock t.cache_mutex;
    let misses = List.rev !misses in
    score_misses t op_blk misses out;
    lock_cache t;
    List.iter
      (fun (i, _) -> memo_add_locked t keys.(i) out.(i))
      misses;
    Mutex.unlock t.cache_mutex
  end;
  out

let score_states t (states : Sched_state.t array) =
  match states with
  | [||] -> [||]
  | _ ->
      let op = states.(0).Sched_state.original in
      score_schedules t op (Array.map virtual_vectorize states)

(* Plain-closure views for the search layers (autosched cannot depend
   on this library, so the staged entry points take these). *)
let schedule_scorer t op : Schedule.t array -> float array =
 fun s -> score_schedules t op s

let state_scorer t : Sched_state.t array -> float array =
 fun sts -> score_states t sts

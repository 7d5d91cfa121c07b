(* The staged-search ranker: wraps a trained {!Model} with everything a
   search loop needs to score thousands of candidates per op cheaply —

   - the machine block is computed once at construction;
   - op blocks are memoized per op digest ({!Features.cache});
   - a batch of candidates runs through one forward, staged in a reused
     workspace, so a steady-state batch allocates little beyond its
     result array.

   Scoring a candidate never applies its transformations: the feature
   vector comes from (cached op block, schedule encoding, machine
   block) alone. That is what buys the staged search its throughput —
   stage 1 skips both [Sched_state.apply] and the cost model, and only
   the top-k survivors pay for the exact path. Predictions are not
   memoized: a search's candidates are distinct schedules, so a memo
   would never answer one, and building its keys costs more than the
   forward pass. *)

type t = {
  model : Model.t;
  machine_blk : float array;
  op_blocks : Features.cache;
  scored : int Atomic.t;  (* candidates the network scored *)
  (* the reused forward-pass buffers are not domain-safe on their own *)
  forward_mutex : Mutex.t;
  input : Tensor.t;  (* [1; Features.dim], refilled per score *)
  ws : Tensor.Workspace.t;
}

let create ~machine model =
  {
    model;
    machine_blk = Features.machine_block machine;
    op_blocks = Features.create_cache ();
    scored = Atomic.make 0;
    forward_mutex = Mutex.create ();
    input = Tensor.zeros [| 1; Features.dim |];
    ws = Tensor.Workspace.create ();
  }

let of_checkpoint ~machine ~path () =
  Result.map (fun m -> create ~machine m) (Model.load ~path)

(* The scored count in the cache-stats shape the evaluator renders
   ({!Evaluator.attach_surrogate_cache}): every candidate is a miss. *)
let cache_stats t : Util.Sharded_cache.stats =
  {
    Util.Sharded_cache.hits = 0;
    misses = Atomic.get t.scored;
    evictions = 0;
    contention = 0;
    size = 0;
    capacity = 0;
    shards = 1;
  }

let attach t evaluator =
  Evaluator.attach_surrogate_cache evaluator (fun () -> cache_stats t)

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

(* Predicted log-seconds of [sched] on [op] — no transformation is
   applied. *)
let score_schedule t op sched =
  Atomic.incr t.scored;
  score_features t
    (Features.assemble ~machine:t.machine_blk
       ~op:(Features.cached_op_block t.op_blocks op)
       ~sched:(Features.schedule_block sched))

(* Batched stage-1 scoring: all candidates go through one forward —
   one matmul per layer instead of m tiny ones, which is what amortizes
   the network cost to well under the exact path's per-candidate price.

   The machine and op blocks lead every row and are identical across a
   batch, so the first layer's work on them is done once. The kernel
   sums a row's nonzero terms in column order from +0.0, so after the
   static columns every row holds the same partial sum: the static
   block's own product with the first-layer weights. That product
   becomes row 0 of a folded weight matrix whose other rows are the
   schedule rows of the weights, and each input row is a 1.0 followed by
   its normalized schedule block. 1.0 times the partial sum, added to
   +0.0, is the partial sum itself (a sum from +0.0 is never -0.0), so
   the folded layer computes the same bits as the full one on a third of
   the columns. *)
let schedule_scorer t op (scheds : Schedule.t array) =
  let m = Array.length scheds in
  let out = Array.make m 0.0 in
  if m > 0 then begin
    let op_blk = Features.cached_op_block t.op_blocks op in
    let static_dim = Features.machine_dim + Features.op_dim in
    let sd = Features.schedule_dim in
    let mean = Model.feature_mean t.model in
    let std = Model.feature_std t.model in
    let t_mean = Model.target_mean t.model in
    let t_std = Model.target_std t.model in
    let first, rest =
      match (Model.net t.model).Layers.layers with
      | first :: rest -> (first, rest)
      | [] -> invalid_arg "Ranker.schedule_scorer: empty network"
    in
    let w = first.Layers.w.Autodiff.Param.data in
    let h = w.Tensor.shape.(1) in
    ignore (Atomic.fetch_and_add t.scored m);
    Mutex.lock t.forward_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.forward_mutex)
      (fun () ->
        Tensor.Workspace.reset t.ws;
        let static = Tensor.Workspace.get t.ws [| 1; Features.dim |] in
        for col = 0 to Features.dim - 1 do
          let v =
            if col < Features.machine_dim then
              (t.machine_blk.(col) -. mean.(col)) /. std.(col)
            else if col < static_dim then
              (op_blk.(col - Features.machine_dim) -. mean.(col)) /. std.(col)
            else 0.0
          in
          Bigarray.Array1.set static.Tensor.data col v
        done;
        let partial =
          Tensor.matmul_into ~dst:(Tensor.Workspace.get t.ws [| 1; h |]) static w
        in
        let folded = Tensor.Workspace.get t.ws [| 1 + sd; h |] in
        Bigarray.Array1.blit partial.Tensor.data
          (Bigarray.Array1.sub folded.Tensor.data 0 h);
        Bigarray.Array1.blit
          (Bigarray.Array1.sub w.Tensor.data (static_dim * h) (sd * h))
          (Bigarray.Array1.sub folded.Tensor.data h (sd * h));
        let inv_std = Array.init sd (fun j -> 1.0 /. std.(static_dim + j)) in
        let x = Tensor.Workspace.get t.ws [| m; 1 + sd |] in
        let cells : Tensor.buf = x.Tensor.data in
        let sb = Array.make sd 0.0 in
        for row = 0 to m - 1 do
          let base = row * (1 + sd) in
          Bigarray.Array1.set cells base 1.0;
          Features.schedule_block_into sb scheds.(row);
          for j = 0 to sd - 1 do
            Bigarray.Array1.set cells (base + 1 + j)
              ((sb.(j) -. mean.(static_dim + j)) *. inv_std.(j))
          done
        done;
        let w' = { first.Layers.w with Autodiff.Param.data = folded } in
        let net = { Layers.layers = { first with Layers.w = w' } :: rest } in
        let y = Layers.forward_batch ~ws:t.ws net x in
        for row = 0 to m - 1 do
          out.(row) <- (Tensor.get y row *. t_std) +. t_mean
        done)
  end;
  out

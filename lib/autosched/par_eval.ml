(* The executor and the fork-and-merge step shared by Auto_scheduler and
   Beam_search, plus their optional ranker stage.

   The determinism contract both searches follow:

   - work is decomposed into tasks whose ENUMERATION is sequential and
     jobs-independent; only evaluation goes through the executor;
   - every task evaluates on its own {!Evaluator.fork} whose jitter
     stream is derived from the parent's noise state and the task's
     index ({!Util.Rng.derive} — pure, so the stream depends on the
     task's position, never on scheduling or worker count);
   - results merge on the caller's domain in task order, and the forks'
     explored counts are summed back into the parent.

   [jobs = 1] runs the same decomposition inline, so any [--jobs N] is
   byte-identical to [--jobs 1], with or without measurement noise. *)

(* [None] runs tasks inline on the calling domain; [Some pool] runs them
   on the pool. *)
type executor = Util.Domain_pool.t option

(* Run [f] with the caller's pool; inline when [jobs = 1] and no pool is
   given; otherwise on a private work-stealing pool of [jobs] workers,
   torn down afterwards. Stealing suits the irregular subtrie tasks: one
   task may enumerate 10x the leaves of another, and a worker stuck on
   it sheds its backlog to idle ones. *)
let with_executor ?pool ~jobs f =
  match pool with
  | Some _ -> f pool
  | None when jobs = 1 -> f None
  | None ->
      let p = Util.Domain_pool.create_stealing ~size:jobs in
      Fun.protect ~finally:(fun () -> Util.Domain_pool.shutdown p) (fun () -> f (Some p))

let map (exec : executor) f xs =
  match exec with
  | None -> Array.map f xs
  | Some pool -> Util.Domain_pool.map_array pool f xs

(* A task-local evaluator whose jitter stream is keyed by [stream] on
   top of [base] (the parent's noise state when the tasks began). *)
let derived_fork evaluator ~base ~stream =
  let fork = Evaluator.fork evaluator in
  Evaluator.set_noise_state fork (Util.Rng.state (Util.Rng.derive base ~stream));
  fork

(* [f fork task] for every task, task [k] on a fork keyed by stream
   [first + k]; results come back in task order, and the forks' explored
   counts are added to the parent's. *)
let map_forked exec evaluator ~first f tasks =
  let base = Int64.to_int (Evaluator.noise_state evaluator) in
  let results =
    map exec
      (fun (k, task) ->
        let fork = derived_fork evaluator ~base ~stream:(first + k) in
        (* let-bound: tuple components evaluate right to left, and the
           counter must be read after [f] has run. *)
        let r = f fork task in
        (r, Evaluator.explored fork))
      (Array.mapi (fun k task -> (k, task)) tasks)
  in
  Evaluator.set_explored evaluator
    (Array.fold_left (fun acc (_, d) -> acc + d) (Evaluator.explored evaluator) results);
  Array.map fst results

(* The optional ranker stage: [rank] predicts log-seconds for every
   candidate in one batched call (lower = faster); candidates come back
   fastest first, ties in input order, so the stage is deterministic. *)
let rank_order ~who rank cands =
  let predictions = rank cands in
  if Array.length predictions <> Array.length cands then
    invalid_arg (who ^ ": ranker size mismatch");
  let scored = Array.mapi (fun i c -> (predictions.(i), i, c)) cands in
  Array.sort
    (fun (a, i, _) (b, j, _) ->
      match compare (a : float) b with 0 -> compare i j | c -> c)
    scored;
  Array.to_list (Array.map (fun (_, _, c) -> c) scored)

(** The multi-action policy network (paper §4.2, Figures 3 and 4).

    A shared backbone (four dense layers, ReLU) feeds per-transformation
    sub-networks: a transformation head over the five choices, a tiling
    head and a parallelization head of shape N x M (a tile-size
    distribution per loop), and an interchange head over the N adjacent
    swaps. A separate value network (four dense layers) estimates
    V(s). Joint log-probabilities are the sum of the transformation
    log-probability and the chosen branch's parameter log-probabilities;
    entropies combine the same way. A branch head therefore runs only
    on the rows that chose its branch, in sampling, greedy decoding and
    the PPO update alike. *)

type sample = {
  s_obs : float array;
  s_action : Action_space.hierarchical;
  s_masks : Action_space.masks;
}
(** What the PPO update needs to re-evaluate a stored step. *)

type t

val create :
  ?hidden:int -> ?backbone_layers:int -> Util.Rng.t -> Env_config.t -> t
(** [hidden] defaults to 512 and [backbone_layers] to 4 (the paper's
    sizes); benches pass smaller values to fit the iteration budget. *)

val params : t -> Autodiff.Param.t list
val param_count : t -> int

val obs_tensor_of_rows : ?ws:Tensor.Workspace.t -> float array array -> Tensor.t
(** Stack observation rows into a \[batch; obs_dim\] matrix, optionally
    in a workspace buffer (shared helper for batched inference paths). *)

val safe_row : bool array -> bool array
(** A mask row that {!Distributions.masked_log_probs} accepts: the row
    itself, or a copy admitting index 0 when the row admits nothing. *)

val act :
  ?temperature:float ->
  Util.Rng.t ->
  t ->
  obs:float array ->
  masks:Action_space.masks ->
  Action_space.hierarchical * float * float
(** Sample an action; returns (action, joint log-probability, value
    estimate). [temperature] (default 1.0) flattens the sampling
    distribution for inference-time exploration; the returned
    log-probability is always the untempered policy's, so training must
    use the default. *)

val act_batch :
  ?temperature:float ->
  Util.Rng.t array ->
  t ->
  obs:float array array ->
  masks:Action_space.masks array ->
  (Action_space.hierarchical * float * float) array
(** Batched, tape-free {!act}: one forward pass for a whole slab of
    concurrently advancing episodes, row [i] sampling from [rngs.(i)]
    only. Bit-equal to calling {!act}'s sampling math per row (every
    kernel on this path is row-independent with identical accumulation
    order), so results do not depend on how episodes are batched —
    the keystone of the [--jobs]-independent determinism contract. *)

val act_greedy :
  t ->
  obs:float array ->
  masks:Action_space.masks ->
  Action_space.hierarchical
(** Deterministic (argmax) action for evaluation-time inference. *)

val act_greedy_batch :
  t ->
  obs:float array array ->
  masks:Action_space.masks array ->
  Action_space.hierarchical array
(** Batched, tape-free {!act_greedy}: the routine behind {!act_batch}
    with an argmax per row in place of the draw, and no value net. Row
    [i]'s action is identical to a singleton {!act_greedy} call on row
    [i] — served schedules therefore do not depend on request batching
    (the serving daemon's determinism contract). *)

val ppo_policy : t -> sample Ppo.policy
(** The {!Ppo} plug: batch re-evaluation of stored samples. *)

val save : t -> string -> unit
(** Persist all weights (see {!Serialize}). *)

val load : t -> string -> (unit, string) result
(** Restore weights into a policy of the same architecture. *)

(** Flat policy over the Simple action space (Figure 8 ablation).

    One categorical head over a fixed menu of pre-combined
    transformations — the constrained baseline the paper compares the
    Hierarchical space against. Built for a fixed loop count, so it is
    used on a single op (as in the paper's ablation on one Matmul). *)

type sample = {
  f_obs : float array;
  f_choice : int;  (** menu index *)
  f_mask : bool array;
}

type t

val create :
  ?hidden:int ->
  ?backbone_layers:int ->
  Util.Rng.t ->
  Env_config.t ->
  n_loops:int ->
  t

val menu : t -> Action_space.simple_item array
val params : t -> Autodiff.Param.t list

val act_batch :
  Util.Rng.t array ->
  t ->
  obs:float array array ->
  masks:bool array array ->
  (int * float * float) array
(** Tape-free sampling, one forward pass for a slab of episodes: row
    [i]'s (menu index, log-probability, value), sampled from [rngs.(i)]
    only — bit-equal to singleton calls, independent of batch
    composition. *)

val ppo_policy : t -> sample Ppo.policy

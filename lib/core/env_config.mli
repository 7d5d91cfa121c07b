(** Environment hyperparameters (paper §5.1.3).

    Defaults: at most N = 7 loops, M = 5 tile-size choices per loop
    (slot 0 means "no tiling"; slots 1..M-1 select the largest divisors
    of the loop's trip count not exceeding [max_tile_size] — the paper
    restricts tile sizes to divisors of the loop bounds), at most D = 4
    array dims, at most L = 3 load access matrices, schedules of at most
    tau = 7 steps. *)

type reward_mode = Immediate | Final

type features = {
  use_loop_info : bool;
  use_access_matrices : bool;
  use_math_counts : bool;
  use_history : bool;
}
(** Which observation blocks carry signal; disabled blocks are zeroed
    (lengths are unchanged so network shapes stay fixed). Used by the
    feature-ablation bench — the paper (§6.1) discusses representation
    choices but does not ablate them. *)

type t = {
  n_max : int;  (** N: max loops *)
  n_tile_slots : int;  (** M: tile-size choices per loop, incl. slot 0 *)
  max_tile_size : int;
  (** largest tile size a slot may select; the RL menu goes beyond the
      baseline auto-scheduler's 64 cap (§5.2.1 credits RL wins to larger
      tiles) *)
  d_max : int;  (** D: max array dims in access matrices *)
  l_max : int;  (** L: max load access matrices *)
  tau : int;  (** max schedule length *)
  reward_mode : reward_mode;
  timeout_penalty : float;  (** reward when a measurement times out *)
  compile_seconds : float;
  (** simulated cost of one compile+measure round, used to reproduce the
      paper's wall-clock comparison of Immediate vs Final reward *)
  machine : Machine.t;
  features : features;
  static_legality : bool;
      (** intersect the paper's syntactic action masks (§3.1.1) with the
          sound verdicts of the static dependence analysis
          ({!Legality}); on by default *)
}

val all_features : features

val default : t
(** N=7, M=5, max tile 128, D=4, L=3, tau=7, Final reward, penalty -5,
    on the paper's Xeon, static legality masking on. *)

val with_reward_mode : reward_mode -> t -> t
val with_static_legality : bool -> t -> t

val n_tile_choices : t -> int
(** M. *)

val obs_dim : t -> int
(** Flattened observation length: N + L*D*(N+1) + D*(N+1) + 6 + N*3*tau
    (Table 1). *)

val n_transformations : int
(** The five transformation choices of the hierarchical space. *)

val validate : t -> (unit, string) result

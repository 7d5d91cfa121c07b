(** The learned latency predictor: a deterministic seeded MLP regressor
    on log-seconds over {!Features} vectors, trained on {!Dataset_log}
    entries with the existing nn stack.

    Inputs and target are standardized with statistics computed on the
    training split and stored alongside the weights, so a loaded
    checkpoint predicts identically to the model that was saved.
    Training is seeded end to end: the same log, seed and
    hyperparameters produce bit-identical weights. *)

type t

val default_hidden : int list
(** [\[24; 12\]] — sized so a batched stage-1 forward stays several
    times cheaper per candidate than the exact path. *)

val create : ?hidden:int list -> seed:int -> unit -> t
(** Fresh Xavier-initialized model for {!Features.dim}-wide inputs. *)

val params : t -> Autodiff.Param.t list

val net : t -> Layers.mlp
(** The underlying MLP, for callers running their own forward passes
    (the ranker's workspace-backed scoring loop). *)

val feature_mean : t -> float array
val feature_std : t -> float array
val target_mean : t -> float
val target_std : t -> float
(** Stored standardization statistics (see {!fit}). *)

val is_val : Dataset_log.entry -> bool
(** Deterministic ~20% validation membership by (digest | machine)
    hash — stable across runs and as the log grows. *)

val split : Dataset_log.entry array -> Dataset_log.entry array * Dataset_log.entry array
(** [(train, validation)] partition by {!is_val}. *)

type report = {
  examples : int;
  train_examples : int;
  val_examples : int;
  epochs_run : int;
  train_losses : float array;  (** normalized MSE after each epoch *)
  val_losses : float array;  (** normalized val MSE after each epoch *)
  initial_val_loss : float;  (** before the first update *)
  spearman : float;  (** rank correlation on the val split *)
}

val fit :
  ?epochs:int ->
  ?batch_size:int ->
  ?learning_rate:float ->
  ?seed:int ->
  t ->
  Dataset_log.entry array ->
  report
(** Adam on standardized log-seconds MSE (shuffled minibatches,
    gradient-norm clipping at 5.0). Computes and stores the
    normalization statistics from the training split; a feature whose
    training std is below 1e-6 gets std 1. Raises
    [Invalid_argument] on fewer than 4 examples. *)

val eval_loss : t -> Dataset_log.entry array -> float
(** Normalized MSE of the current model on the given entries. *)

val spearman : t -> Dataset_log.entry array -> float
(** Spearman rank correlation between predictions and measured
    log-seconds; 0.0 for fewer than 2 entries. *)

val predict : t -> float array -> float
(** Predicted log-seconds for one raw (unnormalized) feature vector. *)

val predict_batch : ?ws:Tensor.Workspace.t -> t -> float array array -> float array
(** One batched forward over many feature vectors. With [?ws] the
    activations are drawn from the workspace — steady state allocates
    only the result array. Bit-identical to mapping {!predict}. *)

val save : t -> path:string -> unit
(** Write a single versioned checkpoint file atomically (hex floats:
    weights and normalization round-trip exactly). *)

val load : path:string -> (t, string) result
(** Parse a checkpoint written by {!save}. Errors on a missing file,
    version/feature-dim mismatch with this build, or any malformed or
    truncated record. *)

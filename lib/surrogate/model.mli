(** The learned latency predictor: a deterministic seeded MLP regressor
    on log-seconds over {!Features} vectors, trained on {!Dataset_log}
    entries with the existing nn stack.

    Inputs and target are standardized with statistics computed on the
    training split and stored alongside the weights, so a loaded
    checkpoint predicts identically to the model that was saved.
    Training is seeded end to end: the same log, seed and
    hyperparameters produce bit-identical weights. *)

type t

val create : ?hidden:int list -> seed:int -> unit -> t
(** Fresh Xavier-initialized model for {!Features.dim}-wide inputs. *)

val net : t -> Layers.mlp
(** The underlying MLP, for callers running their own forward passes
    (the ranker's workspace-backed scoring loop). *)

val feature_mean : t -> float array
val feature_std : t -> float array
val target_mean : t -> float
val target_std : t -> float
(** Stored standardization statistics (see {!fit}). *)

val split : Dataset_log.entry array -> Dataset_log.entry array * Dataset_log.entry array
(** [(train, validation)] partition: an entry is in validation (about
    20%) by its (digest | machine) hash, so membership is stable across
    runs and as the log grows. *)

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

val save : t -> path:string -> unit
(** Write one sealed [surrogate-ckpt v2 dim=<Features.dim>] file
    atomically: the hidden widths, then the normalization statistics
    and the weights as {!Serialize} records (hex floats, so they
    round-trip exactly). *)

val load : path:string -> (t, string) result
(** Load a checkpoint written by {!save}. Errors on a missing,
    truncated or corrupted file, another version or feature width, a
    hidden width that is not a positive integer, or a record that does
    not fit. *)

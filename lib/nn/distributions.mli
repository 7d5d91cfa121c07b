(** Masked categorical distributions over network logits.

    The policy's heads produce logits; invalid actions are excluded by
    adding a large negative constant before the softmax (the paper's
    action mask, §3.1.1). Sampling is performed on values (outside the
    graph); log-probabilities and entropies are differentiable nodes. *)

val masked_log_probs :
  Autodiff.Tape.t -> Autodiff.node -> mask:bool array array -> Autodiff.node
(** [masked_log_probs tape logits ~mask] for logits of shape
    \[batch; k\]: row-wise log-softmax with [mask.(i).(j) = false]
    entries pushed to ~-inf. Each mask row must allow at least one
    action. *)

val masked_log_probs_values :
  ?ws:Tensor.Workspace.t -> Tensor.t -> mask:bool array array -> Tensor.t
(** Tape-free twin of {!masked_log_probs} for batched inference: same
    validation, same penalty, same max-shift log-softmax numerics, but
    on raw tensors with no gradient recording. Row [i] depends only on
    logits row [i] and mask row [i]. With [?ws] the result lives in the
    workspace (valid until its next [reset]). *)

val sample : Util.Rng.t -> Tensor.t -> int -> int
(** [sample rng log_probs row] draws an index from the categorical
    distribution of the given row of a \[batch; k\] log-probability
    tensor. *)

val sample_tempered :
  Util.Rng.t -> Tensor.t -> int -> temperature:float -> int
(** Like {!sample} but with log-probabilities divided by [temperature]
    before renormalizing: T > 1 flattens the distribution (inference-time
    exploration), T < 1 sharpens it, T -> 0 approaches {!argmax}. Masked
    entries stay negligible for any reasonable T. *)

val argmax : Tensor.t -> int -> int
(** Greedy choice for evaluation-time inference. *)

val log_prob_of : Autodiff.Tape.t -> Autodiff.node -> int array -> Autodiff.node
(** [log_prob_of tape log_probs actions] gathers the chosen actions'
    log-probabilities: shape \[batch\]. *)

val entropy : Autodiff.Tape.t -> Autodiff.node -> Autodiff.node
(** Row-wise entropy of a log-probability node: shape \[batch\]. Masked
    entries contribute ~0. *)

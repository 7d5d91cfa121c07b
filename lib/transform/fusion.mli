(** Producer-consumer fusion of structured ops (paper §6.1 future work).

    Fuses an elementwise producer into any consumer that reads its
    output: the consumer's load of the intermediate buffer is replaced
    by the producer's body, with the producer's operand maps composed
    through the consumer's access map. This eliminates the intermediate
    buffer entirely — the classic bias-add + ReLU or residual-add
    fusion — and the performance model rewards it automatically (one
    pass over memory instead of two).

    Restrictions (checked): the producer must be a pure elementwise map
    (all-parallel iteration, no accumulator, identity output map), and
    the designated consumer input must have the producer's output
    shape. Reductions in the {e consumer} are fine (e.g. fusing a
    scaling into a matmul operand). *)

val fuse :
  producer:Linalg.t ->
  consumer:Linalg.t ->
  consumer_input:int ->
  (Linalg.t, string) result
(** [fuse ~producer ~consumer ~consumer_input] builds the fused op. Its
    inputs are the producer's inputs (renamed with a ["p_"] prefix to
    avoid collisions) followed by the consumer's remaining inputs, so
    fusing into slot 0 keeps a chained value at input 0. Schedules apply to the fused op like to any other. *)

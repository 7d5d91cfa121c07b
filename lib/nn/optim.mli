(** The Adam optimizer. *)

type t
(** Optimizer state bound to a fixed parameter list. *)

val adam : lr:float -> Autodiff.Param.t list -> t
(** Adam with bias correction (Kingma & Ba), at their defaults: beta1
    0.9, beta2 0.999, eps 1e-8. *)

val step : ?max_grad_norm:float -> t -> float
(** Apply one update from the parameters' accumulated gradients and
    return their global L2 norm before clipping. With
    [~max_grad_norm], a norm above it first scales every gradient by
    [max_grad_norm /. norm]. The step leaves every gradient at +0.0,
    ready for the next {!Autodiff.backward}. One read pass for the
    norm and one sweep for the update; the bytes equal zeroing,
    backward, clipping and stepping as separate passes. *)

val zero_grad : t -> unit
(** Set every gradient to +0.0. Only needed when something other than
    {!step} last wrote the gradients. *)

val write_state : out_channel -> t -> unit
(** Write the optimizer state (the step counter, then the Adam first and
    second moments per parameter) as {!Serialize} records: the Adam
    section of a training checkpoint. *)

val read_state : (unit -> string option) -> t -> (unit, string) result
(** Read a section written by {!write_state} (see {!Serialize.read})
    into an optimizer built over the same parameter list (names and
    shapes are validated). A step counter that is not a finite,
    non-negative integer is an [Error]. *)

(** Network building blocks: linear layers and MLP stacks. *)

type linear = {
  w : Autodiff.Param.t;  (** \[in_dim; out_dim\] *)
  b : Autodiff.Param.t;  (** \[out_dim\] *)
}

type mlp = { layers : linear list }
(** Dense layers with ReLU between them (none after the last). *)

val mlp : Util.Rng.t -> dims:int list -> string -> mlp
(** [mlp rng ~dims:\[in; h1; ...; out\] name] builds len-1 linear layers. *)

val forward_mlp : Autodiff.Tape.t -> mlp -> Autodiff.node -> Autodiff.node

val forward_batch : ?ws:Tensor.Workspace.t -> mlp -> Tensor.t -> Tensor.t
(** Tape-free MLP forward for inference. Produces bit-identical values
    to {!forward_mlp} (same kernels, same accumulation order), and each
    output row depends only on the same input row — so one call on a
    stacked \[batch; in_dim\] matrix equals [batch] single-row calls.
    With [?ws], activations live in the workspace — including the
    returned tensor: copy it out if it must outlive the next [reset]. *)

val mlp_params : mlp -> Autodiff.Param.t list
val param_count : Autodiff.Param.t list -> int

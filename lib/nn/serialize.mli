(** Saving and restoring network parameters.

    Plain-text records: a count line, then per parameter a
    [name rank dims] line and a line of [%h] hex floats (so values
    round-trip bit-exactly). They make the weights file, the sections of
    a training checkpoint, the surrogate checkpoint and the serve policy
    digest. Reading writes into an {e existing} parameter list (e.g. a
    freshly constructed policy of the same architecture) and validates
    count, names and shapes, so an architecture mismatch is reported
    instead of silently mis-assigning weights. *)

val write : out_channel -> Autodiff.Param.t list -> unit
(** [write oc params] writes the records of [params] to [oc]. *)

val read :
  (unit -> string option) -> Autodiff.Param.t list -> (unit, string) result
(** [read next params] reads records into [params] in place, one line
    per call of [next] ([None] past the end). On [Error], [params] may
    be partly overwritten. *)

val digest : Autodiff.Param.t list -> string
(** Hex MD5 of the bytes {!write} would write, computed in memory. *)

val save_params : string -> Autodiff.Param.t list -> unit
(** [save_params path params] writes the records as a sealed
    [mlir-rl-params v2] file ({!Util.Atomic_file.write_sealed}), so
    concurrent saves to one path leave one complete file. Raises
    [Sys_error] on IO failure. *)

val load_params : string -> Autodiff.Param.t list -> (unit, string) result
(** [load_params path params] restores values in place. Errors on a
    missing, truncated or corrupted file, another header, or a count,
    name or shape mismatch. *)

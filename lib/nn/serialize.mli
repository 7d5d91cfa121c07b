(** Saving and restoring network parameters.

    A plain-text, versioned format: one record per parameter with its
    name, shape and values. Loading writes into an {e existing}
    parameter list (e.g. a freshly constructed policy of the same
    architecture) and validates names and shapes, so an architecture
    mismatch is reported instead of silently mis-assigning weights. *)

val save_params : string -> Autodiff.Param.t list -> unit
(** [save_params path params] writes all parameters to [path]
    atomically ({!Util.Atomic_file.with_out}: a uniquely named temporary
    file, removed if the write fails), so concurrent saves to one path
    leave one complete file. Raises [Sys_error] on IO failure. *)

val load_params : string -> Autodiff.Param.t list -> (unit, string) result
(** [load_params path params] restores values in place. Errors on
    missing file, version/name/shape mismatch, or malformed data. *)

(** Lint pass over {!Loop_nest.t}: structural failures (anything
    {!Loop_nest.validate} rejects) come back as [Error]; suspicious but
    executable shapes — dead buffers, dead stores, uninitialized
    read-modify-write, redundant inits, trip-count-1 loops, non-uniform
    store/load aliasing — come back as [Warning] or [Info].

    Invariant (tested): [has_error (run nest)] iff
    [Loop_nest.validate nest] is [Error _]. *)

type severity = Error | Warning | Info
type diagnostic = { severity : severity; loc : string; message : string }

val severity_label : severity -> string
val pp_diagnostic : Format.formatter -> diagnostic -> unit
val has_error : diagnostic list -> bool
val run : Loop_nest.t -> diagnostic list

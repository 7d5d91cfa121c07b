(** Differential sanitizer wiring for schedule states.

    Bridges the generic {!Sanitizer} (which compares two loop nests) to
    {!Sched_state}: picks the reference nest (the original op's
    canonical lowering), shares one set of seeded inputs between the
    two sides, and handles the im2col case where the candidate GEMM
    consumes a packed column matrix built with {!Im2col.pack_input}
    from the reference's image input. *)

val sanitize_state : Sched_state.t -> Sanitizer.outcome option
(** Differentially execute the state's nest against its original op.
    [None] when there is nothing to check (no transformations applied
    yet) or the (original, transformed) digest pair was already
    sanitized this process ({!Sanitizer.fresh_pair}). Mismatches are
    counted in [sanitize_violations_total] and logged to stderr;
    nothing is raised. The caller is responsible for consulting
    {!Sanitizer.enabled}. *)

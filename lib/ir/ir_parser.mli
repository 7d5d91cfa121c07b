(** Parser for the loop-nest concrete syntax produced by {!Ir_printer}.

    A hand-written lexer and recursive-descent parser; {!parse_result} is
    a left inverse of {!Ir_printer.to_string} (round-trip property tested
    in the suite). *)

val parse_result : string -> (Loop_nest.t, string) result
(** Parse one [func] definition; the returned nest is validated
    structurally. Malformed input gives [Error] with a message naming
    what was expected. *)

(** Textual concrete syntax for loop nests.

    An MLIR-flavored, round-trippable format (see {!Ir_parser.parse_result}):

    {v
    func @matmul_4x4x8 {
      buffer A : [4, 8]
      buffer C : [4, 4] init 0.0
      for %0 = 0 to 4 origin 0 {
        parallel %1 = 0 to 4 origin 1 {
          vector %2 = 0 to 8 origin 2 {
            store C[%0, %1] = add(load C[%0, %1],
                                  mul(load A[%0, %2], load B[%2, %1]))
          }
        }
      }
    }
    v} *)

val to_string : Loop_nest.t -> string
(** Print a nest in the concrete syntax above. *)

(* Differential sanitizer wiring for schedule states.

   The generic nest-vs-nest machinery lives in Sanitizer (lib/analysis,
   which cannot see transforms); this module knows about Sched_state —
   in particular that an im2col'd state executes over a packed column
   matrix instead of the original image, so the candidate's inputs must
   be derived from the reference's via Im2col.pack_input before the two
   outputs are comparable (the GEMM output is the conv output
   reshaped). Hooked into Evaluator.state_seconds: that is the one
   measurement path train, autosched and serve all share. *)

let sanitize_state (state : Sched_state.t) =
  if state.Sched_state.history = [] then None
  else begin
    let reference = Lower.to_loop_nest state.Sched_state.original in
    let ref_digest = Loop_nest.digest reference in
    let cand_digest = Sched_state.digest state in
    if not (Sanitizer.fresh_pair ~reference:ref_digest ~candidate:cand_digest)
    then None
    else begin
      let ref_inputs = Sanitizer.seeded_inputs reference in
      let outcome =
        if state.Sched_state.packing_elements = 0 then
          Sanitizer.run_pair ~reference ~ref_inputs
            ~candidate:state.Sched_state.nest ~cand_inputs:ref_inputs
        else
          match
            ( state.Sched_state.original.Linalg.kind,
              List.assoc_opt "input" ref_inputs,
              List.assoc_opt "filter" ref_inputs )
          with
          | Linalg.Conv2d p, Some image, Some filter ->
              let packed = Im2col.pack_input p image in
              Sanitizer.run_pair ~reference ~ref_inputs
                ~candidate:state.Sched_state.nest
                ~cand_inputs:[ ("A", packed); ("B", filter) ]
          | _ -> Sanitizer.skip "packed state is not an NHWC convolution"
      in
      (match outcome with
      | Sanitizer.Mismatch msg ->
          Printf.eprintf
            "[sanitize] differential violation on %s (schedule %s): %s\n%!"
            state.Sched_state.original.Linalg.op_name
            (Schedule.to_string (Sched_state.applied state))
            msg
      | _ -> ());
      Some outcome
    end
  end

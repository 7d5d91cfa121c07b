(* Diagnostics pass over a loop nest: structural problems (validation
   failures) surface as errors; suspicious-but-legal shapes surface as
   warnings or notes. CI's @lint-examples alias fails on any Error. *)

type severity = Error | Warning | Info
type diagnostic = { severity : severity; loc : string; message : string }

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_diagnostic ppf d =
  Format.fprintf ppf "%s: %s: %s" (severity_label d.severity) d.loc d.message

let has_error ds = List.exists (fun d -> d.severity = Error) ds

let diag severity loc fmt =
  Format.kasprintf (fun message -> { severity; loc; message }) fmt

let run (nest : Loop_nest.t) =
  let out = ref [] in
  let emit d = out := d :: !out in
  let name = nest.Loop_nest.name in
  (* 1. Structural validity; a failing nest lints as an error so that
     [validate] and the linter always agree on hard problems. *)
  (match Loop_nest.validate nest with
  | Ok () -> ()
  | Error msg -> emit (diag Error name "%s" msg));
  (* 1b. Every out-of-bounds access, individually. [validate] reports
     only the first problem it meets; the interval analysis visits all
     references, so a broken tile/pad shows each offending access. The
     two use identical corner arithmetic, so these errors appear only
     when validate already failed above — the has_error-iff-validate
     invariant is preserved. *)
  let bounds = Bounds.analyze nest in
  List.iter
    (fun (v : Bounds.violation) ->
      emit
        (diag Error
           (name ^ "/" ^ v.Bounds.v_buf)
           "out-of-bounds access: %s" (Bounds.violation_to_string v)))
    bounds.Bounds.violations;
  let loads = Loop_nest.loads_of_body nest in
  let stores = Loop_nest.stores_of_body nest in
  let loaded b = List.exists (fun (r : Loop_nest.mem_ref) -> r.Loop_nest.buf = b) loads in
  let stored b = List.exists (fun (r : Loop_nest.mem_ref) -> r.Loop_nest.buf = b) stores in
  let output_buf =
    match List.rev stores with
    | [] -> None
    | r :: _ -> Some r.Loop_nest.buf
  in
  List.iter
    (fun (b, _) ->
      let loc = name ^ "/" ^ b in
      if (not (loaded b)) && not (stored b) then
        emit (diag Warning loc "dead buffer: declared but never accessed")
      else if stored b && (not (loaded b)) && Some b <> output_buf then
        emit
          (diag Warning loc
             "dead store: written but never read, and not the nest output");
      if stored b && loaded b && not (List.mem_assoc b nest.Loop_nest.inits)
      then
        emit
          (diag Warning loc
             "read-modify-write without an init: reads are undefined unless \
              the buffer is supplied as an input");
      if List.mem_assoc b nest.Loop_nest.inits && not (loaded b) then
        emit
          (diag Info loc
             "redundant init: the buffer is never read, so the init value \
              cannot influence the computation"))
    nest.Loop_nest.buffers;
  Array.iteri
    (fun i (l : Loop_nest.loop) ->
      if l.Loop_nest.ub = 1 then
        emit
          (diag Info
             (Printf.sprintf "%s/loop %d" name i)
             "trip-count-1 loop: a degenerate dimension that transformations \
              cannot exploit"))
    nest.Loop_nest.loops;
  (* Stores aliasing loads non-uniformly: same buffer, but the subscript
     coefficient patterns differ in some dimension, so the dependence
     between them is coupled rather than a constant shift. *)
  let non_uniform (s : Loop_nest.mem_ref) (l : Loop_nest.mem_ref) =
    s.Loop_nest.buf = l.Loop_nest.buf
    && Array.length s.Loop_nest.idx = Array.length l.Loop_nest.idx
    && Array.exists2
         (fun (a : Affine.expr) (b : Affine.expr) ->
           a.Affine.coeffs <> b.Affine.coeffs)
         s.Loop_nest.idx l.Loop_nest.idx
  in
  List.iter
    (fun (s : Loop_nest.mem_ref) ->
      if List.exists (fun l -> non_uniform s l) loads then
        emit
          (diag Info
             (name ^ "/" ^ s.Loop_nest.buf)
             "store aliases a load of the same buffer with a different \
              subscript pattern: the dependence is coupled, so the analysis \
              is likely conservative here"))
    stores;
  (* Loop indices that no subscript reads, and stores they shadow. A
     multi-trip loop whose index appears in no access repeats identical
     work; a store whose subscript ignores such a varying loop is
     overwritten by every later iteration — unless the statement also
     loads the stored cell (a reduction accumulator, which is the
     legitimate shape of exactly this pattern). *)
  let uses_index (r : Loop_nest.mem_ref) i =
    Array.exists
      (fun (e : Affine.expr) ->
        i < Array.length e.Affine.coeffs && e.Affine.coeffs.(i) <> 0)
      r.Loop_nest.idx
  in
  let accumulator (Loop_nest.Store (r, rhs)) =
    List.exists
      (fun (l : Loop_nest.mem_ref) ->
        l.Loop_nest.buf = r.Loop_nest.buf
        && Array.length l.Loop_nest.idx = Array.length r.Loop_nest.idx
        && Array.for_all2 Affine.equal_expr l.Loop_nest.idx r.Loop_nest.idx)
      (List.rev (Loop_nest.refs_of_sexpr [] rhs))
  in
  Array.iteri
    (fun i (l : Loop_nest.loop) ->
      if l.Loop_nest.ub > 1 then begin
        let used_anywhere =
          List.exists (fun r -> uses_index r i) (stores @ loads)
        in
        if not used_anywhere then
          emit
            (diag Warning
               (Printf.sprintf "%s/loop %d" name i)
               "unused loop index: no access reads it, so all %d iterations \
                repeat identical work"
               l.Loop_nest.ub)
        else
          List.iter
            (fun (Loop_nest.Store (r, _) as st) ->
              if (not (uses_index r i)) && not (accumulator st) then
                emit
                  (diag Warning
                     (name ^ "/" ^ r.Loop_nest.buf)
                     "shadowed store: the subscript ignores loop %d, so each \
                      of its %d iterations overwrites the previous one's \
                      result without reading it"
                     i l.Loop_nest.ub))
            nest.Loop_nest.body
      end)
    nest.Loop_nest.loops;
  List.rev !out

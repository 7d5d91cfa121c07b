type interval = { lo : int; hi : int }

(* Exact min/max of an affine expression over the box domain: a linear
   function over a product of intervals attains its extrema at the
   corners selected per coefficient sign. Identical arithmetic to
   Loop_nest.validate, so the two can never disagree about whether an
   access is in range. *)
let expr_interval ?vary ~trip_counts (e : Affine.expr) =
  let n = Array.length trip_counts in
  if Array.length e.Affine.coeffs <> n then
    invalid_arg "Bounds.expr_interval: arity mismatch";
  (match vary with
  | Some v when Array.length v <> n ->
      invalid_arg "Bounds.expr_interval: vary mask arity mismatch"
  | _ -> ());
  let varies i = match vary with None -> true | Some v -> v.(i) in
  let lo = ref e.Affine.const and hi = ref e.Affine.const in
  Array.iteri
    (fun i c ->
      if varies i then begin
        let extent = trip_counts.(i) - 1 in
        if c > 0 then hi := !hi + (c * extent) else lo := !lo + (c * extent)
      end)
    e.Affine.coeffs;
  { lo = !lo; hi = !hi }

type violation = {
  v_buf : string;
  v_dim : int;
  v_range : interval;
  v_extent : int;
  v_is_store : bool;
}

type report = {
  checked : int;
  violations : violation list;
  structural : string list;
}

let pp_violation ppf v =
  Format.fprintf ppf
    "%s of buffer %s dim %d: subscript range [%d, %d] out of [0, %d)"
    (if v.v_is_store then "store" else "load")
    v.v_buf v.v_dim v.v_range.lo v.v_range.hi v.v_extent

let violation_to_string v = Format.asprintf "%a" pp_violation v

let analyze (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  let trip_counts = Loop_nest.trip_counts nest in
  let checked = ref 0 in
  let violations = ref [] in
  let structural = ref [] in
  let bad fmt = Format.kasprintf (fun s -> structural := s :: !structural) fmt in
  let check_ref is_store (r : Loop_nest.mem_ref) =
    incr checked;
    match List.assoc_opt r.Loop_nest.buf nest.Loop_nest.buffers with
    | None -> bad "undeclared buffer %s" r.Loop_nest.buf
    | Some shape ->
        if Array.length r.Loop_nest.idx <> Array.length shape then
          bad "buffer %s: rank %d, subscript rank %d" r.Loop_nest.buf
            (Array.length shape)
            (Array.length r.Loop_nest.idx)
        else
          Array.iteri
            (fun d (e : Affine.expr) ->
              if Array.length e.Affine.coeffs <> n then
                bad "buffer %s dim %d: subscript arity %d, expected %d"
                  r.Loop_nest.buf d
                  (Array.length e.Affine.coeffs)
                  n
              else
                let range = expr_interval ~trip_counts e in
                if range.hi >= shape.(d) || range.lo < 0 then
                  violations :=
                    {
                      v_buf = r.Loop_nest.buf;
                      v_dim = d;
                      v_range = range;
                      v_extent = shape.(d);
                      v_is_store = is_store;
                    }
                    :: !violations)
            r.Loop_nest.idx
  in
  List.iter (check_ref true) (Loop_nest.stores_of_body nest);
  List.iter (check_ref false) (Loop_nest.loads_of_body nest);
  {
    checked = !checked;
    violations = List.rev !violations;
    structural = List.rev !structural;
  }

let check nest =
  let r = analyze nest in
  match (r.structural, r.violations) with
  | [], [] -> Ok ()
  | s :: _, _ -> Error s
  | [], v :: _ -> Error (violation_to_string v)

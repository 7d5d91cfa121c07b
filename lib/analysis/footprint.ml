type buffer_footprint = { fb_buf : string; fb_elements : int }

type level = {
  depth : int;
  per_buffer : buffer_footprint list;
  elements : int;
}

type t = { n_loops : int; levels : level array }

(* References that resolve against the buffer declarations (declared
   buffer, matching ranks and arity). Anything else is a validation
   problem that Bounds / Nest_lint reports; the footprint just skips
   it. Structurally identical references (same buffer, same subscript
   expressions) are collapsed so e.g. the load and store of an
   accumulator count its cell once. *)
let resolved_refs (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  let ok (r : Loop_nest.mem_ref) =
    match List.assoc_opt r.Loop_nest.buf nest.Loop_nest.buffers with
    | None -> false
    | Some shape ->
        Array.length r.Loop_nest.idx = Array.length shape
        && Array.for_all
             (fun (e : Affine.expr) -> Array.length e.Affine.coeffs = n)
             r.Loop_nest.idx
  in
  let same (a : Loop_nest.mem_ref) (b : Loop_nest.mem_ref) =
    a.Loop_nest.buf = b.Loop_nest.buf
    && Array.length a.Loop_nest.idx = Array.length b.Loop_nest.idx
    && Array.for_all2 Affine.equal_expr a.Loop_nest.idx b.Loop_nest.idx
  in
  List.fold_left
    (fun acc r ->
      if ok r && not (List.exists (same r) acc) then r :: acc else acc)
    []
    (Loop_nest.stores_of_body nest @ Loop_nest.loads_of_body nest)
  |> List.rev

let box_elements ~vary ~trip_counts shape (r : Loop_nest.mem_ref) =
  let total = ref 1 in
  Array.iteri
    (fun d e ->
      let iv = Bounds.expr_interval ~vary ~trip_counts e in
      let width = min (iv.Bounds.hi - iv.Bounds.lo + 1) shape.(d) in
      total := !total * max 1 width)
    r.Loop_nest.idx;
  !total

let analyze (nest : Loop_nest.t) =
  let n = Loop_nest.n_loops nest in
  let trip_counts = Loop_nest.trip_counts nest in
  let refs = resolved_refs nest in
  let level depth =
    let vary = Array.init n (fun i -> i >= depth) in
    let per_buffer =
      List.filter_map
        (fun (buf, shape) ->
          let boxes =
            List.filter_map
              (fun (r : Loop_nest.mem_ref) ->
                if r.Loop_nest.buf = buf then
                  Some (box_elements ~vary ~trip_counts shape r)
                else None)
              refs
          in
          match boxes with
          | [] -> None
          | _ ->
              let size = Array.fold_left ( * ) 1 shape in
              let sum = List.fold_left ( + ) 0 boxes in
              Some { fb_buf = buf; fb_elements = min sum size })
        nest.Loop_nest.buffers
    in
    {
      depth;
      per_buffer;
      elements = List.fold_left (fun a b -> a + b.fb_elements) 0 per_buffer;
    }
  in
  { n_loops = n; levels = Array.init (n + 1) level }

let level_elements t d =
  t.levels.(max 0 (min t.n_loops d)).elements

let reuse_distance t d = level_elements t (d + 1)

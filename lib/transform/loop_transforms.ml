let divisors n =
  if n <= 0 then invalid_arg "Loop_transforms.divisors: non-positive";
  let rec go d acc =
    if d > n then List.rev acc
    else go (d + 1) (if n mod d = 0 then d :: acc else acc)
  in
  go 1 []

(* The longest suffix of pairwise-distinct origins. Nests are a dozen
   loops deep, so the quadratic scan beats allocating a table. *)
let rec seen_after (loops : Loop_nest.loop array) origin j =
  j < Array.length loops
  && (loops.(j).Loop_nest.origin = origin || seen_after loops origin (j + 1))

let rec distinct_suffix loops i =
  if i < 0 || seen_after loops loops.(i).Loop_nest.origin (i + 1) then i + 1
  else distinct_suffix loops (i - 1)

let point_band_start (nest : Loop_nest.t) =
  distinct_suffix nest.loops (Array.length nest.loops - 1)

let point_band (nest : Loop_nest.t) =
  let p0 = point_band_start nest in
  Array.sub nest.loops p0 (Array.length nest.loops - p0)

let tile ?(parallel = false) sizes (nest : Loop_nest.t) =
  let n = Array.length nest.loops in
  let p0 = point_band_start nest in
  let point_count = n - p0 in
  if Array.length sizes <> point_count then
    Error
      (Printf.sprintf "tile: %d sizes for a %d-loop point band"
         (Array.length sizes) point_count)
  else if not (Array.exists (fun t -> t > 0) sizes) then
    Error "tile: at least one tile size must be positive"
  else begin
    (* The error names the last bad size. *)
    let bad = ref None in
    for rel = 0 to point_count - 1 do
      let t = sizes.(rel) in
      if t > 0 then begin
        let ub = nest.loops.(p0 + rel).Loop_nest.ub in
        if t > ub || ub mod t <> 0 then
          bad :=
            Some (Printf.sprintf "tile: size %d does not divide trip count %d" t ub)
      end
      else if t < 0 then bad := Some "tile: negative tile size"
    done;
    match !bad with
    | Some msg -> Error msg
    | None ->
        let k = Array.fold_left (fun k t -> if t > 0 then k + 1 else k) 0 sizes in
        let new_n = n + k in
        (* The outer loops, then the tile band (one tile loop per tiled
           point loop, in point order), then the point band. [tile_pos]
           is each tiled rel's loop in the tile band, else -1. *)
        let new_loops = Array.make new_n nest.loops.(p0) in
        Array.blit nest.loops 0 new_loops 0 p0;
        let tile_pos = Array.make point_count (-1) in
        let r = ref 0 in
        for rel = 0 to point_count - 1 do
          let l = nest.loops.(p0 + rel) in
          let size = sizes.(rel) in
          if size > 0 then begin
            tile_pos.(rel) <- p0 + !r;
            new_loops.(p0 + !r) <-
              {
                Loop_nest.ub = l.Loop_nest.ub / size;
                kind = (if parallel then Loop_nest.Parallel else Loop_nest.Seq);
                origin = l.Loop_nest.origin;
              };
            new_loops.(p0 + k + rel) <- { l with Loop_nest.ub = size };
            incr r
          end
          else new_loops.(p0 + k + rel) <- l
        done;
        (* Remap coefficients directly, as [interchange] does: an outer
           dim keeps its index, point dim [rel] moves to [p0+k+rel], and
           a tiled one also puts [size*c] on its tile loop. Every target
           receives one source coefficient, so this is exactly
           [Affine.substitute] over [d -> size*tile + point] without its
           per-coefficient temporaries. *)
        let remap (e : Affine.expr) =
          let c = e.Affine.coeffs in
          if Array.length c <> n then
            invalid_arg "Loop_transforms.tile: subscript arity mismatch";
          let c' = Array.make new_n 0 in
          Array.blit c 0 c' 0 p0;
          for rel = 0 to point_count - 1 do
            let v = c.(p0 + rel) in
            c'.(p0 + k + rel) <- v;
            if tile_pos.(rel) >= 0 then c'.(tile_pos.(rel)) <- sizes.(rel) * v
          done;
          { e with Affine.coeffs = c' }
        in
        Ok
          (Loop_nest.map_body_exprs remap
             { nest with Loop_nest.loops = new_loops })
  end

let is_permutation perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      if p < 0 || p >= n || seen.(p) then false
      else begin
        seen.(p) <- true;
        true
      end)
    perm

let interchange perm (nest : Loop_nest.t) =
  let n = Array.length nest.loops in
  let p0 = point_band_start nest in
  let point_count = n - p0 in
  if Array.length perm <> point_count then
    Error
      (Printf.sprintf "interchange: permutation of arity %d for a %d-loop band"
         (Array.length perm) point_count)
  else if not (is_permutation perm) then
    Error "interchange: not a permutation"
  else begin
    let full = Array.init n (fun i -> if i < p0 then i else p0 + perm.(i - p0)) in
    let inv = Array.make n 0 in
    Array.iteri (fun i j -> inv.(j) <- i) full;
    let new_loops = Array.init n (fun i -> nest.loops.(full.(i))) in
    (* A permutation substitution only moves coefficients: the generic
       [Affine.substitute] would build the same expr through an O(n^2)
       sum of single-term dims. Permute directly — identical integer
       results, and interchange/swap sit on the search hot path. *)
    let permute (e : Affine.expr) =
      let c = e.Affine.coeffs in
      let c' = Array.make n 0 in
      for j = 0 to n - 1 do
        c'.(inv.(j)) <- c.(j)
      done;
      { e with Affine.coeffs = c' }
    in
    Ok
      (Loop_nest.map_body_exprs permute
         { nest with Loop_nest.loops = new_loops })
  end

let swap_adjacent i (nest : Loop_nest.t) =
  let p0 = point_band_start nest in
  let point_count = Array.length nest.loops - p0 in
  if i < 0 || i >= point_count - 1 then
    Error (Printf.sprintf "swap_adjacent: index %d out of range" i)
  else begin
    (* [interchange] of the transposition of [i] and [i+1], without its
       permutation arrays: the two loops trade places and so do the two
       coefficients of every subscript. A subscript whose two
       coefficients are equal is kept as it is. *)
    let a = p0 + i and b = p0 + i + 1 in
    let new_loops = Array.copy nest.loops in
    new_loops.(a) <- nest.loops.(b);
    new_loops.(b) <- nest.loops.(a);
    let swap (e : Affine.expr) =
      let c = e.Affine.coeffs in
      if c.(a) = c.(b) then e
      else begin
        let c' = Array.copy c in
        c'.(a) <- c.(b);
        c'.(b) <- c.(a);
        { e with Affine.coeffs = c' }
      end
    in
    Ok
      (Loop_nest.map_body_exprs swap { nest with Loop_nest.loops = new_loops })
  end

let is_vectorized (nest : Loop_nest.t) =
  let n = Array.length nest.loops in
  n > 0 && nest.loops.(n - 1).Loop_nest.kind = Loop_nest.Vector

let unroll factor (nest : Loop_nest.t) =
  let n = Array.length nest.loops in
  if n = 0 then Error "unroll: nest has no loops"
  else if is_vectorized nest then Error "unroll: nest is already vectorized"
  else if factor < 2 then Error "unroll: factor must be at least 2"
  else begin
    let inner = nest.loops.(n - 1) in
    if inner.Loop_nest.ub mod factor <> 0 then
      Error
        (Printf.sprintf "unroll: factor %d does not divide trip count %d"
           factor inner.Loop_nest.ub)
    else begin
      let new_loops = Array.copy nest.loops in
      new_loops.(n - 1) <- { inner with Loop_nest.ub = inner.Loop_nest.ub / factor };
      (* Innermost variable i becomes factor*i + offset in copy [offset]. *)
      let shifted offset =
        let subst =
          Array.init n (fun d ->
              if d = n - 1 then
                Affine.expr ~const:offset n [ (n - 1, factor) ]
              else Affine.dim n d)
        in
        Loop_nest.map_body_exprs (fun e -> Affine.substitute e subst) nest
      in
      let body =
        List.concat_map
          (fun offset -> (shifted offset).Loop_nest.body)
          (List.init factor (fun o -> o))
      in
      Ok { nest with Loop_nest.loops = new_loops; body }
    end
  end

let vectorize (nest : Loop_nest.t) =
  let n = Array.length nest.loops in
  if n = 0 then Error "vectorize: nest has no loops"
  else if is_vectorized nest then Error "vectorize: already vectorized"
  else begin
    let new_loops = Array.copy nest.loops in
    new_loops.(n - 1) <-
      { (new_loops.(n - 1)) with Loop_nest.kind = Loop_nest.Vector };
    Ok { nest with Loop_nest.loops = new_loops }
  end

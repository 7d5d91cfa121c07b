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

let band_start (loops : Loop_nest.loop array) =
  distinct_suffix loops (Array.length loops - 1)

let point_band_start (nest : Loop_nest.t) = band_start nest.loops

let point_band (nest : Loop_nest.t) =
  let p0 = point_band_start nest in
  Array.sub nest.loops p0 (Array.length nest.loops - p0)

type column_map = { src : int array; factor : int array }

let compose first second =
  let m = Array.length second.src in
  let src = Array.make m 0 and factor = Array.make m 0 in
  for j = 0 to m - 1 do
    let s = second.src.(j) in
    src.(j) <- first.src.(s);
    factor.(j) <- second.factor.(j) * first.factor.(s)
  done;
  { src; factor }

let rec unchanged map c j =
  j = Array.length map.src
  || (map.factor.(j) * c.(map.src.(j)) = c.(j) && unchanged map c (j + 1))

(* The subscript [map] makes of [e], which has [arity] columns. A
   subscript the map leaves unchanged is kept as it is. *)
let remap ~arity ({ src; factor } as map) (e : Affine.expr) =
  let c = e.Affine.coeffs in
  if Array.length c <> arity then
    invalid_arg "Loop_transforms: subscript arity mismatch";
  let m = Array.length src in
  if m = arity && unchanged map c 0 then e
  else begin
    let c' = Array.make m 0 in
    for j = 0 to m - 1 do
      c'.(j) <- factor.(j) * c.(src.(j))
    done;
    { e with Affine.coeffs = c' }
  end

(* The nest with [plan]'s loops, every subscript rewritten through its
   column map. *)
let rebuild plan (nest : Loop_nest.t) =
  Result.map
    (fun (loops, map) ->
      Loop_nest.map_body_exprs
        (remap ~arity:(Array.length nest.loops) map)
        { nest with Loop_nest.loops })
    (plan nest.loops)

let tile_plan ?(parallel = false) sizes (loops : Loop_nest.loop array) =
  let n = Array.length loops in
  let p0 = band_start loops in
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
        let ub = loops.(p0 + rel).Loop_nest.ub in
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
           point loop, in point order), then the point band. An outer
           column keeps its index and point column [rel] moves to
           [p0+k+rel]; a tiled one also puts [size] times itself on its
           tile loop. Every new column reads one old column, which is
           [Affine.substitute] over [d -> size*tile + point]. *)
        let new_loops = Array.make new_n loops.(p0) in
        let src = Array.make new_n 0 and factor = Array.make new_n 1 in
        for j = 0 to p0 - 1 do
          new_loops.(j) <- loops.(j);
          src.(j) <- j
        done;
        let r = ref 0 in
        for rel = 0 to point_count - 1 do
          let l = loops.(p0 + rel) in
          let size = sizes.(rel) in
          src.(p0 + k + rel) <- p0 + rel;
          if size > 0 then begin
            let t = p0 + !r in
            new_loops.(t) <-
              {
                Loop_nest.ub = l.Loop_nest.ub / size;
                kind = (if parallel then Loop_nest.Parallel else Loop_nest.Seq);
                origin = l.Loop_nest.origin;
              };
            src.(t) <- p0 + rel;
            factor.(t) <- size;
            new_loops.(p0 + k + rel) <- { l with Loop_nest.ub = size };
            incr r
          end
          else new_loops.(p0 + k + rel) <- l
        done;
        Ok (new_loops, { src; factor })
  end

let tile ?parallel sizes nest = rebuild (tile_plan ?parallel sizes) nest

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

let swap_plan i (loops : Loop_nest.loop array) =
  let n = Array.length loops in
  let p0 = band_start loops in
  if i < 0 || i >= n - p0 - 1 then
    Error (Printf.sprintf "swap_adjacent: index %d out of range" i)
  else begin
    (* [interchange] of the transposition of [i] and [i+1]: the two
       loops trade places and so do their columns. *)
    let a = p0 + i and b = p0 + i + 1 in
    let new_loops = Array.copy loops in
    new_loops.(a) <- loops.(b);
    new_loops.(b) <- loops.(a);
    let src = Array.init n Fun.id in
    src.(a) <- b;
    src.(b) <- a;
    Ok (new_loops, { src; factor = Array.make n 1 })
  end

let swap_adjacent i nest = rebuild (swap_plan i) nest

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

let vectorize_loops (loops : Loop_nest.loop array) =
  let n = Array.length loops in
  if n = 0 then Error "vectorize: nest has no loops"
  else if loops.(n - 1).Loop_nest.kind = Loop_nest.Vector then
    Error "vectorize: already vectorized"
  else begin
    let new_loops = Array.copy loops in
    new_loops.(n - 1) <- { (loops.(n - 1)) with Loop_nest.kind = Loop_nest.Vector };
    Ok new_loops
  end

let vectorize (nest : Loop_nest.t) =
  Result.map (fun loops -> { nest with Loop_nest.loops }) (vectorize_loops nest.loops)

type expr = { coeffs : int array; const : int }
type map = { n_dims : int; exprs : expr array }

let expr ?(const = 0) n_dims terms =
  let coeffs = Array.make n_dims 0 in
  List.iter
    (fun (d, c) ->
      if d < 0 || d >= n_dims then invalid_arg "Affine.expr: dim out of range";
      coeffs.(d) <- coeffs.(d) + c)
    terms;
  { coeffs; const }

let dim n_dims d = expr n_dims [ (d, 1) ]

let scale k e =
  { coeffs = Array.map (fun c -> k * c) e.coeffs; const = k * e.const }

let add_expr a b =
  if Array.length a.coeffs <> Array.length b.coeffs then
    invalid_arg "Affine.add_expr: arity mismatch";
  {
    coeffs = Array.mapi (fun i c -> c + b.coeffs.(i)) a.coeffs;
    const = a.const + b.const;
  }

let eval_expr e iters =
  let acc = ref e.const in
  Array.iteri
    (fun i c -> if c <> 0 then acc := !acc + (c * iters.(i)))
    e.coeffs;
  !acc

let substitute e subst =
  if Array.length subst <> Array.length e.coeffs then
    invalid_arg "Affine.substitute: arity mismatch";
  let new_n_dims =
    if Array.length subst = 0 then 0 else Array.length subst.(0).coeffs
  in
  let acc = ref { coeffs = Array.make new_n_dims 0; const = e.const } in
  Array.iteri
    (fun i c -> if c <> 0 then acc := add_expr !acc (scale c subst.(i)))
    e.coeffs;
  !acc

let map_of_exprs n_dims exprs =
  List.iter
    (fun e ->
      if Array.length e.coeffs <> n_dims then
        invalid_arg "Affine.map_of_exprs: arity mismatch")
    exprs;
  { n_dims; exprs = Array.of_list exprs }

let identity_map n_dims =
  { n_dims; exprs = Array.init n_dims (fun d -> dim n_dims d) }

let projection_map n_dims dims =
  map_of_exprs n_dims (List.map (fun d -> dim n_dims d) dims)

let eval_map m iters = Array.map (fun e -> eval_expr e iters) m.exprs

let substitute_map m subst =
  let exprs = Array.map (fun e -> substitute e subst) m.exprs in
  let n_dims =
    if Array.length subst = 0 then m.n_dims
    else Array.length subst.(0).coeffs
  in
  { n_dims; exprs }

let rank m = Array.length m.exprs

let uses_dim m d =
  Array.exists (fun e -> e.coeffs.(d) <> 0) m.exprs

let to_matrix m =
  Array.map
    (fun e ->
      Array.init (m.n_dims + 1) (fun j ->
          if j < m.n_dims then e.coeffs.(j) else e.const))
    m.exprs

let equal_expr a b = a.coeffs = b.coeffs && a.const = b.const

let equal_map a b =
  a.n_dims = b.n_dims
  && Array.length a.exprs = Array.length b.exprs
  && Array.for_all2 equal_expr a.exprs b.exprs

let pp_expr ppf e =
  let printed = ref false in
  Array.iteri
    (fun i c ->
      if c <> 0 then begin
        if !printed then Format.fprintf ppf " + ";
        if c = 1 then Format.fprintf ppf "d%d" i
        else Format.fprintf ppf "%d*d%d" c i;
        printed := true
      end)
    e.coeffs;
  if e.const <> 0 || not !printed then begin
    if !printed then Format.fprintf ppf " + ";
    Format.fprintf ppf "%d" e.const
  end

let pp_map ppf m =
  Format.fprintf ppf "(";
  for d = 0 to m.n_dims - 1 do
    if d > 0 then Format.fprintf ppf ", ";
    Format.fprintf ppf "d%d" d
  done;
  Format.fprintf ppf ") -> (";
  Array.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf ", ";
      pp_expr ppf e)
    m.exprs;
  Format.fprintf ppf ")"

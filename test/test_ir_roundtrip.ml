(* Printer/parser round-trip property: for randomized valid nests —
   including Parallel/Vector loop kinds and negative subscript
   coefficients (reversed accesses) — [Ir_parser.parse_result] must be a left
   inverse of [Ir_printer.to_string], structurally. *)

let check = Alcotest.(check bool)

let expr_range (ubs : int array) (e : Affine.expr) =
  let lo = ref e.Affine.const and hi = ref e.Affine.const in
  Array.iteri
    (fun k c ->
      let v = c * (ubs.(k) - 1) in
      lo := !lo + min 0 v;
      hi := !hi + max 0 v)
    e.Affine.coeffs;
  (!lo, !hi)

let gen_subscript rng n ubs =
  let k = Util.Rng.int rng n in
  let e =
    match Util.Rng.int rng 5 with
    | 0 -> Affine.dim n k
    | 1 -> Affine.expr ~const:(Util.Rng.int rng 3) n [ (k, 1) ]
    | 2 -> Affine.expr n [ (k, -1) ] (* negative coefficient *)
    | 3 -> Affine.expr ~const:(Util.Rng.int rng 2) n [ (k, 2) ]
    | _ when n >= 2 -> Affine.expr n [ (k, 1); ((k + 1) mod n, 1) ]
    | _ -> Affine.expr ~const:1 n [ (k, 1) ]
  in
  let lo, _ = expr_range ubs e in
  if lo < 0 then { e with Affine.const = e.Affine.const - lo } else e

let gen_nest rng i =
  let n = 1 + Util.Rng.int rng 3 in
  let ubs = Array.init n (fun _ -> 2 + Util.Rng.int rng 5) in
  let rank = 1 + Util.Rng.int rng (min n 2) in
  let kinds =
    (* at most one parallel band prefix and a vector innermost, like real
       transformed nests — plus arbitrary mixes, which the grammar also
       allows *)
    Array.init n (fun k ->
        match Util.Rng.int rng 4 with
        | 0 -> Loop_nest.Parallel
        | 1 when k = n - 1 -> Loop_nest.Vector
        | _ -> Loop_nest.Seq)
  in
  let subs () = Array.init rank (fun _ -> gen_subscript rng n ubs) in
  let store_idx = subs () and load_idx = subs () in
  let shape =
    Array.init rank (fun d ->
        let _, h1 = expr_range ubs store_idx.(d) in
        let _, h2 = expr_range ubs load_idx.(d) in
        max h1 h2 + 1)
  in
  let rhs =
    let ld = Loop_nest.Load { Loop_nest.buf = "src"; idx = load_idx } in
    match Util.Rng.int rng 3 with
    | 0 -> Loop_nest.Binop (Linalg.Add, ld, Loop_nest.Const 1.5)
    | 1 -> Loop_nest.Unop (Linalg.Exp, ld)
    | _ -> Loop_nest.Binop (Linalg.Max, ld, Loop_nest.Const 0.0)
  in
  {
    Loop_nest.name = Printf.sprintf "roundtrip_%d" i;
    loops =
      Array.init n (fun k ->
          { Loop_nest.ub = ubs.(k); kind = kinds.(k); origin = k });
    body = [ Loop_nest.Store ({ Loop_nest.buf = "dst"; idx = store_idx }, rhs) ];
    buffers = [ ("src", shape); ("dst", shape) ];
    inits = (if Util.Rng.int rng 2 = 0 then [ ("dst", 0.0) ] else []);
  }

let test_roundtrip () =
  let rng = Util.Rng.create 77 in
  let saw_vector = ref false
  and saw_parallel = ref false
  and saw_negative = ref false in
  for i = 1 to 200 do
    let nest = gen_nest rng i in
    (match Loop_nest.validate nest with
    | Ok () -> ()
    | Error e -> Alcotest.failf "generator made an invalid nest: %s" e);
    Array.iter
      (fun (l : Loop_nest.loop) ->
        if l.Loop_nest.kind = Loop_nest.Vector then saw_vector := true;
        if l.Loop_nest.kind = Loop_nest.Parallel then saw_parallel := true)
      nest.Loop_nest.loops;
    List.iter
      (fun (r : Loop_nest.mem_ref) ->
        Array.iter
          (fun (e : Affine.expr) ->
            if Array.exists (fun c -> c < 0) e.Affine.coeffs then
              saw_negative := true)
          r.Loop_nest.idx)
      (Loop_nest.stores_of_body nest @ Loop_nest.loads_of_body nest);
    let text = Ir_printer.to_string nest in
    match Ir_parser.parse_result text with
    | Error e -> Alcotest.failf "re-parse failed: %s@.on:@.%s" e text
    | Ok nest' ->
        if nest <> nest' then
          Alcotest.failf "round-trip changed the nest:@.%s@.vs@.%s" text
            (Ir_printer.to_string nest')
  done;
  check "corpus included a Vector loop" true !saw_vector;
  check "corpus included a Parallel loop" true !saw_parallel;
  check "corpus included a negative coefficient" true !saw_negative

let suite =
  [
    Alcotest.test_case "200 random nests round-trip through the printer" `Quick
      test_roundtrip;
  ]

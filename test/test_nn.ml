(* Tensor algebra, autodiff (against finite differences), layers,
   optimizers and masked categorical distributions. *)

(* Elementwise within [tol], with IEEE semantics: NaN is never close. *)
let approx_equal ?(tol = 1e-9) (a : Tensor.t) (b : Tensor.t) =
  Tensor.dims a = Tensor.dims b
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= tol)
       (Test_helpers.tensor_to_array a) (Test_helpers.tensor_to_array b)

let pp_tensor ppf t =
  Format.fprintf ppf "tensor[%s] {%s}"
    (String.concat "x" (Array.to_list (Array.map string_of_int (Tensor.dims t))))
    (String.concat ", "
       (Array.to_list
          (Array.map (Printf.sprintf "%g") (Test_helpers.tensor_to_array t))))

let t_testable = Alcotest.testable pp_tensor (approx_equal ~tol:1e-9)

let transpose t =
  let d = Tensor.dims t in
  Tensor.transpose_into ~dst:(Tensor.zeros [| d.(1); d.(0) |]) t

(* A [shape] tensor of NaN, as a destination: a kernel that leaves an
   element unwritten shows. *)
let nan_tensor shape = Tensor.init shape (fun _ -> nan)

(* --- Tensor --- *)

let test_tensor_create () =
  let t = Tensor.init [| 2; 3 |] (fun _ -> 1.5) in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Alcotest.(check (float 1e-12)) "value" 1.5 (Tensor.get t 5)

let test_tensor_of_array_validates () =
  Alcotest.(check bool) "raises" true
    (match Tensor.of_array [| 2; 2 |] [| 1.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tensor_matmul_known () =
  let a = Tensor.of_array [| 2; 2 |] [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = Tensor.of_array [| 2; 2 |] [| 5.0; 6.0; 7.0; 8.0 |] in
  Alcotest.(check t_testable) "product"
    (Tensor.of_array [| 2; 2 |] [| 19.0; 22.0; 43.0; 50.0 |])
    (Tensor.matmul a b)

let test_tensor_matmul_transposes_agree () =
  let rng = Util.Rng.create 4 in
  let a = Tensor.init [| 3; 5 |] (fun _ -> Util.Rng.gaussian rng) in
  let b = Tensor.init [| 5; 2 |] (fun _ -> Util.Rng.gaussian rng) in
  let direct = Tensor.matmul a b in
  let via_tb = Tensor.zeros [| 3; 2 |] in
  Tensor.matmul_transpose_b_addto ~dst:via_tb a (transpose b);
  Alcotest.(check bool) "b^T path" true (approx_equal ~tol:1e-9 direct via_tb)

let test_tensor_add_bias () =
  let x = Tensor.of_array [| 2; 2 |] [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = Tensor.of_array [| 2 |] [| 10.0; 20.0 |] in
  Alcotest.(check t_testable) "bias per row"
    (Tensor.of_array [| 2; 2 |] [| 11.0; 22.0; 13.0; 24.0 |])
    (Tensor.add_bias x b)

let test_tensor_sum_rows_argmax () =
  let x = Tensor.of_array [| 2; 3 |] [| 1.0; 5.0; 2.0; 4.0; 0.0; 3.0 |] in
  Alcotest.(check t_testable) "row sums"
    (Tensor.of_array [| 2 |] [| 8.0; 7.0 |])
    (Tensor.sum_rows_into ~dst:(Tensor.zeros [| 2 |]) x);
  Alcotest.(check int) "argmax row 0" 1 (Tensor.argmax_row x 0);
  Alcotest.(check int) "argmax row 1" 0 (Tensor.argmax_row x 1)

let test_tensor_reshape () =
  let x = Tensor.of_array [| 2; 3 |] [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let tape = Autodiff.Tape.create () in
  let n = Autodiff.const tape x in
  let y = Autodiff.value (Autodiff.reshape tape n [| 3; 2 |]) in
  Alcotest.(check (float 1e-12)) "data preserved" 4.0 (Tensor.get2 y 1 1);
  Alcotest.(check bool) "bad reshape raises" true
    (match Autodiff.reshape tape n [| 4; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tensor_equal_bitwise () =
  (* [equal] is the "same checkpoint" predicate: bitwise, so NaN equals
     itself and 0.0 differs from -0.0 — both the opposite of (=). *)
  let x = Tensor.of_array [| 3 |] [| 1.0; nan; -0.0 |] in
  Alcotest.(check bool) "copy is equal (incl. NaN)" true
    (Test_helpers.tensor_equal x (Test_helpers.copy_tensor x));
  let y = Tensor.of_array [| 3 |] [| 1.0; nan; 0.0 |] in
  Alcotest.(check bool) "-0.0 <> 0.0" false (Test_helpers.tensor_equal x y);
  Alcotest.(check bool) "shape mismatch" false
    (Test_helpers.tensor_equal x (Tensor.zeros [| 2 |]));
  (* approx_equal keeps IEEE semantics: NaN never close to anything. *)
  Alcotest.(check bool) "approx_equal rejects NaN" false
    (approx_equal x (Test_helpers.copy_tensor x))

let test_transpose_known () =
  let x = Tensor.of_array [| 2; 3 |] [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  Alcotest.(check bool) "non-square transpose" true
    (Test_helpers.tensor_equal
       (Tensor.transpose_into ~dst:(nan_tensor [| 3; 2 |]) x)
       (Tensor.of_array [| 3; 2 |] [| 1.0; 4.0; 2.0; 5.0; 3.0; 6.0 |]))

(* Float-array references: the naive i-p-j loop with memory accumulation,
   every product added (zeros included) in ascending p. *)
let naive_matmul a b ~m ~k ~n =
  let out = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    let arow = i * k and orow = i * n in
    for p = 0 to k - 1 do
      let av = a.(arow + p) and brow = p * n in
      for j = 0 to n - 1 do
        out.(orow + j) <- out.(orow + j) +. (av *. b.(brow + j))
      done
    done
  done;
  out

let transpose_array x ~rows ~cols =
  Array.init (rows * cols) (fun idx -> x.(((idx mod rows) * cols) + (idx / rows)))

(* A [rows; cols] matrix with about [share] of its entries zeroed; every
   other zero is -0.0, which the kernels must skip like +0.0. *)
let sparse_matrix rng ~share rows cols =
  Tensor.init [| rows; cols |] (fun i ->
      let v = Util.Rng.gaussian rng in
      if Util.Rng.uniform rng < share then if i land 1 = 0 then 0.0 else -0.0
      else v)

let zero_shares = [ 0.0; 0.5; 0.94; 1.0 ]

(* Every kernel against a float-array loop written here, bit for bit:
   the matmul family on shapes that hit the 4-wide unroll's remainders,
   across zero shares of the left operand, then the elementwise and
   reduction kernels. Each [_into] kernel writes into a NaN-filled
   destination. *)
let test_into_kernels_bit_identical () =
  let to_array = Test_helpers.tensor_to_array in
  let eq name t expect =
    Alcotest.(check bool) name true
      (Test_helpers.tensor_equal t (Tensor.of_array (Tensor.dims t) expect))
  in
  List.iter
    (fun share ->
      List.iter
        (fun (m, k, n) ->
          let rng = Util.Rng.create (m + (10 * k) + (100 * n)) in
          let a = sparse_matrix rng ~share m k in
          let b = Tensor.init [| k; n |] (fun _ -> Util.Rng.gaussian rng) in
          let ctx op = Printf.sprintf "%s %dx%dx%d zeros=%g" op m k n share in
          let naive = naive_matmul (to_array a) (to_array b) ~m ~k ~n in
          eq (ctx "matmul=naive") (Tensor.matmul a b) naive;
          eq (ctx "matmul_into=naive")
            (Tensor.matmul_into ~dst:(nan_tensor [| m; n |]) a b)
            naive;
          let bt = transpose_array (to_array b) ~rows:k ~cols:n in
          eq (ctx "transpose_into")
            (Tensor.transpose_into ~dst:(nan_tensor [| n; k |]) b)
            bt;
          (* addto adds the whole product to a nonzero accumulator *)
          let acc = Tensor.init [| m; n |] (fun _ -> Util.Rng.gaussian rng) in
          let expect = Array.map2 ( +. ) (to_array acc) naive in
          Tensor.matmul_transpose_b_addto ~dst:acc a (Tensor.of_array [| n; k |] bt);
          eq (ctx "matmul_transpose_b_addto") acc expect)
        [ (1, 1, 1); (3, 5, 2); (5, 7, 3); (17, 13, 9); (33, 65, 17) ])
    zero_shares;
  (* Elementwise and reduction kernels. *)
  let rng = Util.Rng.create 77 in
  let m = 7 and n = 11 in
  let x = Tensor.init [| m; n |] (fun _ -> Util.Rng.gaussian rng) in
  let y = Tensor.init [| m; n |] (fun _ -> Util.Rng.gaussian rng) in
  let bias = Tensor.init [| n |] (fun _ -> Util.Rng.gaussian rng) in
  let fx = to_array x and fy = to_array y and fbias = to_array bias in
  let d () = nan_tensor [| m; n |] in
  eq "add_into" (Tensor.add_into ~dst:(d ()) x y) (Array.map2 ( +. ) fx fy);
  eq "sub_into" (Tensor.sub_into ~dst:(d ()) x y) (Array.map2 ( -. ) fx fy);
  eq "mul_into" (Tensor.mul_into ~dst:(d ()) x y) (Array.map2 ( *. ) fx fy);
  let branchy v = if v > 0.0 then v else 0.0 in
  eq "relu_into" (Tensor.relu_into ~dst:(d ()) x) (Array.map branchy fx);
  (* the branch-free ReLU against the branch, on the inputs where a
     select could differ from it *)
  let edge = [| nan; -0.0; 0.0; infinity; neg_infinity; 5e-324; -1.0 |] in
  eq "relu = branchy map"
    (Tensor.relu_into ~dst:(nan_tensor [| 7 |]) (Tensor.of_array [| 7 |] edge))
    (Array.map branchy edge);
  let biased = Array.mapi (fun i v -> v +. fbias.(i mod n)) fx in
  eq "add_bias_into" (Tensor.add_bias_into ~dst:(d ()) x bias) biased;
  eq "add_bias" (Tensor.add_bias x bias) biased;
  eq "slice_cols_into"
    (Tensor.slice_cols_into ~dst:(nan_tensor [| m; 4 |]) x ~lo:2 ~hi:6)
    (Array.init (m * 4) (fun i -> fx.((i / 4 * n) + 2 + (i mod 4))));
  eq "sum_rows_into"
    (Tensor.sum_rows_into ~dst:(nan_tensor [| m |]) x)
    (Array.init m (fun i -> Array.fold_left ( +. ) 0.0 (Array.sub fx (i * n) n)));
  eq "map_into" (Tensor.map_into exp ~dst:(d ()) x) (Array.map exp fx);
  eq "map2_into" (Tensor.map2_into Float.min ~dst:(d ()) x y)
    (Array.map2 Float.min fx fy)

(* On dense operands the zero-skipping kernel has nothing to skip; it
   must still not be slower than the naive loop: at most 1.2x its time
   at 64x128x128, best of 5, the two run alternately. *)
let test_dense_matmul_not_slower () =
  let m = 64 and k = 128 and n = 128 in
  let rng = Util.Rng.create 42 in
  let a = Tensor.init [| m; k |] (fun _ -> Util.Rng.gaussian rng) in
  let b = Tensor.init [| k; n |] (fun _ -> Util.Rng.gaussian rng) in
  let fa = Test_helpers.tensor_to_array a and fb = Test_helpers.tensor_to_array b in
  let best = [| infinity; infinity |] in
  let time slot f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best.(slot) <- Float.min best.(slot) (Unix.gettimeofday () -. t0)
  in
  for _ = 1 to 5 do
    time 0 (fun () -> naive_matmul fa fb ~m ~k ~n);
    time 1 (fun () -> Tensor.matmul a b)
  done;
  if best.(1) > 1.2 *. best.(0) then
    Alcotest.failf "dense matmul %.0f us, naive loop %.0f us" (1e6 *. best.(1))
      (1e6 *. best.(0))

(* The three places the row kernel runs — the forward [matmul_into], the
   dA step [matmul_transpose_b_addto] and the dB step of
   [Autodiff.matmul] — against the naive loop, bitwise, with zeros and
   -0.0 planted in the operand whose zeros are skipped. *)
let qcheck_matmul_kernels_naive =
  QCheck.Test.make ~name:"matmul kernels = naive i-p-j loop (zero skipping)"
    ~count:120
    QCheck.(
      quad (int_range 0 9999) (int_range 0 3)
        (pair (int_range 1 9) (int_range 1 512))
        (int_range 1 19))
    (fun (seed, share_i, (m, k), n) ->
      let rng = Util.Rng.create seed in
      let share = List.nth zero_shares share_i in
      let a = sparse_matrix rng ~share m k in
      let b = Tensor.init [| k; n |] (fun _ -> Util.Rng.gaussian rng) in
      let fa = Test_helpers.tensor_to_array a and fb = Test_helpers.tensor_to_array b in
      (* forward: a * b *)
      let fwd_ok =
        Test_helpers.tensor_equal
          (Tensor.matmul_into ~dst:(Tensor.init [| m; n |] (fun _ -> nan)) a b)
          (Tensor.of_array [| m; n |] (naive_matmul fa fb ~m ~k ~n))
      in
      (* dA: acc += a * c^T for c : [n; k], from a nonzero accumulator *)
      let c = Tensor.init [| n; k |] (fun _ -> Util.Rng.gaussian rng) in
      let acc = Tensor.init [| m; n |] (fun _ -> Util.Rng.gaussian rng) in
      let expect =
        Array.map2 ( +. ) (Test_helpers.tensor_to_array acc)
          (naive_matmul fa
             (transpose_array (Test_helpers.tensor_to_array c) ~rows:n ~cols:k)
             ~m ~k ~n)
      in
      Tensor.matmul_transpose_b_addto ~dst:acc a c;
      let da_ok = Test_helpers.tensor_equal acc (Tensor.of_array [| m; n |] expect) in
      (* dB: the gradient of sum((a * w) . g) in w is a^T * g *)
      let w =
        Autodiff.Param.create "w" (Tensor.init [| k; n |] (fun _ -> Util.Rng.gaussian rng))
      in
      let g = Tensor.init [| m; n |] (fun _ -> Util.Rng.gaussian rng) in
      let tape = Autodiff.Tape.create () in
      let y = Autodiff.matmul tape (Autodiff.const tape a) (Autodiff.of_param tape w) in
      Autodiff.backward tape
        (Autodiff.sum_all tape (Autodiff.mul tape y (Autodiff.const tape g)));
      let db_ok =
        Test_helpers.tensor_equal w.Autodiff.Param.grad
          (Tensor.of_array [| k; n |]
             (naive_matmul (transpose_array fa ~rows:m ~cols:k) (Test_helpers.tensor_to_array g)
                ~m:k ~k:m ~n))
      in
      fwd_ok && da_ok && db_ok)

(* --- Row gather / scatter / reshape --- *)

(* Naive references on flat row-major arrays, [w] elements per row. *)
let naive_gather x ~w rows =
  Array.concat (Array.to_list (Array.map (fun r -> Array.sub x (r * w) w) rows))

let naive_scatter x ~w rows ~n =
  let out = Array.make (n * w) 0.0 in
  Array.iteri
    (fun j r ->
      for c = 0 to w - 1 do
        out.((r * w) + c) <- out.((r * w) + c) +. x.((j * w) + c)
      done)
    rows;
  out

(* Values and gradients of the row ops against the naive loops, bitwise,
   on rank-1 and rank-2 tensors and row lists that are empty, unsorted
   or repeat an index. The gradient of sum(op(x) . g) in x is the
   adjoint op applied to g: scatter for gather, gather for scatter, the
   flat copy for reshape. *)
let qcheck_row_ops_naive =
  QCheck.Test.make ~name:"gather/scatter rows, reshape = naive loops" ~count:200
    QCheck.(quad (int_range 0 9999) (int_range 1 7) (int_range 1 5) bool)
    (fun (seed, m, w, rank1) ->
      let rng = Util.Rng.create seed in
      let w = if rank1 then 1 else w in
      let shape rows = if rank1 then [| rows |] else [| rows; w |] in
      let k = Util.Rng.int rng 9 in
      let rows = Array.init k (fun _ -> Util.Rng.int rng m) in
      let gaussian rows = Tensor.init (shape rows) (fun _ -> Util.Rng.gaussian rng) in
      let x = gaussian m in
      let fx = Test_helpers.tensor_to_array x in
      let eq t expect = Test_helpers.tensor_equal t (Tensor.of_array (Tensor.dims t) expect) in
      (* [value], and the parameter's gradient, of sum(op(p) . g) *)
      let through op p_data g =
        let p = Autodiff.Param.create "p" p_data in
        let tape = Autodiff.Tape.create () in
        let y = op tape (Autodiff.of_param tape p) in
        Autodiff.backward tape
          (Autodiff.sum_all tape (Autodiff.mul tape y (Autodiff.const tape g)));
        (Autodiff.value y, p.Autodiff.Param.grad)
      in
      let tensor_ok =
        eq
          (Tensor.gather_rows_into ~dst:(Tensor.init (shape k) (fun _ -> nan)) x rows)
          (naive_gather fx ~w rows)
      in
      let g = gaussian k in
      let y, gx = through (fun tape p -> Autodiff.gather_rows tape p rows) x g in
      let gather_ok =
        eq y (naive_gather fx ~w rows)
        && eq gx (naive_scatter (Test_helpers.tensor_to_array g) ~w rows ~n:m)
      in
      let s = gaussian k and h = gaussian m in
      let z, gs = through (fun tape p -> Autodiff.scatter_rows tape p rows ~n:m) s h in
      let scatter_ok =
        eq z (naive_scatter (Test_helpers.tensor_to_array s) ~w rows ~n:m)
        && eq gs (naive_gather (Test_helpers.tensor_to_array h) ~w rows)
      in
      let q = Tensor.init [| w; m |] (fun _ -> Util.Rng.gaussian rng) in
      let r, gr = through (fun tape p -> Autodiff.reshape tape p [| w; m |]) x q in
      let reshape_ok =
        Tensor.dims r = [| w; m |] && eq r fx && eq gr (Test_helpers.tensor_to_array q)
      in
      tensor_ok && gather_ok && scatter_ok && reshape_ok)

let test_row_ops_reject_bad_indices () =
  let x = Tensor.zeros [| 3; 2 |] in
  let raises name f =
    Alcotest.(check bool) (name ^ " raises Invalid_argument") true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  raises "gather_rows_into row 3" (fun () ->
      Tensor.gather_rows_into ~dst:(Tensor.zeros [| 1; 2 |]) x [| 3 |]);
  raises "gather_rows_into row -1" (fun () ->
      Tensor.gather_rows_into ~dst:(Tensor.zeros [| 2; 2 |]) x [| 0; -1 |]);
  raises "gather_rows_into dst shape" (fun () ->
      Tensor.gather_rows_into ~dst:(Tensor.zeros [| 2; 2 |]) x [| 0 |]);
  let tape = Autodiff.Tape.create () in
  let n = Autodiff.const tape x in
  raises "gather_rows row 3" (fun () -> Autodiff.gather_rows tape n [| 1; 3 |]);
  raises "scatter_rows row n" (fun () -> Autodiff.scatter_rows tape n [| 0; 1; 2 |] ~n:2);
  raises "scatter_rows row -1" (fun () -> Autodiff.scatter_rows tape n [| 0; -1; 2 |] ~n:3);
  raises "scatter_rows index count" (fun () -> Autodiff.scatter_rows tape n [| 0; 1 |] ~n:3);
  raises "reshape size" (fun () -> Autodiff.reshape tape n [| 4; 2 |])

(* --- Workspace arena --- *)

let test_workspace_reuse () =
  let ws = Tensor.Workspace.create () in
  let a = Tensor.Workspace.get ws [| 4; 4 |] in
  let b = Tensor.Workspace.get ws [| 8 |] in
  Tensor.fill_inplace a 1.0;
  Tensor.fill_inplace b 2.0;
  Alcotest.(check int) "two reallocs" 2 (Tensor.Workspace.reallocs ws);
  Tensor.Workspace.reset ws;
  (* Same shape sequence: same buffers, no allocation. *)
  let a' = Tensor.Workspace.get ws [| 4; 4 |] in
  let b' = Tensor.Workspace.get ws [| 8 |] in
  Alcotest.(check int) "no new reallocs" 2 (Tensor.Workspace.reallocs ws);
  Alcotest.(check (float 0.0)) "buffer reused" 1.0 (Tensor.get a' 0);
  Alcotest.(check (float 0.0)) "buffer reused (2)" 2.0 (Tensor.get b' 0)

let test_workspace_prefix_view_and_growth () =
  let ws = Tensor.Workspace.create () in
  ignore (Tensor.Workspace.get ws [| 6; 6 |]);
  Tensor.Workspace.reset ws;
  (* A smaller request reuses the slot as a prefix view... *)
  let small = Tensor.Workspace.get ws [| 2; 3 |] in
  Alcotest.(check int) "prefix view, no realloc" 1 (Tensor.Workspace.reallocs ws);
  Alcotest.(check int) "requested shape" 6 (Tensor.numel small);
  Tensor.Workspace.reset ws;
  (* ... a bigger one grows the slot. *)
  let big = Tensor.Workspace.get ws [| 9; 9 |] in
  Alcotest.(check int) "growth reallocates" 2 (Tensor.Workspace.reallocs ws);
  Alcotest.(check int) "grown shape" 81 (Tensor.numel big)

let test_tape_workspace_grads_bit_identical () =
  (* An arena-backed tape must produce bit-identical gradients to a
     plain allocating tape, across repeated reuse of the same arena. *)
  let rng = Util.Rng.create 31 in
  let mlp = Layers.mlp rng ~dims:[ 5; 7; 3 ] "net" in
  let params = Layers.mlp_params mlp in
  let x = Tensor.init [| 4; 5 |] (fun _ -> Util.Rng.gaussian rng) in
  let run tape =
    let xo = Autodiff.const tape x in
    let y = Autodiff.relu tape (Layers.forward_mlp tape mlp xo) in
    Autodiff.backward tape (Autodiff.mean_all tape (Autodiff.square tape y));
    List.map (fun p -> Test_helpers.copy_tensor p.Autodiff.Param.grad) params
  in
  List.iter Autodiff.Param.zero_grad params;
  let plain = run (Autodiff.Tape.create ()) in
  let ws = Tensor.Workspace.create () in
  for round = 1 to 3 do
    List.iter Autodiff.Param.zero_grad params;
    let with_ws = run (Autodiff.Tape.create ~ws ()) in
    List.iteri
      (fun i g ->
        Alcotest.(check bool)
          (Printf.sprintf "grad %d bit-identical (round %d)" i round)
          true
          (Test_helpers.tensor_equal g (List.nth plain i)))
      with_ws
  done

(* Gradient pruning is invisible: feeding the input as a constant (whose
   gradient backward never forms) or as a parameter leaf (whose gradient
   it does) leaves every network parameter's gradient bit-identical, and
   the constant's own grad stays zero. *)
let test_const_leaf_pruning_invisible () =
  let rng = Util.Rng.create 41 in
  let mlp = Layers.mlp rng ~dims:[ 13; 9; 3 ] "net" in
  let params = Layers.mlp_params mlp in
  let x = sparse_matrix rng ~share:0.5 6 13 in
  let run leaf =
    List.iter Autodiff.Param.zero_grad params;
    let tape = Autodiff.Tape.create () in
    let xo = leaf tape in
    let y = Layers.forward_mlp tape mlp xo in
    Autodiff.backward tape (Autodiff.mean_all tape (Autodiff.square tape y));
    (xo, List.map (fun p -> Test_helpers.copy_tensor p.Autodiff.Param.grad) params)
  in
  let x_const, pruned = run (fun tape -> Autodiff.const tape x) in
  let x_param = Autodiff.Param.create "x" x in
  let _, full = run (fun tape -> Autodiff.of_param tape x_param) in
  List.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "param grad %d bit-identical" i)
        true
        (Test_helpers.tensor_equal g (List.nth full i)))
    pruned;
  Alcotest.(check bool) "const leaf grad stays zero" true
    (Test_helpers.tensor_equal (Autodiff.grad x_const) (Tensor.zeros [| 6; 13 |]));
  Alcotest.(check bool) "parameter leaf grad is formed" true
    (Array.exists (fun v -> v <> 0.0)
       (Test_helpers.tensor_to_array x_param.Autodiff.Param.grad))

(* --- Autodiff vs finite differences --- *)

let finite_diff_check ~build ~params ~eps ~tol =
  List.iter Autodiff.Param.zero_grad params;
  let tape, loss = build () in
  Autodiff.backward tape loss;
  let analytic = List.map (fun p -> Test_helpers.copy_tensor p.Autodiff.Param.grad) params in
  List.iteri
    (fun pi p ->
      let d = p.Autodiff.Param.data in
      for i = 0 to Tensor.numel d - 1 do
        let orig = Tensor.get d i in
        Tensor.set d i (orig +. eps);
        let _, l1 = build () in
        Tensor.set d i (orig -. eps);
        let _, l2 = build () in
        Tensor.set d i orig;
        let num =
          (Tensor.get (Autodiff.value l1) 0 -. Tensor.get (Autodiff.value l2) 0)
          /. (2.0 *. eps)
        in
        let ana = Tensor.get (List.nth analytic pi) i in
        if Float.abs (num -. ana) > tol *. (1.0 +. Float.abs num) then
          Alcotest.failf "grad mismatch param %d idx %d: %g vs %g" pi i ana num
      done)
    params

let test_grad_linear_relu () =
  let rng = Util.Rng.create 21 in
  let layer = Layers.mlp rng ~dims:[ 4; 3 ] "l" in
  let x = Tensor.init [| 2; 4 |] (fun _ -> Util.Rng.gaussian rng) in
  finite_diff_check
    ~build:(fun () ->
      let tape = Autodiff.Tape.create () in
      let xo = Autodiff.const tape x in
      let y = Autodiff.relu tape (Layers.forward_mlp tape layer xo) in
      (tape, Autodiff.mean_all tape (Autodiff.square tape y)))
    ~params:(Layers.mlp_params layer) ~eps:1e-5 ~tol:1e-5

let test_grad_log_softmax_gather () =
  let rng = Util.Rng.create 22 in
  let layer = Layers.mlp rng ~dims:[ 3; 4 ] "l" in
  let x = Tensor.init [| 3; 3 |] (fun _ -> Util.Rng.gaussian rng) in
  finite_diff_check
    ~build:(fun () ->
      let tape = Autodiff.Tape.create () in
      let xo = Autodiff.const tape x in
      let logits = Layers.forward_mlp tape layer xo in
      let lp = Autodiff.log_softmax tape logits in
      let picked = Autodiff.gather_cols tape lp [| 0; 3; 2 |] in
      (tape, Autodiff.mean_all tape picked))
    ~params:(Layers.mlp_params layer) ~eps:1e-5 ~tol:1e-5

let test_grad_ppo_style_loss () =
  let rng = Util.Rng.create 23 in
  let mlp = Layers.mlp rng ~dims:[ 4; 8; 3 ] "net" in
  let x = Tensor.init [| 4; 4 |] (fun _ -> Util.Rng.gaussian rng) in
  let adv = Tensor.init [| 4 |] (fun _ -> Util.Rng.gaussian rng) in
  let old_lp = Tensor.init [| 4 |] (fun _ -> -1.0 -. Util.Rng.uniform rng) in
  finite_diff_check
    ~build:(fun () ->
      let tape = Autodiff.Tape.create () in
      let xo = Autodiff.const tape x in
      let lp_all = Autodiff.log_softmax tape (Layers.forward_mlp tape mlp xo) in
      let lp = Autodiff.gather_cols tape lp_all [| 0; 1; 2; 0 |] in
      let ratio = Autodiff.exp_ tape (Autodiff.sub tape lp (Autodiff.const tape old_lp)) in
      let a = Autodiff.const tape adv in
      let clipped = Autodiff.clamp tape ~lo:0.8 ~hi:1.2 ratio in
      let surr =
        Autodiff.min_ tape (Autodiff.mul tape ratio a) (Autodiff.mul tape clipped a)
      in
      (tape, Autodiff.neg tape (Autodiff.mean_all tape surr)))
    ~params:(Layers.mlp_params mlp) ~eps:1e-5 ~tol:1e-4

let test_grad_slice_sum_rows () =
  let rng = Util.Rng.create 24 in
  let layer = Layers.mlp rng ~dims:[ 3; 6 ] "l" in
  let x = Tensor.init [| 2; 3 |] (fun _ -> Util.Rng.gaussian rng) in
  finite_diff_check
    ~build:(fun () ->
      let tape = Autodiff.Tape.create () in
      let xo = Autodiff.const tape x in
      let y = Layers.forward_mlp tape layer xo in
      let left = Autodiff.slice_cols tape y ~lo:0 ~hi:3 in
      let right = Autodiff.slice_cols tape y ~lo:3 ~hi:6 in
      let h = Autodiff.mul tape left (Autodiff.exp_ tape right) in
      (tape, Autodiff.mean_all tape (Autodiff.sum_rows tape h)))
    ~params:(Layers.mlp_params layer) ~eps:1e-5 ~tol:1e-4

let test_grad_gather_scatter_reshape () =
  (* A branch-head shaped chain: gather rows (unsorted, repeated), view
     the segments as rows, log-softmax, pick, sum per row, scatter back
     (repeated). *)
  let rng = Util.Rng.create 25 in
  let layer = Layers.mlp rng ~dims:[ 3; 6 ] "l" in
  let x = Tensor.init [| 4; 3 |] (fun _ -> Util.Rng.gaussian rng) in
  let weights = Tensor.init [| 5 |] (fun _ -> Util.Rng.gaussian rng) in
  finite_diff_check
    ~build:(fun () ->
      let tape = Autodiff.Tape.create () in
      let y = Layers.forward_mlp tape layer (Autodiff.const tape x) in
      let rows = Autodiff.gather_rows tape y [| 2; 0; 2 |] in
      let lp = Autodiff.log_softmax tape (Autodiff.reshape tape rows [| 9; 2 |]) in
      let picked = Autodiff.gather_cols tape lp [| 0; 1; 1; 0; 0; 1; 1; 1; 0 |] in
      let per_row = Autodiff.sum_rows tape (Autodiff.reshape tape picked [| 3; 3 |]) in
      let back = Autodiff.scatter_rows tape per_row [| 4; 1; 4 |] ~n:5 in
      (tape, Autodiff.mean_all tape (Autodiff.mul tape back (Autodiff.const tape weights))))
    ~params:(Layers.mlp_params layer) ~eps:1e-5 ~tol:1e-4

(* The accumulate arms of relu's and matmul's backward steps, which the
   policy network never reaches (each of its activations and weight
   nodes has one reader): [x] feeds both relu and an add, the weight
   [w1] and the input [a] each feed two matmuls. Every parameter
   gradient must equal, bit for bit, zero-filling each node's gradient
   and adding every contribution into it in reverse tape order. Inputs
   include signed zeros, subnormals and, for relu, NaN and infinities.
   The graph runs twice on one workspace whose slots start as NaN, so
   a first writer that leaves any element unwritten shows. *)
let test_grad_accumulate_arms_bit_identical () =
  let t2 rows cols v = Tensor.of_array [| rows; cols |] v in
  let xs = [| nan; -0.0; 0.0; 5e-324; -5e-324; 1.5; -2.0; infinity; neg_infinity; 1e-310 |] in
  let cs = [| 1.0; -0.0; 0.5; 5e-324; nan; -3.0; 2.0; 0.0; 1e-310; -1e300 |] in
  let av =
    [| -0.0; 1.5; 5e-324; -2.0; 0.0; -0.0; 0.75; 1e-310; -0.0; 3.0; -1.25; 0.0 |]
  in
  let w1v = Array.init 20 (fun i -> if i = 3 then -0.0 else if i = 7 then 1e-310 else float_of_int (i - 9) /. 4.0) in
  let w2v = Array.init 20 (fun i -> if i = 11 then 5e-324 else float_of_int (7 - i) /. 3.0) in
  let bv = Array.init 12 (fun i -> if i mod 5 = 0 then -0.0 else float_of_int (i - 6) /. 2.0) in
  let c2v = Array.init 15 (fun i -> if i = 4 then -0.0 else if i = 9 then 5e-324 else float_of_int (i - 7)) in
  let px = Autodiff.Param.create "x" (t2 1 10 xs) and pz = Autodiff.Param.create "z" (t2 1 10 xs) in
  let pa = Autodiff.Param.create "a" (t2 3 4 av) in
  let pw1 = Autodiff.Param.create "w1" (t2 4 5 w1v) and pw2 = Autodiff.Param.create "w2" (t2 4 5 w2v) in
  let params = [ px; pz; pa; pw1; pw2 ] in
  (* reference: every node gradient starts as zeros and is added into *)
  let zeros_like t = Tensor.zeros (Tensor.dims t) in
  let acc t = let z = zeros_like t in Tensor.add_inplace z t; z in
  let relu_ref ~into input g =
    for i = 0 to Tensor.numel input - 1 do
      if Tensor.get input i > 0.0 then Tensor.set into i (Tensor.get into i +. Tensor.get g i)
    done
  in
  let c = t2 1 10 cs and c2 = t2 3 5 c2v and b = t2 3 4 bv in
  let g = zeros_like c in
  Tensor.add_mul_inplace g (Tensor.init [| 1; 10 |] (fun _ -> 1.0)) c;
  let gy = acc g and grz = acc g in
  let gz = zeros_like c in
  relu_ref ~into:gz px.Autodiff.Param.data grz;
  let gx = acc gy and gr = acc gy in
  relu_ref ~into:gx px.Autodiff.Param.data gr;
  let gs = zeros_like c2 in
  Tensor.add_mul_inplace gs (Tensor.init [| 3; 5 |] (fun _ -> 1.0)) c2;
  let g12 = acc gs and gy3 = acc gs in
  let gy1 = acc g12 and gy2 = acc g12 in
  let a = pa.Autodiff.Param.data and w1 = pw1.Autodiff.Param.data and w2 = pw2.Autodiff.Param.data in
  let gw1 = zeros_like w1 in
  Tensor.add_inplace gw1 (Tensor.matmul (transpose b) gy3);
  Tensor.add_inplace gw1 (Tensor.matmul (transpose a) gy1);
  let gw2 = acc (Tensor.matmul (transpose a) gy2) in
  let ga = zeros_like a in
  Tensor.add_inplace ga (Tensor.matmul gy2 (transpose w2));
  Tensor.add_inplace ga (Tensor.matmul gy1 (transpose w1));
  let expected = [ acc gx; acc gz; acc ga; acc gw1; acc gw2 ] in
  let ws = Tensor.Workspace.create () in
  for _ = 1 to 100 do
    Tensor.fill_inplace (Tensor.Workspace.get ws [| 64 |]) nan
  done;
  for run = 1 to 2 do
    List.iter Autodiff.Param.zero_grad params;
    let tape = Autodiff.Tape.create ~ws () in
    let x = Autodiff.of_param tape px and z = Autodiff.of_param tape pz in
    let y = Autodiff.add tape x (Autodiff.relu tape x) in
    let s = Autodiff.add tape y (Autodiff.relu tape z) in
    let a = Autodiff.of_param tape pa in
    let w1 = Autodiff.of_param tape pw1 and w2 = Autodiff.of_param tape pw2 in
    let y1 = Autodiff.matmul tape a w1 and y2 = Autodiff.matmul tape a w2 in
    let y3 = Autodiff.matmul tape (Autodiff.const tape b) w1 in
    let s2 = Autodiff.add tape (Autodiff.add tape y1 y2) y3 in
    let loss =
      Autodiff.add tape
        (Autodiff.sum_all tape (Autodiff.mul tape s (Autodiff.const tape c)))
        (Autodiff.sum_all tape (Autodiff.mul tape s2 (Autodiff.const tape c2)))
    in
    Autodiff.backward tape loss;
    List.iter2
      (fun (p : Autodiff.Param.t) e ->
        Alcotest.(check bool)
          (Printf.sprintf "run %d: grad of %s" run p.name)
          true (Test_helpers.tensor_equal p.grad e))
      params expected
  done

let test_backward_rejects_non_scalar () =
  let tape = Autodiff.Tape.create () in
  let x = Autodiff.const tape (Tensor.zeros [| 2 |]) in
  Alcotest.(check bool) "raises" true
    (match Autodiff.backward tape x with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_param_grad_accumulates () =
  let p = Autodiff.Param.create "p" (Tensor.init [| 2 |] (fun _ -> 1.0)) in
  let run () =
    let tape = Autodiff.Tape.create () in
    let n = Autodiff.of_param tape p in
    Autodiff.backward tape (Autodiff.sum_all tape n)
  in
  run ();
  run ();
  Alcotest.(check (float 1e-12)) "accumulated twice" 2.0 (Tensor.get p.Autodiff.Param.grad 0);
  Autodiff.Param.zero_grad p;
  Alcotest.(check (float 1e-12)) "zeroed" 0.0 (Tensor.get p.Autodiff.Param.grad 0)

(* --- optimizers --- *)

let test_adam_descends_rosenbrock_1d () =
  (* minimize (x - 3)^2 with Adam *)
  let p = Autodiff.Param.create "x" (Tensor.of_array [| 1 |] [| -2.0 |]) in
  let opt = Optim.adam ~lr:0.1 [ p ] in
  for _ = 1 to 500 do
    let tape = Autodiff.Tape.create () in
    let x = Autodiff.of_param tape p in
    let diff = Autodiff.sub tape x (Autodiff.const tape (Tensor.of_array [| 1 |] [| 3.0 |])) in
    Autodiff.backward tape (Autodiff.sum_all tape (Autodiff.square tape diff));
    ignore (Optim.step opt)
  done;
  Alcotest.(check bool) "converges to 3" true
    (Float.abs (Tensor.get p.Autodiff.Param.data 0 -. 3.0) < 1e-2)

(* The step clips before it updates. Adam divides the gradient's scale
   out of a single step, so the clip shows on the next one: a clipped
   step leaves exactly the state of an unclipped step on gradients
   pre-scaled by [max /. norm], and after a second, unclipped step the
   weights differ from a run that was never clipped. The step reports
   the pre-clip norm and leaves every gradient at +0.0. *)
let test_clip_grad_norm () =
  let run ~first max_grad_norm =
    let p = Autodiff.Param.create "p" (Tensor.zeros [| 4 |]) in
    let opt = Optim.adam ~lr:1.0 [ p ] in
    Tensor.fill_inplace p.Autodiff.Param.grad first;
    let norm = Optim.step ?max_grad_norm opt in
    Alcotest.(check bool) "gradients left at +0.0" true
      (Test_helpers.tensor_equal p.Autodiff.Param.grad (Tensor.zeros [| 4 |]));
    (* norm 1, under the bound *)
    Tensor.fill_inplace p.Autodiff.Param.grad 0.5;
    ignore (Optim.step opt);
    (norm, p.Autodiff.Param.data)
  in
  (* norm = 6; clipped to 1.5 every element becomes 3 * 0.25 = 0.75 *)
  let clipped_norm, clipped = run ~first:3.0 (Some 1.5) in
  let _, prescaled = run ~first:0.75 None in
  let free_norm, free = run ~first:3.0 None in
  Alcotest.(check (float 1e-9)) "reported pre-clip norm" 6.0 clipped_norm;
  Alcotest.(check (float 1e-9)) "reported norm, unclipped" 6.0 free_norm;
  Alcotest.(check bool) "clipped = pre-scaled" true (Test_helpers.tensor_equal clipped prescaled);
  Alcotest.(check bool) "clipping changes the update" false (Test_helpers.tensor_equal clipped free)

(* Neither the norm's accumulator nor the sweep's per-element values
   are boxed: one clipped Adam step over the 64-wide,
   two-layer-backbone policy's ~67k parameters allocates a constant
   handful of words, not a boxed float per element. *)
let test_clip_grad_norm_allocation () =
  let policy =
    Policy.create ~hidden:64 ~backbone_layers:2 (Util.Rng.create 3) Env_config.default
  in
  let params = Policy.params policy in
  List.iter (fun p -> Tensor.fill_inplace p.Autodiff.Param.grad 0.25) params;
  let opt = Optim.adam ~lr:1e-3 params in
  let w0 = Gc.minor_words () in
  let norm = Optim.step ~max_grad_norm:0.5 opt in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "clipped" true (norm > 0.5);
  if words >= 1000.0 then
    Alcotest.failf "Optim.step allocated %.0f minor words" words

(* A 64^3 [matmul_into] through a workspace, after a warm-up call that
   sizes the slot and the row kernel's scratch, allocates fewer than
   100 minor words per call. *)
let test_matmul_into_allocation () =
  let rng = Util.Rng.create 11 in
  let a = Tensor.init [| 64; 64 |] (fun _ -> Util.Rng.gaussian rng) in
  let b = Tensor.init [| 64; 64 |] (fun _ -> Util.Rng.gaussian rng) in
  let ws = Tensor.Workspace.create () in
  let call () =
    Tensor.Workspace.reset ws;
    ignore (Tensor.matmul_into ~dst:(Tensor.Workspace.get ws [| 64; 64 |]) a b)
  in
  call ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    call ()
  done;
  let words = (Gc.minor_words () -. w0) /. 100.0 in
  if words >= 100.0 then
    Alcotest.failf "matmul_into allocated %.0f minor words per call" words

(* The one-sweep step against the multi-pass reference in optim_ref.ml:
   same weights bit for bit after each of 1-3 steps, the same [save]
   bytes after the last, and every gradient +0.0 after each step.
   Gradients come from signed zeros, subnormals, tiny, normal and large
   values, so moments start at zero, become non-zero and stay or
   return to zero (a subnormal gradient leaves both moments at 0.0);
   weights include signed zeros, and a negative rate flips the sign of
   a zero update, so subtracting a signed zero shows. *)
let qcheck_optim_matches_reference =
  let grad_values = [| 0.0; -0.0; 5e-324; 1e-310; 1e-30; 0.37; 1.5; 1e3 |] in
  let gen =
    QCheck.Gen.(
      let grad = map2 (fun v neg -> if neg then -.v else v) (oneofa grad_values) bool in
      let shape = list_size (int_range 1 3) (int_range 1 6) in
      quad
        (pair shape (int_range 1 3))
        (oneofl [ 0.0; 1e-3; 0.1; -0.1 ])
        (oneofl [ None; Some 0.5; Some 1e-3; Some 1e6 ])
        (pair (list_repeat 60 grad)
           (list_repeat 20
              (frequency [ (8, float_range (-2.0) 2.0); (1, return 0.0); (1, return (-0.0)) ]))))
  in
  QCheck.Test.make ~name:"optimizer step matches the multi-pass reference" ~count:300
    (QCheck.make gen)
    (fun ((sizes, steps), lr, max_grad_norm, (grads, init)) ->
      let grads = Array.of_list grads and init = Array.of_list init in
      let mk () =
        List.mapi
          (fun i n ->
            Autodiff.Param.create (Printf.sprintf "p%d" i)
              (Tensor.init [| n |] (fun j -> init.((7 * i + j) mod 20))))
          sizes
      in
      let ps = mk () and rs = mk () in
      let opt = Optim.adam ~lr ps in
      let ref_opt = Optim_ref.adam ~lr rs in
      let same = ref true in
      for s = 0 to steps - 1 do
        Optim_ref.zero_grad ref_opt;
        List.iteri
          (fun i (p, r) ->
            for j = 0 to Autodiff.Param.numel p - 1 do
              let g = grads.((s * 17 + i * 6 + j) mod 60) in
              Tensor.set p.Autodiff.Param.grad j g;
              Tensor.set r.Autodiff.Param.grad j g
            done)
          (List.combine ps rs);
        let norm = Optim.step ?max_grad_norm opt in
        (match max_grad_norm with
        | Some m ->
            let ref_norm = Optim_ref.clip_grad_norm ref_opt m in
            if Int64.bits_of_float norm <> Int64.bits_of_float ref_norm then same := false
        | None -> ());
        Optim_ref.step ref_opt;
        List.iter2
          (fun (p : Autodiff.Param.t) (r : Autodiff.Param.t) ->
            if not (Test_helpers.tensor_equal p.data r.data) then same := false;
            if not (Test_helpers.tensor_equal p.grad (Tensor.zeros (Tensor.dims p.grad))) then
              same := false)
          ps rs
      done;
      !same
      && Test_helpers.written (fun oc -> Optim.write_state oc opt)
         = Test_helpers.written (fun oc -> Optim_ref.write_state oc ref_opt))

(* --- distributions --- *)

let test_masked_log_probs_excludes () =
  let tape = Autodiff.Tape.create () in
  let logits = Autodiff.const tape (Tensor.zeros [| 1; 4 |]) in
  let lp =
    Distributions.masked_log_probs tape logits
      ~mask:[| [| true; false; true; false |] |]
  in
  let v = Autodiff.value lp in
  Alcotest.(check bool) "masked ~ -inf" true (Tensor.get2 v 0 1 < -20.0);
  Alcotest.(check (float 1e-6)) "valid uniform" (log 0.5) (Tensor.get2 v 0 0)

let test_masked_log_probs_rejects_empty () =
  let tape = Autodiff.Tape.create () in
  let logits = Autodiff.const tape (Tensor.zeros [| 1; 2 |]) in
  Alcotest.(check bool) "raises" true
    (match Distributions.masked_log_probs tape logits ~mask:[| [| false; false |] |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sample_respects_mask () =
  let rng = Util.Rng.create 8 in
  let tape = Autodiff.Tape.create () in
  let logits = Autodiff.const tape (Tensor.zeros [| 1; 5 |]) in
  let lp =
    Distributions.masked_log_probs tape logits
      ~mask:[| [| false; true; false; true; false |] |]
  in
  for _ = 1 to 200 do
    let c = Distributions.sample rng (Autodiff.value lp) 0 in
    Alcotest.(check bool) "only unmasked" true (c = 1 || c = 3)
  done

let test_sample_distribution_matches () =
  let rng = Util.Rng.create 9 in
  let tape = Autodiff.Tape.create () in
  (* logits ln(1), ln(3): probabilities 0.25 / 0.75 *)
  let logits = Autodiff.const tape (Tensor.of_array [| 1; 2 |] [| 0.0; log 3.0 |]) in
  let lp = Distributions.masked_log_probs tape logits ~mask:[| [| true; true |] |] in
  let counts = [| 0; 0 |] in
  let n = 20_000 in
  for _ = 1 to n do
    let c = Distributions.sample rng (Autodiff.value lp) 0 in
    counts.(c) <- counts.(c) + 1
  done;
  let p1 = float_of_int counts.(1) /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.75" true (Float.abs (p1 -. 0.75) < 0.02)

let test_entropy_uniform_max () =
  let tape = Autodiff.Tape.create () in
  let uniform = Autodiff.const tape (Tensor.zeros [| 1; 4 |]) in
  let lp_u =
    Distributions.masked_log_probs tape uniform ~mask:[| Array.make 4 true |]
  in
  let h_u = Tensor.get (Autodiff.value (Distributions.entropy tape lp_u)) 0 in
  Alcotest.(check (float 1e-6)) "ln 4" (log 4.0) h_u;
  let peaked =
    Autodiff.const tape (Tensor.of_array [| 1; 4 |] [| 50.0; 0.0; 0.0; 0.0 |])
  in
  let lp_p =
    Distributions.masked_log_probs tape peaked ~mask:[| Array.make 4 true |]
  in
  let h_p = Tensor.get (Autodiff.value (Distributions.entropy tape lp_p)) 0 in
  Alcotest.(check bool) "peaked lower" true (h_p < h_u)

let qcheck_log_probs_normalized =
  QCheck.Test.make ~name:"masked log-probs sum to 1 over valid entries" ~count:100
    QCheck.(pair (int_range 0 999) (int_range 2 8))
    (fun (seed, k) ->
      let rng = Util.Rng.create seed in
      let tape = Autodiff.Tape.create () in
      let logits =
        Autodiff.const tape (Tensor.init [| 1; k |] (fun _ -> Util.Rng.gaussian rng))
      in
      let mask = Array.init k (fun i -> i = 0 || Util.Rng.bool rng) in
      let lp = Distributions.masked_log_probs tape logits ~mask:[| mask |] in
      let total = ref 0.0 in
      for j = 0 to k - 1 do
        total := !total +. exp (Tensor.get2 (Autodiff.value lp) 0 j)
      done;
      Float.abs (!total -. 1.0) < 1e-6)

let suite =
  [
    Alcotest.test_case "tensor create" `Quick test_tensor_create;
    Alcotest.test_case "of_array validates" `Quick test_tensor_of_array_validates;
    Alcotest.test_case "matmul known" `Quick test_tensor_matmul_known;
    Alcotest.test_case "matmul transposes agree" `Quick test_tensor_matmul_transposes_agree;
    Alcotest.test_case "add_bias" `Quick test_tensor_add_bias;
    Alcotest.test_case "sum_rows/argmax" `Quick test_tensor_sum_rows_argmax;
    Alcotest.test_case "reshape" `Quick test_tensor_reshape;
    Alcotest.test_case "equal is bitwise" `Quick test_tensor_equal_bitwise;
    Alcotest.test_case "transpose known" `Quick test_transpose_known;
    Alcotest.test_case "into kernels bit-identical" `Quick
      test_into_kernels_bit_identical;
    Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
    Alcotest.test_case "workspace prefix view/growth" `Quick
      test_workspace_prefix_view_and_growth;
    Alcotest.test_case "tape workspace grads bit-identical" `Quick
      test_tape_workspace_grads_bit_identical;
    Alcotest.test_case "grad: linear+relu" `Quick test_grad_linear_relu;
    Alcotest.test_case "grad: log_softmax+gather" `Quick test_grad_log_softmax_gather;
    Alcotest.test_case "grad: PPO-style loss" `Quick test_grad_ppo_style_loss;
    Alcotest.test_case "grad: slice+sum_rows" `Quick test_grad_slice_sum_rows;
    Alcotest.test_case "backward rejects non-scalar" `Quick test_backward_rejects_non_scalar;
    Alcotest.test_case "param grad accumulates" `Quick test_param_grad_accumulates;
    Alcotest.test_case "adam converges" `Quick test_adam_descends_rosenbrock_1d;
    Alcotest.test_case "clip grad norm" `Quick test_clip_grad_norm;
    Alcotest.test_case "clip grad norm allocation" `Quick
      test_clip_grad_norm_allocation;
    Alcotest.test_case "mask excludes" `Quick test_masked_log_probs_excludes;
    Alcotest.test_case "mask rejects empty" `Quick test_masked_log_probs_rejects_empty;
    Alcotest.test_case "sample respects mask" `Quick test_sample_respects_mask;
    Alcotest.test_case "sample distribution" `Quick test_sample_distribution_matches;
    Alcotest.test_case "entropy uniform max" `Quick test_entropy_uniform_max;
    QCheck_alcotest.to_alcotest qcheck_log_probs_normalized;
    QCheck_alcotest.to_alcotest qcheck_matmul_kernels_naive;
    QCheck_alcotest.to_alcotest qcheck_row_ops_naive;
    Alcotest.test_case "const-leaf pruning invisible" `Quick
      test_const_leaf_pruning_invisible;
    Alcotest.test_case "grad: gather/scatter/reshape" `Quick
      test_grad_gather_scatter_reshape;
    Alcotest.test_case "row ops reject bad indices" `Quick
      test_row_ops_reject_bad_indices;
    QCheck_alcotest.to_alcotest qcheck_optim_matches_reference;
    Alcotest.test_case "grad: accumulate arms bit-identical" `Quick
      test_grad_accumulate_arms_bit_identical;
    Alcotest.test_case "dense matmul not slower than naive" `Quick
      test_dense_matmul_not_slower;
    Alcotest.test_case "matmul_into steady-state allocation" `Quick
      test_matmul_into_allocation;
  ]

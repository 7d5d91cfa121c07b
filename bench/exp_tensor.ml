(* Tensor-kernel benchmark and smoke gate.

   Four jobs in one experiment:

   1. Kernel timings: the float-array naive matmul (reimplemented here
      as the reference) vs. the zero-skipping row kernel behind the
      allocating [Tensor.matmul] vs. the destination-passing
      [matmul_into] drawing from a workspace, on dense operands. Every
      timed pair is also checked for bitwise equality — the row kernel
      keeps the naive accumulation order by construction.
   2. The policy's own shapes: the first backbone layer (64 x 288 x 64,
      the left operand stacked from real [Env] observations) and a
      hidden layer (64 x 64 x 64 at 50% zeros, as after a ReLU), each
      timed in its forward, dA and dB product and checked bitwise
      against the naive loop.
   3. Bit-identity sweep: every [_into] kernel against its allocating
      twin on shapes chosen to hit the unroll remainders, across zero
      shares of the skipped operand.
   4. Training throughput, next to the committed Bigarray-rewrite
      baseline (commit 26afbad, same machine class), with GC stats —
      the >= 3x episodes/sec at --jobs 4 acceptance number.

   The full run writes BENCH_tensor.json; CI runs `--quick tensor` and
   greps for the "kernel smoke:" lines (any FAIL fails the gate). *)

let fill rng (t : Tensor.t) =
  for i = 0 to Tensor.numel t - 1 do
    Tensor.unsafe_set t i (Util.Rng.gaussian rng)
  done

(* The reference kernel: float arrays, naive i-p-j loop with memory
   accumulation, zeros included. The row kernel promises bit-identity to
   exactly this chain (per cell: products added in ascending p) for
   finite right operands. *)
let ref_matmul a b ~m ~k ~n =
  let out = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    let arow = i * k and orow = i * n in
    for p = 0 to k - 1 do
      let av = a.(arow + p) in
      let brow = p * n in
      for j = 0 to n - 1 do
        out.(orow + j) <- out.(orow + j) +. (av *. b.(brow + j))
      done
    done
  done;
  out

let ref_transpose x ~rows ~cols =
  Array.init (rows * cols) (fun i -> x.(((i mod rows) * cols) + (i / rows)))

let time_best ~reps ~iters f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let d = (Unix.gettimeofday () -. t0) /. float_of_int iters in
    if d < !best then best := d
  done;
  !best

type kernel_row = {
  m : int;
  k : int;
  n : int;
  naive_us : float;
  matmul_us : float;
  into_us : float;
  bit_identical : bool;
}

let smoke_failures = ref 0

let smoke name ok =
  if not ok then incr smoke_failures;
  Printf.printf "kernel smoke: %s %s\n" (if ok then "PASS" else "FAIL") name;
  ok

(* -- 1. dense timings -------------------------------------------------- *)

let kernel_timings ~sizes =
  Bench_common.subheading
    "dense matmul: naive float-array reference vs matmul vs into (+workspace)";
  Printf.printf "%14s %12s %12s %12s %10s %10s  %s\n" "m x k x n" "naive (us)"
    "matmul (us)" "into (us)" "mm spd" "into spd" "bitwise";
  let ws = Tensor.Workspace.create () in
  List.map
    (fun (m, k, n) ->
      let rng = Util.Rng.create 42 in
      let a = Tensor.zeros [| m; k |] and b = Tensor.zeros [| k; n |] in
      fill rng a;
      fill rng b;
      let fa = Tensor.to_array a and fb = Tensor.to_array b in
      let iters = max 1 (2_000_000 / (m * k * n)) and reps = 5 in
      let naive_us =
        1e6 *. time_best ~reps ~iters (fun () -> ignore (ref_matmul fa fb ~m ~k ~n))
      in
      let matmul_us =
        1e6 *. time_best ~reps ~iters (fun () -> ignore (Tensor.matmul a b))
      in
      let into_us =
        1e6
        *. time_best ~reps ~iters (fun () ->
               Tensor.Workspace.reset ws;
               ignore
                 (Tensor.matmul_into ~dst:(Tensor.Workspace.get ws [| m; n |]) a b))
      in
      let product = Tensor.matmul a b in
      let bit_identical =
        Tensor.equal product (Tensor.of_array [| m; n |] (ref_matmul fa fb ~m ~k ~n))
        && Tensor.equal product
             (Tensor.matmul_into ~dst:(Tensor.zeros [| m; n |]) a b)
      in
      Printf.printf "%4dx%4dx%4d %12.1f %12.1f %12.1f %9.2fx %9.2fx  %s\n" m k n
        naive_us matmul_us into_us (naive_us /. matmul_us)
        (naive_us /. into_us)
        (if bit_identical then "identical" else "MISMATCH");
      { m; k; n; naive_us; matmul_us; into_us; bit_identical })
    sizes

(* -- 2. the policy's shapes -------------------------------------------- *)

(* [rows] observations from seeded random-policy episodes on the train
   split, as a PPO minibatch stacks them. *)
let env_observations (c : Bench_common.config) ~rows =
  let cfg = Env_config.default in
  let env = Env.create cfg in
  let rng = Util.Rng.create c.Bench_common.seed in
  let policy = Policy.create ~hidden:64 ~backbone_layers:2 rng cfg in
  let ops = (Generator.generate ~seed:c.Bench_common.seed ()).Generator.train in
  let obs = ref [] and count = ref 0 and op_i = ref 0 in
  while !count < rows do
    let o = ref (Env.reset env ops.(!op_i mod Array.length ops)) in
    incr op_i;
    let fin = ref false in
    while (not !fin) && !count < rows do
      obs := !o :: !obs;
      incr count;
      let action, _, _ = Policy.act rng policy ~obs:!o ~masks:(Env.masks env) in
      let r = Env.step_hierarchical env action in
      o := r.Env.obs;
      fin := r.Env.terminal
    done
  done;
  Array.of_list (List.rev !obs)

type policy_row = {
  layer : string;
  pm : int;
  pk : int;
  pn : int;
  zero_share : float;  (* of the forward's left operand *)
  fwd_naive_us : float;
  fwd_us : float;
  da_naive_us : float;
  da_us : float;
  db_naive_us : float;
  db_us : float;
  identical : bool;  (* forward, dA and dB all equal the naive loop *)
}

let relu_like rng rows cols =
  Tensor.init [| rows; cols |] (fun _ -> Float.max 0.0 (Util.Rng.gaussian rng))

let zero_share t =
  let z = ref 0 in
  for i = 0 to Tensor.numel t - 1 do
    if Tensor.unsafe_get t i = 0.0 then incr z
  done;
  float_of_int !z /. float_of_int (Tensor.numel t)

(* Forward C = A W; dA = dC W^T into a zeroed gradient, as
   [Autodiff.matmul] adds it; dB = A^T dC with A transposed into a
   workspace, as [Autodiff.matmul] stages it. dC is at 50% zeros, like
   a ReLU's backward. *)
let policy_shape_row ~layer a rng =
  let m = (Tensor.dims a).(0) and k = (Tensor.dims a).(1) and n = 64 in
  let w = Tensor.zeros [| k; n |] in
  fill rng w;
  let dc = relu_like rng m n in
  let fa = Tensor.to_array a and fw = Tensor.to_array w and fdc = Tensor.to_array dc in
  let fwt = ref_transpose fw ~rows:k ~cols:n and fat = ref_transpose fa ~rows:m ~cols:k in
  let ws = Tensor.Workspace.create () in
  let fwd () =
    Tensor.Workspace.reset ws;
    Tensor.matmul_into ~dst:(Tensor.Workspace.get ws [| m; n |]) a w
  in
  let da () =
    Tensor.Workspace.reset ws;
    let g = Tensor.Workspace.get ws [| m; k |] in
    Tensor.fill_inplace g 0.0;
    Tensor.matmul_transpose_b_addto ~dst:g dc w;
    g
  in
  let db () =
    Tensor.Workspace.reset ws;
    let at = Tensor.transpose_into ~dst:(Tensor.Workspace.get ws [| k; m |]) a in
    Tensor.matmul_into ~dst:(Tensor.Workspace.get ws [| k; n |]) at dc
  in
  let same f expect ~rows ~cols =
    Tensor.equal (f ()) (Tensor.of_array [| rows; cols |] expect)
  in
  let identical =
    same fwd (ref_matmul fa fw ~m ~k ~n) ~rows:m ~cols:n
    && same da (ref_matmul fdc fwt ~m ~k:n ~n:k) ~rows:m ~cols:k
    && same db (ref_matmul fat fdc ~m:k ~k:m ~n) ~rows:k ~cols:n
  in
  let iters = max 1 (1_000_000 / (m * k * n)) and reps = 5 in
  let time f = 1e6 *. time_best ~reps ~iters (fun () -> ignore (f ())) in
  let r =
    {
      layer;
      pm = m;
      pk = k;
      pn = n;
      zero_share = zero_share a;
      fwd_naive_us = time (fun () -> ref_matmul fa fw ~m ~k ~n);
      fwd_us = time fwd;
      da_naive_us = time (fun () -> ref_matmul fdc fwt ~m ~k:n ~n:k);
      da_us = time da;
      db_naive_us = time (fun () -> ref_matmul fat fdc ~m:k ~k:m ~n);
      db_us = time db;
      identical;
    }
  in
  Printf.printf "%-10s %4dx%4dx%4d %6.1f%% %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f  %s\n"
    layer m k n (100.0 *. r.zero_share) r.fwd_naive_us r.fwd_us r.da_naive_us
    r.da_us r.db_naive_us r.db_us
    (if identical then "identical" else "MISMATCH");
  r

let policy_shapes c =
  Bench_common.subheading
    "policy shapes: forward / dA / dB, naive reference vs row kernel (us per call)";
  Printf.printf "%-10s %14s %7s %9s %9s %9s %9s %9s %9s  %s\n" "layer" "m x k x n"
    "zeros" "fwd naive" "fwd" "dA naive" "dA" "dB naive" "dB" "bitwise";
  let rng = Util.Rng.create 5 in
  let obs = Policy.obs_tensor_of_rows (env_observations c ~rows:64) in
  let hidden = relu_like rng 64 64 in
  let first = policy_shape_row ~layer:"backbone.0" obs rng in
  [ first; policy_shape_row ~layer:"hidden" hidden rng ]

(* -- 3. bit-identity sweep --------------------------------------------- *)

(* Shapes chosen to exercise the row kernel's edges: remainders of its
   4-wide unroll over the gathered columns, and single-row/column
   degenerate cases. *)
let odd_shapes = [ (1, 1, 1); (3, 5, 2); (5, 7, 3); (17, 13, 9); (33, 65, 17); (64, 64, 64) ]

(* Shares of the left operand zeroed, alternately +0.0 and -0.0. *)
let zero_shares = [ 0.0; 0.5; 0.94; 1.0 ]

let identity_sweep () =
  Bench_common.subheading
    "bit-identity: _into kernels vs allocating twins, across zero shares";
  let mismatches = ref [] in
  let check name ok = if not ok then mismatches := name :: !mismatches in
  let pairs = ref 0 in
  let eq name x y =
    incr pairs;
    check name (Tensor.equal x y)
  in
  List.iter
    (fun share ->
      List.iter
        (fun (m, k, n) ->
          let rng = Util.Rng.create (1000 + m + k + n) in
          let a =
            Tensor.init [| m; k |] (fun i ->
                let v = Util.Rng.gaussian rng in
                if Util.Rng.uniform rng < share then if i land 1 = 0 then 0.0 else -0.0
                else v)
          in
          let b = Tensor.zeros [| k; n |] in
          fill rng b;
          let tag op = Printf.sprintf "%s %dx%dx%d zeros=%g" op m k n share in
          let fa = Tensor.to_array a and fb = Tensor.to_array b in
          let naive = Tensor.of_array [| m; n |] (ref_matmul fa fb ~m ~k ~n) in
          eq (tag "matmul=naive") (Tensor.matmul a b) naive;
          eq (tag "matmul_into")
            (Tensor.matmul_into ~dst:(Tensor.zeros [| m; n |]) a b)
            (Tensor.matmul a b);
          let bt = Tensor.transpose b in
          eq (tag "matmul_transpose_b=naive") (Tensor.matmul_transpose_b a bt) naive;
          let addto = Tensor.zeros [| m; n |] in
          Tensor.matmul_transpose_b_addto ~dst:addto a bt;
          let via_alloc = Tensor.zeros [| m; n |] in
          Tensor.add_inplace via_alloc (Tensor.matmul_transpose_b a bt);
          eq (tag "matmul_transpose_b_addto") addto via_alloc;
          eq (tag "transpose_into")
            (Tensor.transpose_into ~dst:(Tensor.zeros [| k; m |]) a)
            (Tensor.transpose a))
        odd_shapes)
    zero_shares;
  (* Elementwise / reduction twins: one shape with odd dimensions
     suffices. *)
  let m = 17 and n = 13 in
  let rng = Util.Rng.create 7 in
  let x = Tensor.zeros [| m; n |] and y = Tensor.zeros [| m; n |] in
  let bias = Tensor.zeros [| n |] in
  fill rng x;
  fill rng y;
  fill rng bias;
  let d () = Tensor.zeros [| m; n |] in
  let eqt name a b = incr pairs; check name (Tensor.equal a b) in
  eqt "add_into" (Tensor.add_into ~dst:(d ()) x y) (Tensor.add x y);
  eqt "sub_into" (Tensor.sub_into ~dst:(d ()) x y) (Tensor.sub x y);
  eqt "mul_into" (Tensor.mul_into ~dst:(d ()) x y) (Tensor.mul x y);
  eqt "scale_into" (Tensor.scale_into 0.37 ~dst:(d ()) x) (Tensor.scale 0.37 x);
  eqt "relu_into" (Tensor.relu_into ~dst:(d ()) x) (Tensor.relu x);
  eqt "add_bias_into" (Tensor.add_bias_into ~dst:(d ()) x bias)
    (Tensor.add_bias x bias);
  eqt "slice_cols_into"
    (Tensor.slice_cols_into ~dst:(Tensor.zeros [| m; 5 |]) x ~lo:3 ~hi:8)
    (Tensor.slice_cols x ~lo:3 ~hi:8);
  eqt "sum_rows_into" (Tensor.sum_rows_into ~dst:(Tensor.zeros [| m |]) x)
    (Tensor.sum_rows x);
  eqt "map_into"
    (Tensor.map_into (fun v -> exp v) ~dst:(d ()) x)
    (Tensor.map (fun v -> exp v) x);
  eqt "map2_into"
    (Tensor.map2_into Float.min ~dst:(d ()) x y)
    (Tensor.map2 Float.min x y);
  Printf.printf "%d kernel pairs checked, %d mismatches\n" !pairs
    (List.length !mismatches);
  List.iter (fun name -> Printf.printf "  MISMATCH: %s\n" name) !mismatches;
  (!pairs, !mismatches)

(* -- allocation profile ------------------------------------------------ *)

let alloc_profile () =
  Bench_common.subheading "minor-heap allocation per matmul call (64x64x64)";
  let rng = Util.Rng.create 11 in
  let a = Tensor.zeros [| 64; 64 |] and b = Tensor.zeros [| 64; 64 |] in
  fill rng a;
  fill rng b;
  let ws = Tensor.Workspace.create () in
  let words f =
    f ();
    (* warm-up: workspace slot + any one-time boxing *)
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    (Gc.minor_words () -. w0) /. 100.0
  in
  let alloc_w = words (fun () -> ignore (Tensor.matmul a b)) in
  let into_w =
    words (fun () ->
        Tensor.Workspace.reset ws;
        ignore (Tensor.matmul_into ~dst:(Tensor.Workspace.get ws [| 64; 64 |]) a b))
  in
  Printf.printf
    "allocating: %.0f words/call | into+workspace: %.0f words/call\n" alloc_w
    into_w;
  (alloc_w, into_w)

(* -- 4. training throughput vs the Bigarray-rewrite baseline ----------- *)

(* Measured at commit 26afbad (float-array tensors, allocating kernels,
   default GC) on the 2-vCPU bench VM, `throughput` experiment, 6
   iterations. *)
let baseline_commit = "26afbad"
let baseline_eps = [ (1, 72.2); (2, 64.9); (4, 52.5) ]
let baseline_digest = "7fb8cb76a133"

type train_row = {
  jobs : int;
  eps_per_s : float;
  kwords_per_ep : float;
  majors : int;
  digest : string;
}

let training_after c ~iterations =
  Bench_common.subheading
    (Printf.sprintf "training throughput (%d iterations)" iterations);
  Printf.printf "%6s %12s %12s %7s %12s  %s\n" "jobs" "eps/s" "kwords/ep"
    "majors" "vs baseline" "digest";
  List.map
    (fun jobs ->
      let stats, wall, (minor_w, _minors, majors), _cache =
        Exp_throughput.train_once c ~jobs ~iterations
      in
      let episodes =
        match List.rev stats with [] -> 0 | s :: _ -> s.Trainer.episodes
      in
      let eps_per_s = float_of_int episodes /. wall in
      let kwords_per_ep = minor_w /. 1e3 /. float_of_int (max 1 episodes) in
      let digest =
        String.sub (Exp_throughput.stats_digest stats) 0 12
      in
      let base = List.assoc jobs baseline_eps in
      Printf.printf "%6d %12.1f %12.1f %7d %11.2fx  %s\n" jobs eps_per_s
        kwords_per_ep majors (eps_per_s /. base) digest;
      { jobs; eps_per_s; kwords_per_ep; majors; digest })
    [ 1; 2; 4 ]

(* -- harness ----------------------------------------------------------- *)

let json_of_results ~quick (kernels : kernel_row list) (shapes : policy_row list)
    ~pairs ~mismatches ~alloc_words ~into_words (after : train_row list) =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let sep i l = if i = List.length l - 1 then "" else "," in
  add "{\n";
  add "  \"bench\": \"tensor\",\n";
  add "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  add "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"m\": %d, \"k\": %d, \"n\": %d, \"naive_us\": %.1f, \
         \"matmul_us\": %.1f, \"into_us\": %.1f, \"speedup_matmul\": %.2f, \
         \"speedup_into\": %.2f, \"bit_identical\": %b}%s\n"
        r.m r.k r.n r.naive_us r.matmul_us r.into_us
        (r.naive_us /. r.matmul_us)
        (r.naive_us /. r.into_us)
        r.bit_identical (sep i kernels))
    kernels;
  add "  ],\n";
  add "  \"policy_shapes\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"layer\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, \
         \"zero_share\": %.3f, \"fwd_naive_us\": %.1f, \"fwd_us\": %.1f, \
         \"da_naive_us\": %.1f, \"da_us\": %.1f, \"db_naive_us\": %.1f, \
         \"db_us\": %.1f, \"bit_identical\": %b}%s\n"
        r.layer r.pm r.pk r.pn r.zero_share r.fwd_naive_us r.fwd_us
        r.da_naive_us r.da_us r.db_naive_us r.db_us r.identical (sep i shapes))
    shapes;
  add "  ],\n";
  add "  \"bit_identity\": {\"pairs_checked\": %d, \"mismatches\": %d},\n" pairs
    mismatches;
  add
    "  \"alloc\": {\"matmul_minor_words_per_call\": %.0f, \
     \"matmul_into_minor_words_per_call\": %.0f},\n"
    alloc_words into_words;
  add "  \"training\": {\n";
  add "    \"baseline_commit\": \"%s\",\n" baseline_commit;
  add "    \"baseline_digest\": \"%s\",\n" baseline_digest;
  add "    \"before\": [\n";
  List.iteri
    (fun i (jobs, eps) ->
      add "      {\"jobs\": %d, \"eps_per_s\": %.1f}%s\n" jobs eps (sep i baseline_eps))
    baseline_eps;
  add "    ],\n";
  add "    \"after\": [\n";
  List.iteri
    (fun i r ->
      add
        "      {\"jobs\": %d, \"eps_per_s\": %.1f, \"kwords_per_ep\": %.1f, \
         \"majors\": %d, \"digest\": \"%s\"}%s\n"
        r.jobs r.eps_per_s r.kwords_per_ep r.majors r.digest (sep i after))
    after;
  add "    ]";
  (match List.find_opt (fun r -> r.jobs = 4) after with
  | Some r ->
      add ",\n    \"speedup_jobs4\": %.2f\n"
        (r.eps_per_s /. List.assoc 4 baseline_eps)
  | None -> add "\n");
  add "  }\n";
  add "}\n";
  Buffer.contents b

let run ?(quick = false) (c : Bench_common.config) =
  Bench_common.heading "tensor kernels: zero-skipping matmul, workspaces, GC profile";
  smoke_failures := 0;
  let sizes =
    if quick then [ (32, 64, 32); (64, 64, 64); (64, 128, 128) ]
    else [ (32, 64, 32); (64, 64, 64); (64, 128, 128); (128, 128, 128); (256, 256, 128) ]
  in
  let kernels = kernel_timings ~sizes in
  let shapes = policy_shapes c in
  let pairs, mismatches = identity_sweep () in
  let alloc_words, into_words = alloc_profile () in
  ignore
    (smoke "dense matmul bit-identical to naive float-array reference"
       (List.for_all (fun r -> r.bit_identical) kernels));
  ignore
    (smoke "policy-shape forward, dA and dB bit-identical to naive reference"
       (List.for_all (fun r -> r.identical) shapes));
  ignore
    (smoke "_into kernels bit-identical to allocating twins" (mismatches = []));
  (* Tiny sizes are noise-bound. Gate on the largest benched size with
     20% headroom for CI jitter. *)
  let largest = List.nth kernels (List.length kernels - 1) in
  ignore
    (smoke
       (Printf.sprintf "dense matmul not slower than naive (%.2fx at %dx%dx%d)"
          (largest.naive_us /. largest.matmul_us)
          largest.m largest.k largest.n)
       (largest.matmul_us <= largest.naive_us *. 1.2));
  ignore
    (smoke "into-kernel steady state allocates < 100 minor words per matmul"
       (into_words < 100.0));
  let after =
    if quick then []
    else training_after c ~iterations:6
  in
  (match List.find_opt (fun r -> r.jobs = 4) after with
  | Some r ->
      ignore
        (smoke
           (Printf.sprintf "train --jobs 4 at %.2fx the pre-PR baseline"
              (r.eps_per_s /. List.assoc 4 baseline_eps))
           (r.eps_per_s >= 3.0 *. List.assoc 4 baseline_eps));
      ignore
        (smoke "training digest unchanged from the baseline"
           (List.for_all (fun r -> r.digest = baseline_digest) after))
  | None -> ());
  if not quick then begin
    let json =
      json_of_results ~quick kernels shapes ~pairs
        ~mismatches:(List.length mismatches) ~alloc_words ~into_words after
    in
    let path = "BENCH_tensor.json" in
    Util.Atomic_file.write_string ~path json;
    Printf.printf "\nwrote %s\n" path
  end;
  if !smoke_failures > 0 then
    Printf.printf "tensor kernel smoke: %d FAILURES\n" !smoke_failures
  else Printf.printf "tensor kernel smoke: all gates passed\n"

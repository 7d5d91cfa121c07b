type counts = {
  c_matmul : int;
  c_conv2d : int;
  c_maxpool : int;
  c_add : int;
  c_relu : int;
}

let table2_train =
  { c_matmul = 175; c_conv2d = 232; c_maxpool = 200; c_add = 248; c_relu = 233 }

let table2_validation =
  { c_matmul = 15; c_conv2d = 18; c_maxpool = 10; c_add = 10; c_relu = 14 }

type split = { train : Linalg.t array; validation : Linalg.t array }

(* Shape menus typical of the networks the paper scraped: transformer
   projections and MLPs for matmul; vision backbone stages for conv and
   pooling; activation/residual tensors for add and relu. *)

let matmul_dims = [| 64; 128; 256; 384; 512; 768; 1024; 2048 |]
let matmul_inner = [| 64; 128; 256; 512; 768; 1024; 2048; 4096 |]

let conv_spatial = [| 112; 56; 28; 14 |]
let conv_channels = [| 3; 16; 32; 64; 128; 256 |]
let conv_filters = [| 16; 32; 64; 128; 256; 512 |]
let conv_kernels = [| 1; 3; 5 |]
let conv_strides = [| 1; 2 |]

let pool_spatial = [| 112; 56; 28 |]
let pool_channels = [| 16; 32; 64; 128; 256 |]
let pool_kernels = [| 2; 3 |]

let ew_rows = [| 128; 256; 512; 1024; 2048; 4096 |]
let ew_cols = [| 128; 256; 512; 1024; 2048; 4096 |]
let ew_spatial = [| 56; 28; 14 |]
let ew_channels = [| 32; 64; 128; 256 |]

let random_matmul rng =
  Linalg.matmul
    ~m:(Util.Rng.choice rng matmul_dims)
    ~n:(Util.Rng.choice rng matmul_dims)
    ~k:(Util.Rng.choice rng matmul_inner)
    ()

let random_conv2d rng =
  let rec draw () =
    let spatial = Util.Rng.choice rng conv_spatial in
    let kernel = Util.Rng.choice rng conv_kernels in
    let stride = Util.Rng.choice rng conv_strides in
    if kernel > spatial then draw ()
    else
      Linalg.conv2d
        {
          Linalg.batch = 1;
          in_h = spatial;
          in_w = spatial;
          channels = Util.Rng.choice rng conv_channels;
          kernel_h = kernel;
          kernel_w = kernel;
          filters = Util.Rng.choice rng conv_filters;
          stride;
        }
  in
  draw ()

let random_maxpool rng =
  let spatial = Util.Rng.choice rng pool_spatial in
  let kernel = Util.Rng.choice rng pool_kernels in
  Linalg.maxpool
    {
      Linalg.p_batch = 1;
      p_in_h = spatial;
      p_in_w = spatial;
      p_channels = Util.Rng.choice rng pool_channels;
      p_kernel = kernel;
      p_stride = kernel;
    }

let random_ew_shape rng =
  if Util.Rng.bool rng then
    [| Util.Rng.choice rng ew_rows; Util.Rng.choice rng ew_cols |]
  else begin
    let s = Util.Rng.choice rng ew_spatial in
    [| 1; s; s; Util.Rng.choice rng ew_channels |]
  end

let random_add rng = Linalg.add (random_ew_shape rng)
let random_relu rng = Linalg.relu (random_ew_shape rng)

let random_batch_matmul rng =
  Linalg.batch_matmul
    ~b:(Util.Rng.choice rng [| 2; 4; 8; 12; 16 |])
    ~m:(Util.Rng.choice rng [| 64; 128; 256; 512 |])
    ~n:(Util.Rng.choice rng [| 64; 128; 256; 512 |])
    ~k:(Util.Rng.choice rng [| 64; 128; 256; 512 |])
    ()

let random_dwconv rng =
  let rec draw () =
    let spatial = Util.Rng.choice rng conv_spatial in
    let kernel = Util.Rng.choice rng conv_kernels in
    if kernel > spatial then draw ()
    else
      Linalg.depthwise_conv2d
        {
          Linalg.batch = 1;
          in_h = spatial;
          in_w = spatial;
          channels = Util.Rng.choice rng conv_channels;
          kernel_h = kernel;
          kernel_w = kernel;
          filters = 1;
          stride = Util.Rng.choice rng conv_strides;
        }
  in
  draw ()

let random_avgpool rng =
  let spatial = Util.Rng.choice rng pool_spatial in
  let kernel = Util.Rng.choice rng pool_kernels in
  Linalg.avgpool
    {
      Linalg.p_batch = 1;
      p_in_h = spatial;
      p_in_w = spatial;
      p_channels = Util.Rng.choice rng pool_channels;
      p_kernel = kernel;
      p_stride = kernel;
    }

let random_op rng kind =
  match kind with
  | "matmul" -> random_matmul rng
  | "batch_matmul" -> random_batch_matmul rng
  | "conv2d" -> random_conv2d rng
  | "conv2d_nchw" -> (
      match (random_conv2d rng).Linalg.kind with
      | Linalg.Conv2d p -> Linalg.conv2d_nchw p
      | _ -> assert false)
  | "dwconv" -> random_dwconv rng
  | "maxpool" -> random_maxpool rng
  | "avgpool" -> random_avgpool rng
  | "add" -> random_add rng
  | "relu" -> random_relu rng
  | "mul" -> Linalg.binary Linalg.Mul_k (random_ew_shape rng)
  | "sub" -> Linalg.binary Linalg.Sub_k (random_ew_shape rng)
  | "div" -> Linalg.binary Linalg.Div_k (random_ew_shape rng)
  | "exp" -> Linalg.unary Linalg.Exp_k (random_ew_shape rng)
  | "log" -> Linalg.unary Linalg.Log_k (random_ew_shape rng)
  | "bias_add" ->
      Linalg.bias_add
        [| Util.Rng.choice rng ew_rows; Util.Rng.choice rng ew_cols |]
  | k -> invalid_arg ("Generator.random_op: unknown kind " ^ k)

let generate_counts rng tag counts =
  let ops = ref [] in
  let emit kind n =
    for i = 1 to n do
      let op = random_op rng kind in
      let op =
        { op with Linalg.op_name = Printf.sprintf "%s_%s_%03d" tag op.Linalg.op_name i }
      in
      ops := op :: !ops
    done
  in
  emit "matmul" counts.c_matmul;
  emit "conv2d" counts.c_conv2d;
  emit "maxpool" counts.c_maxpool;
  emit "add" counts.c_add;
  emit "relu" counts.c_relu;
  Array.of_list (List.rev !ops)

let generate ~seed () =
  let rng = Util.Rng.create seed in
  let train_rng = Util.Rng.split rng in
  let val_rng = Util.Rng.split rng in
  {
    train = generate_counts train_rng "train" table2_train;
    validation = generate_counts val_rng "val" table2_validation;
  }

let kind_counts ops =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      let k = Linalg.kind_name op in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    ops;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

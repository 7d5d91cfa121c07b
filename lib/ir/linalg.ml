type iter_kind = Parallel_iter | Reduction_iter
type binop = Add | Sub | Mul | Div | Max
type unop = Exp | Log | Neg

type scalar_expr =
  | Input of int
  | Output
  | Const of float
  | Binop of binop * scalar_expr * scalar_expr
  | Unop of unop * scalar_expr

type operand = { name : string; shape : int array; map : Affine.map }

type conv_params = {
  batch : int;
  in_h : int;
  in_w : int;
  channels : int;
  kernel_h : int;
  kernel_w : int;
  filters : int;
  stride : int;
}

type pool_params = {
  p_batch : int;
  p_in_h : int;
  p_in_w : int;
  p_channels : int;
  p_kernel : int;
  p_stride : int;
}

type unary_kind = Exp_k | Log_k | Relu_k
type binary_kind = Add_k | Sub_k | Mul_k | Div_k

type kind =
  | Matmul of { m : int; n : int; k : int }
  | Batch_matmul of { bb : int; m : int; n : int; k : int }
  | Conv2d of conv_params
  | Conv2d_nchw of conv_params
  | Depthwise_conv2d of conv_params
  | Maxpool of pool_params
  | Avgpool of pool_params
  | Add_op of int array
  | Relu_op of int array
  | Unary_op of unary_kind * int array
  | Binary_op of binary_kind * int array
  | Bias_add of int array
  | Generic_op

type t = {
  op_name : string;
  kind : kind;
  domain : int array;
  iter_kinds : iter_kind array;
  inputs : operand array;
  output : operand;
  body : scalar_expr;
  init : float option;
}

let n_loops op = Array.length op.domain
let loop_bounds op = Array.copy op.domain
let iteration_count op = Array.fold_left ( * ) 1 op.domain

let is_conv op = match op.kind with Conv2d _ -> true | _ -> false

let rec body_uses_output = function
  | Output -> true
  | Input _ | Const _ -> false
  | Binop (_, a, b) -> body_uses_output a || body_uses_output b
  | Unop (_, e) -> body_uses_output e

let rec max_input_index = function
  | Input i -> i
  | Output | Const _ -> -1
  | Binop (_, a, b) -> max (max_input_index a) (max_input_index b)
  | Unop (_, e) -> max_input_index e

let validate op =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = Array.length op.domain in
  if Array.length op.iter_kinds <> n then
    err "op %s: %d iter kinds for %d loops" op.op_name
      (Array.length op.iter_kinds) n
  else if Array.exists (fun b -> b <= 0) op.domain then
    err "op %s: non-positive loop bound" op.op_name
  else
    let check_operand o =
      if o.map.Affine.n_dims <> n then
        err "operand %s: map over %d dims, expected %d" o.name
          o.map.Affine.n_dims n
      else if Affine.rank o.map <> Array.length o.shape then
        err "operand %s: map rank %d but shape rank %d" o.name
          (Affine.rank o.map)
          (Array.length o.shape)
      else begin
        (* With non-negative coefficients the maximal subscript is reached
           at the far corner of the domain; check bounds there and at 0. *)
        let corner = Array.map (fun b -> b - 1) op.domain in
        let zeros = Array.make n 0 in
        let hi = Affine.eval_map o.map corner in
        let lo = Affine.eval_map o.map zeros in
        let ok = ref (Ok ()) in
        Array.iteri
          (fun d s ->
            if hi.(d) >= s || lo.(d) < 0 then
              ok :=
                err "operand %s: subscript %d out of bounds [0, %d)" o.name
                  hi.(d) s)
          o.shape;
        !ok
      end
    in
    let rec first_err = function
      | [] -> Ok ()
      | o :: rest -> (
          match check_operand o with Ok () -> first_err rest | e -> e)
    in
    match first_err (Array.to_list op.inputs @ [ op.output ]) with
    | Error _ as e -> e
    | Ok () ->
        let max_in = max_input_index op.body in
        if max_in >= Array.length op.inputs then
          err "op %s: body reads input %d of %d" op.op_name max_in
            (Array.length op.inputs)
        else if body_uses_output op.body && op.init = None then
          err "op %s: reduction body without init value" op.op_name
        else Ok ()

let checked op =
  match validate op with Ok () -> op | Error msg -> invalid_arg msg

let matmul ?name ~m ~n ~k () =
  let nd = 3 in
  let name =
    match name with Some s -> s | None -> Printf.sprintf "matmul_%dx%dx%d" m n k
  in
  checked
    {
      op_name = name;
      kind = Matmul { m; n; k };
      domain = [| m; n; k |];
      iter_kinds = [| Parallel_iter; Parallel_iter; Reduction_iter |];
      inputs =
        [|
          { name = "A"; shape = [| m; k |]; map = Affine.projection_map nd [ 0; 2 ] };
          { name = "B"; shape = [| k; n |]; map = Affine.projection_map nd [ 2; 1 ] };
        |];
      output =
        { name = "C"; shape = [| m; n |]; map = Affine.projection_map nd [ 0; 1 ] };
      body = Binop (Add, Output, Binop (Mul, Input 0, Input 1));
      init = Some 0.0;
    }

let batch_matmul ~b ~m ~n ~k () =
  let nd = 4 in
  let name =
    Printf.sprintf "batch_matmul_%dx%dx%dx%d" b m n k
  in
  checked
    {
      op_name = name;
      kind = Batch_matmul { bb = b; m; n; k };
      domain = [| b; m; n; k |];
      iter_kinds =
        [| Parallel_iter; Parallel_iter; Parallel_iter; Reduction_iter |];
      inputs =
        [|
          {
            name = "A";
            shape = [| b; m; k |];
            map = Affine.projection_map nd [ 0; 1; 3 ];
          };
          {
            name = "B";
            shape = [| b; k; n |];
            map = Affine.projection_map nd [ 0; 3; 2 ];
          };
        |];
      output =
        { name = "C"; shape = [| b; m; n |]; map = Affine.projection_map nd [ 0; 1; 2 ] };
      body = Binop (Add, Output, Binop (Mul, Input 0, Input 1));
      init = Some 0.0;
    }

let conv_out_dim ~in_dim ~kernel ~stride =
  if kernel > in_dim then
    invalid_arg "Linalg.conv2d: kernel larger than input";
  ((in_dim - kernel) / stride) + 1

let conv2d (p : conv_params) =
  if p.stride <= 0 then invalid_arg "Linalg.conv2d: stride must be positive";
  let oh = conv_out_dim ~in_dim:p.in_h ~kernel:p.kernel_h ~stride:p.stride in
  let ow = conv_out_dim ~in_dim:p.in_w ~kernel:p.kernel_w ~stride:p.stride in
  let nd = 7 in
  (* Iterators: (n, oh, ow, f, kh, kw, c). *)
  let input_map =
    Affine.map_of_exprs nd
      [
        Affine.dim nd 0;
        Affine.expr nd [ (1, p.stride); (4, 1) ];
        Affine.expr nd [ (2, p.stride); (5, 1) ];
        Affine.dim nd 6;
      ]
  in
  let filter_map = Affine.projection_map nd [ 4; 5; 6; 3 ] in
  let out_map = Affine.projection_map nd [ 0; 1; 2; 3 ] in
  let name =
    Printf.sprintf "conv2d_n%d_%dx%dx%d_k%dx%d_f%d_s%d" p.batch p.in_h
      p.in_w p.channels p.kernel_h p.kernel_w p.filters p.stride
  in
  checked
    {
      op_name = name;
      kind = Conv2d p;
      domain = [| p.batch; oh; ow; p.filters; p.kernel_h; p.kernel_w; p.channels |];
      iter_kinds =
        [|
          Parallel_iter; Parallel_iter; Parallel_iter; Parallel_iter;
          Reduction_iter; Reduction_iter; Reduction_iter;
        |];
      inputs =
        [|
          {
            name = "input";
            shape = [| p.batch; p.in_h; p.in_w; p.channels |];
            map = input_map;
          };
          {
            name = "filter";
            shape = [| p.kernel_h; p.kernel_w; p.channels; p.filters |];
            map = filter_map;
          };
        |];
      output =
        { name = "output"; shape = [| p.batch; oh; ow; p.filters |]; map = out_map };
      body = Binop (Add, Output, Binop (Mul, Input 0, Input 1));
      init = Some 0.0;
    }

let conv2d_nchw (p : conv_params) =
  if p.stride <= 0 then invalid_arg "Linalg.conv2d_nchw: stride must be positive";
  let oh = conv_out_dim ~in_dim:p.in_h ~kernel:p.kernel_h ~stride:p.stride in
  let ow = conv_out_dim ~in_dim:p.in_w ~kernel:p.kernel_w ~stride:p.stride in
  let nd = 7 in
  (* Iterators: (n, oh, ow, f, kh, kw, c) — same domain as NHWC. *)
  let input_map =
    Affine.map_of_exprs nd
      [
        Affine.dim nd 0;
        Affine.dim nd 6;
        Affine.expr nd [ (1, p.stride); (4, 1) ];
        Affine.expr nd [ (2, p.stride); (5, 1) ];
      ]
  in
  let filter_map = Affine.projection_map nd [ 3; 6; 4; 5 ] in
  let out_map = Affine.projection_map nd [ 0; 3; 1; 2 ] in
  let name =
    Printf.sprintf "conv2d_nchw_n%d_%dx%dx%d_k%dx%d_f%d_s%d" p.batch
      p.in_h p.in_w p.channels p.kernel_h p.kernel_w p.filters p.stride
  in
  checked
    {
      op_name = name;
      kind = Conv2d_nchw p;
      domain = [| p.batch; oh; ow; p.filters; p.kernel_h; p.kernel_w; p.channels |];
      iter_kinds =
        [|
          Parallel_iter; Parallel_iter; Parallel_iter; Parallel_iter;
          Reduction_iter; Reduction_iter; Reduction_iter;
        |];
      inputs =
        [|
          {
            name = "input";
            shape = [| p.batch; p.channels; p.in_h; p.in_w |];
            map = input_map;
          };
          {
            name = "filter";
            shape = [| p.filters; p.channels; p.kernel_h; p.kernel_w |];
            map = filter_map;
          };
        |];
      output =
        { name = "output"; shape = [| p.batch; p.filters; oh; ow |]; map = out_map };
      body = Binop (Add, Output, Binop (Mul, Input 0, Input 1));
      init = Some 0.0;
    }

let depthwise_conv2d (p : conv_params) =
  if p.stride <= 0 then
    invalid_arg "Linalg.depthwise_conv2d: stride must be positive";
  let oh = conv_out_dim ~in_dim:p.in_h ~kernel:p.kernel_h ~stride:p.stride in
  let ow = conv_out_dim ~in_dim:p.in_w ~kernel:p.kernel_w ~stride:p.stride in
  let nd = 6 in
  (* Iterators: (n, oh, ow, c, kh, kw). *)
  let input_map =
    Affine.map_of_exprs nd
      [
        Affine.dim nd 0;
        Affine.expr nd [ (1, p.stride); (4, 1) ];
        Affine.expr nd [ (2, p.stride); (5, 1) ];
        Affine.dim nd 3;
      ]
  in
  let filter_map = Affine.projection_map nd [ 4; 5; 3 ] in
  let out_map = Affine.projection_map nd [ 0; 1; 2; 3 ] in
  let name =
    Printf.sprintf "dwconv_n%d_%dx%dx%d_k%dx%d_s%d" p.batch p.in_h p.in_w
      p.channels p.kernel_h p.kernel_w p.stride
  in
  checked
    {
      op_name = name;
      kind = Depthwise_conv2d p;
      domain = [| p.batch; oh; ow; p.channels; p.kernel_h; p.kernel_w |];
      iter_kinds =
        [|
          Parallel_iter; Parallel_iter; Parallel_iter; Parallel_iter;
          Reduction_iter; Reduction_iter;
        |];
      inputs =
        [|
          {
            name = "input";
            shape = [| p.batch; p.in_h; p.in_w; p.channels |];
            map = input_map;
          };
          {
            name = "filter";
            shape = [| p.kernel_h; p.kernel_w; p.channels |];
            map = filter_map;
          };
        |];
      output =
        { name = "output"; shape = [| p.batch; oh; ow; p.channels |]; map = out_map };
      body = Binop (Add, Output, Binop (Mul, Input 0, Input 1));
      init = Some 0.0;
    }

let maxpool (p : pool_params) =
  if p.p_stride <= 0 then invalid_arg "Linalg.maxpool: stride must be positive";
  let oh = conv_out_dim ~in_dim:p.p_in_h ~kernel:p.p_kernel ~stride:p.p_stride in
  let ow = conv_out_dim ~in_dim:p.p_in_w ~kernel:p.p_kernel ~stride:p.p_stride in
  let nd = 6 in
  (* Iterators: (n, oh, ow, c, kh, kw). *)
  let input_map =
    Affine.map_of_exprs nd
      [
        Affine.dim nd 0;
        Affine.expr nd [ (1, p.p_stride); (4, 1) ];
        Affine.expr nd [ (2, p.p_stride); (5, 1) ];
        Affine.dim nd 3;
      ]
  in
  let out_map = Affine.projection_map nd [ 0; 1; 2; 3 ] in
  let name =
    Printf.sprintf "maxpool_n%d_%dx%dx%d_k%d_s%d" p.p_batch p.p_in_h
      p.p_in_w p.p_channels p.p_kernel p.p_stride
  in
  checked
    {
      op_name = name;
      kind = Maxpool p;
      domain = [| p.p_batch; oh; ow; p.p_channels; p.p_kernel; p.p_kernel |];
      iter_kinds =
        [|
          Parallel_iter; Parallel_iter; Parallel_iter; Parallel_iter;
          Reduction_iter; Reduction_iter;
        |];
      inputs =
        [|
          {
            name = "input";
            shape = [| p.p_batch; p.p_in_h; p.p_in_w; p.p_channels |];
            map = input_map;
          };
        |];
      output =
        { name = "output"; shape = [| p.p_batch; oh; ow; p.p_channels |]; map = out_map };
      body = Binop (Max, Output, Input 0);
      init = Some neg_infinity;
    }

let avgpool (p : pool_params) =
  if p.p_stride <= 0 then invalid_arg "Linalg.avgpool: stride must be positive";
  let mp = maxpool p in
  let inv_area = 1.0 /. float_of_int (p.p_kernel * p.p_kernel) in
  let name =
    Printf.sprintf "avgpool_n%d_%dx%dx%d_k%d_s%d" p.p_batch p.p_in_h
      p.p_in_w p.p_channels p.p_kernel p.p_stride
  in
  checked
    {
      mp with
      op_name = name;
      kind = Avgpool p;
      body = Binop (Add, Output, Binop (Mul, Input 0, Const inv_area));
      init = Some 0.0;
    }

let elementwise ~tag ~kind ~n_inputs ~body shape =
  let nd = Array.length shape in
  if nd = 0 then invalid_arg "Linalg: elementwise op needs rank >= 1";
  let id = Affine.identity_map nd in
  let dims_str =
    String.concat "x" (Array.to_list (Array.map string_of_int shape))
  in
  let name =
    Printf.sprintf "%s_%s" tag dims_str
  in
  checked
    {
      op_name = name;
      kind;
      domain = Array.copy shape;
      iter_kinds = Array.make nd Parallel_iter;
      inputs =
        Array.init n_inputs (fun i ->
            { name = Printf.sprintf "in%d" i; shape = Array.copy shape; map = id });
      output = { name = "out"; shape = Array.copy shape; map = id };
      body;
      init = None;
    }

let add shape =
  elementwise ~tag:"add" ~kind:(Add_op (Array.copy shape)) ~n_inputs:2
    ~body:(Binop (Add, Input 0, Input 1))
    shape

let relu shape =
  elementwise ~tag:"relu" ~kind:(Relu_op (Array.copy shape)) ~n_inputs:1
    ~body:(Binop (Max, Input 0, Const 0.0))
    shape

let unary k shape =
  let tag, body =
    match k with
    | Exp_k -> ("exp", Unop (Exp, Input 0))
    | Log_k -> ("log", Unop (Log, Input 0))
    | Relu_k -> ("relu", Binop (Max, Input 0, Const 0.0))
  in
  elementwise ~tag ~kind:(Unary_op (k, Array.copy shape)) ~n_inputs:1
    ~body shape

let binary k shape =
  let tag, op =
    match k with
    | Add_k -> ("add2", Add)
    | Sub_k -> ("sub", Sub)
    | Mul_k -> ("mul", Mul)
    | Div_k -> ("div", Div)
  in
  elementwise ~tag ~kind:(Binary_op (k, Array.copy shape)) ~n_inputs:2
    ~body:(Binop (op, Input 0, Input 1))
    shape

let bias_add shape =
  let nd = Array.length shape in
  if nd < 2 then invalid_arg "Linalg.bias_add: rank >= 2 required";
  let id = Affine.identity_map nd in
  let bias_map = Affine.projection_map nd [ nd - 1 ] in
  let dims_str =
    String.concat "x" (Array.to_list (Array.map string_of_int shape))
  in
  let name =
    Printf.sprintf "bias_add_%s" dims_str
  in
  checked
    {
      op_name = name;
      kind = Bias_add (Array.copy shape);
      domain = Array.copy shape;
      iter_kinds = Array.make nd Parallel_iter;
      inputs =
        [|
          { name = "x"; shape = Array.copy shape; map = id };
          { name = "bias"; shape = [| shape.(nd - 1) |]; map = bias_map };
        |];
      output = { name = "out"; shape = Array.copy shape; map = id };
      body = Binop (Add, Input 0, Input 1);
      init = None;
    }

let generic ?(name = "generic") ~domain ~iter_kinds ~inputs ~output ~body ?init
    () =
  checked
    {
      op_name = name;
      kind = Generic_op;
      domain;
      iter_kinds;
      inputs = Array.of_list inputs;
      output;
      body;
      init;
    }

let math_op_counts op =
  let counts = Array.make 6 0 in
  let rec go = function
    | Input _ | Output | Const _ -> ()
    | Binop (b, a, c) ->
        (match b with
        | Add -> counts.(0) <- counts.(0) + 1
        | Sub -> counts.(1) <- counts.(1) + 1
        | Mul -> counts.(2) <- counts.(2) + 1
        | Div -> counts.(3) <- counts.(3) + 1
        | Max -> () (* max is a comparison, not counted by the paper *));
        go a;
        go c
    | Unop (u, e) ->
        (match u with
        | Exp -> counts.(4) <- counts.(4) + 1
        | Log -> counts.(5) <- counts.(5) + 1
        | Neg -> ());
        go e
  in
  go op.body;
  counts

let flops_per_point op =
  let rec go = function
    | Input _ | Output | Const _ -> 0
    | Binop (_, a, b) -> 1 + go a + go b
    | Unop (_, e) -> 1 + go e
  in
  go op.body

let buffer_size shape = Array.fold_left ( * ) 1 shape

let flat_index shape subscripts =
  let idx = ref 0 in
  for d = 0 to Array.length shape - 1 do
    idx := (!idx * shape.(d)) + subscripts.(d)
  done;
  !idx

let eval_binop b x y =
  match b with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Max -> Float.max x y

let eval_unop u x =
  match u with Exp -> exp x | Log -> log x | Neg -> -.x

let execute_reference op bindings =
  let find_buffer (o : operand) =
    match List.assoc_opt o.name bindings with
    | None -> invalid_arg ("Linalg.execute_reference: missing buffer " ^ o.name)
    | Some buf ->
        if Array.length buf <> buffer_size o.shape then
          invalid_arg
            ("Linalg.execute_reference: wrong size for buffer " ^ o.name);
        buf
  in
  let input_bufs = Array.map find_buffer op.inputs in
  let out_size = buffer_size op.output.shape in
  let out =
    Array.make out_size (match op.init with Some v -> v | None -> 0.0)
  in
  let n = Array.length op.domain in
  let iters = Array.make n 0 in
  let rec eval_body = function
    | Input i ->
        let o = op.inputs.(i) in
        let sub = Affine.eval_map o.map iters in
        input_bufs.(i).(flat_index o.shape sub)
    | Output ->
        let sub = Affine.eval_map op.output.map iters in
        out.(flat_index op.output.shape sub)
    | Const c -> c
    | Binop (b, a, c) -> eval_binop b (eval_body a) (eval_body c)
    | Unop (u, e) -> eval_unop u (eval_body e)
  in
  let rec loop d =
    if d = n then begin
      let v = eval_body op.body in
      let sub = Affine.eval_map op.output.map iters in
      out.(flat_index op.output.shape sub) <- v
    end
    else
      for i = 0 to op.domain.(d) - 1 do
        iters.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0;
  out

let kind_name op =
  match op.kind with
  | Matmul _ -> "matmul"
  | Batch_matmul _ -> "batch_matmul"
  | Conv2d _ -> "conv2d"
  | Conv2d_nchw _ -> "conv2d_nchw"
  | Depthwise_conv2d _ -> "depthwise_conv2d"
  | Maxpool _ -> "maxpool"
  | Avgpool _ -> "avgpool"
  | Add_op _ -> "add"
  | Relu_op _ -> "relu"
  | Unary_op (Exp_k, _) -> "exp"
  | Unary_op (Log_k, _) -> "log"
  | Unary_op (Relu_k, _) -> "relu"
  | Binary_op (Add_k, _) -> "add"
  | Binary_op (Sub_k, _) -> "sub"
  | Binary_op (Mul_k, _) -> "mul"
  | Binary_op (Div_k, _) -> "div"
  | Bias_add _ -> "bias_add"
  | Generic_op -> "generic"

let digest op =
  let dims =
    String.concat "x" (Array.to_list (Array.map string_of_int op.domain))
  in
  let kinds =
    String.concat ""
      (Array.to_list
         (Array.map
            (function Parallel_iter -> "p" | Reduction_iter -> "r")
            op.iter_kinds))
  in
  Printf.sprintf "%s|%s|%s" op.op_name dims kinds

let pp ppf op =
  Format.fprintf ppf "@[<v 2>linalg.%s %s {@," (kind_name op) op.op_name;
  Format.fprintf ppf "domain = [%s]@,"
    (String.concat ", " (Array.to_list (Array.map string_of_int op.domain)));
  Array.iter
    (fun (o : operand) ->
      Format.fprintf ppf "in  %s : [%s] via %a@," o.name
        (String.concat "x" (Array.to_list (Array.map string_of_int o.shape)))
        Affine.pp_map o.map)
    op.inputs;
  let o = op.output in
  Format.fprintf ppf "out %s : [%s] via %a" o.name
    (String.concat "x" (Array.to_list (Array.map string_of_int o.shape)))
    Affine.pp_map o.map;
  Format.fprintf ppf "@]@,}"

let out_dims (p : Linalg.conv_params) =
  let oh = ((p.in_h - p.kernel_h) / p.stride) + 1 in
  let ow = ((p.in_w - p.kernel_w) / p.stride) + 1 in
  (oh, ow)

let gemm_dims (p : Linalg.conv_params) =
  let oh, ow = out_dims p in
  let m = p.batch * oh * ow in
  let n = p.filters in
  let k = p.kernel_h * p.kernel_w * p.channels in
  (m, n, k)

let rewrite (op : Linalg.t) =
  match op.Linalg.kind with
  | Linalg.Conv2d p ->
      let m, n, k = gemm_dims p in
      let gemm = Linalg.matmul ~name:(op.Linalg.op_name ^ "_im2col") ~m ~n ~k () in
      Ok (gemm, `Packing_elements (m * k))
  | _ -> Error "im2col: only applies to conv2d operations"

let pack_input (p : Linalg.conv_params) input =
  let input_size = p.batch * p.in_h * p.in_w * p.channels in
  if Array.length input <> input_size then
    invalid_arg "Im2col.pack_input: wrong input size";
  let oh, ow = out_dims p in
  let m, _, k = gemm_dims p in
  let col = Array.make (m * k) 0.0 in
  let in_index n h w c =
    ((((n * p.in_h) + h) * p.in_w) + w) * p.channels + c
  in
  for n = 0 to p.batch - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let row = ((n * oh) + oy) * ow + ox in
        for kh = 0 to p.kernel_h - 1 do
          for kw = 0 to p.kernel_w - 1 do
            for c = 0 to p.channels - 1 do
              let colj = (((kh * p.kernel_w) + kw) * p.channels) + c in
              col.((row * k) + colj) <-
                input.(in_index n ((oy * p.stride) + kh) ((ox * p.stride) + kw) c)
            done
          done
        done
      done
    done
  done;
  col

(* The learned latency predictor: a small, deterministic MLP regressor
   on log-seconds over {!Features} vectors, built from the existing nn
   stack (Bigarray tensors, tape autodiff, Adam).

   Inputs are standardized with mean/std computed on the training split
   and stored in the checkpoint; the target is standardized log-seconds
   (only relative ranking matters to the staged search, but a centered
   target trains far faster). Training is seeded end to end — same log,
   same seed, same hyperparameters => bit-identical weights.

   Checkpoints are one sealed file of {!Serialize} records (hex floats,
   so values round-trip exactly) written through {!Util.Atomic_file}. *)

type t = {
  net : Layers.mlp;
  hidden : int list;
  f_mean : float array;
  f_std : float array;
  mutable t_mean : float;
  mutable t_std : float;
}

let default_hidden = [ 24; 12 ]

let create ?(hidden = default_hidden) ~seed () =
  let rng = Util.Rng.create seed in
  {
    net = Layers.mlp rng ~dims:((Features.dim :: hidden) @ [ 1 ]) "surrogate";
    hidden;
    f_mean = Array.make Features.dim 0.0;
    f_std = Array.make Features.dim 1.0;
    t_mean = 0.0;
    t_std = 1.0;
  }

let params t = Layers.mlp_params t.net
let net t = t.net
let feature_mean t = t.f_mean
let feature_std t = t.f_std
let target_mean t = t.t_mean
let target_std t = t.t_std

let log_seconds (e : Dataset_log.entry) =
  log (Float.max 1e-12 e.Dataset_log.seconds)

(* Deterministic ~20% validation split by digest hash — stable across
   runs and across log growth (an entry never migrates between splits). *)
let is_val (e : Dataset_log.entry) =
  Hashtbl.hash (e.Dataset_log.digest ^ "|" ^ e.Dataset_log.machine) mod 10 >= 8

let split entries =
  let l = Array.to_list entries in
  let v, tr = List.partition is_val l in
  (Array.of_list tr, Array.of_list v)

let normalize_features t (e : Dataset_log.entry) =
  Array.mapi
    (fun i f -> (f -. t.f_mean.(i)) /. t.f_std.(i))
    e.Dataset_log.features

let predict_normalized t x_norm =
  let tape = Autodiff.Tape.create () in
  let x = Autodiff.const tape (Tensor.of_array [| 1; Features.dim |] x_norm) in
  let y = Layers.forward_mlp tape t.net x in
  Tensor.get (Autodiff.value y) 0

let predict t features =
  let x = Array.mapi (fun i f -> (f -. t.f_mean.(i)) /. t.f_std.(i)) features in
  (predict_normalized t x *. t.t_std) +. t.t_mean

let mse_loss t tape (xs : float array array) (ys : float array) =
  let b = Array.length xs in
  let d = Features.dim in
  let x =
    Autodiff.const tape (Tensor.init [| b; d |] (fun i -> xs.(i / d).(i mod d)))
  in
  let out = Layers.forward_mlp tape t.net x in
  let pred = Autodiff.gather_cols tape out (Array.make b 0) in
  let target = Autodiff.const tape (Tensor.init [| b |] (fun i -> ys.(i))) in
  Autodiff.mean_all tape (Autodiff.square tape (Autodiff.sub tape pred target))

type report = {
  examples : int;
  train_examples : int;
  val_examples : int;
  epochs_run : int;
  train_losses : float array;  (** normalized MSE after each epoch *)
  val_losses : float array;  (** normalized val MSE after each epoch *)
  initial_val_loss : float;  (** before the first update *)
  spearman : float;  (** rank correlation on the val split *)
}

let eval_loss t entries =
  if Array.length entries = 0 then 0.0
  else begin
    let xs = Array.map (normalize_features t) entries in
    let ys =
      Array.map (fun e -> (log_seconds e -. t.t_mean) /. t.t_std) entries
    in
    let tape = Autodiff.Tape.create () in
    Tensor.get (Autodiff.value (mse_loss t tape xs ys)) 0
  end

let spearman t entries =
  let n = Array.length entries in
  if n < 2 then 0.0
  else begin
    let preds = Array.map (fun e -> predict t e.Dataset_log.features) entries in
    let targets = Array.map log_seconds entries in
    let ranks values =
      let idx = Array.init n (fun i -> i) in
      Array.sort (fun a b -> compare values.(a) values.(b)) idx;
      let r = Array.make n 0.0 in
      Array.iteri (fun rank i -> r.(i) <- float_of_int rank) idx;
      r
    in
    let rp = ranks preds and rt = ranks targets in
    let mean r = Array.fold_left ( +. ) 0.0 r /. float_of_int n in
    let mp = mean rp and mt = mean rt in
    let cov = ref 0.0 and vp = ref 0.0 and vt = ref 0.0 in
    for i = 0 to n - 1 do
      let dp = rp.(i) -. mp and dt = rt.(i) -. mt in
      cov := !cov +. (dp *. dt);
      vp := !vp +. (dp *. dp);
      vt := !vt +. (dt *. dt)
    done;
    if !vp = 0.0 || !vt = 0.0 then 0.0 else !cov /. sqrt (!vp *. !vt)
  end

let fit ?(epochs = 40) ?(batch_size = 64) ?(learning_rate = 1e-3) ?(seed = 7)
    t entries =
  if Array.length entries < 4 then
    invalid_arg "Surrogate.Model.fit: need at least 4 examples";
  let train, validation = split entries in
  let train = if Array.length train = 0 then entries else train in
  (* Standardization from the training split only. *)
  let d = Features.dim in
  let nt = float_of_int (Array.length train) in
  Array.fill t.f_mean 0 d 0.0;
  Array.iter
    (fun (e : Dataset_log.entry) ->
      Array.iteri
        (fun i f -> t.f_mean.(i) <- t.f_mean.(i) +. f)
        e.Dataset_log.features)
    train;
  Array.iteri (fun i s -> t.f_mean.(i) <- s /. nt) (Array.copy t.f_mean);
  let var = Array.make d 0.0 in
  Array.iter
    (fun (e : Dataset_log.entry) ->
      Array.iteri
        (fun i f ->
          let df = f -. t.f_mean.(i) in
          var.(i) <- var.(i) +. (df *. df))
        e.Dataset_log.features)
    train;
  (* A feature (near-)constant in training keeps std 1: dividing by a
     clamped tiny std would turn an unseen op's small difference into a
     huge input. Its training inputs stay at about 0 either way. *)
  Array.iteri
    (fun i v ->
      let sd = sqrt (v /. nt) in
      t.f_std.(i) <- (if sd < 1e-6 then 1.0 else sd))
    var;
  let targets = Array.map log_seconds train in
  t.t_mean <- Array.fold_left ( +. ) 0.0 targets /. nt;
  t.t_std <-
    Float.max 1e-6
      (sqrt
         (Array.fold_left
            (fun acc y ->
              let dy = y -. t.t_mean in
              acc +. (dy *. dy))
            0.0 targets
         /. nt));
  let xs = Array.map (normalize_features t) train in
  let ys = Array.map (fun y -> (y -. t.t_mean) /. t.t_std) targets in
  let optimizer = Optim.adam ~lr:learning_rate (params t) in
  Optim.zero_grad optimizer;
  let rng = Util.Rng.create seed in
  let indices = Array.init (Array.length train) (fun i -> i) in
  let initial_val_loss = eval_loss t validation in
  let train_losses = Array.make epochs 0.0 in
  let val_losses = Array.make epochs 0.0 in
  for epoch = 0 to epochs - 1 do
    Util.Rng.shuffle rng indices;
    let pos = ref 0 in
    while !pos < Array.length indices do
      let size = min batch_size (Array.length indices - !pos) in
      let bx = Array.init size (fun i -> xs.(indices.(!pos + i))) in
      let by = Array.init size (fun i -> ys.(indices.(!pos + i))) in
      pos := !pos + size;
      let tape = Autodiff.Tape.create () in
      let loss = mse_loss t tape bx by in
      Autodiff.backward tape loss;
      ignore (Optim.step ~max_grad_norm:5.0 optimizer)
    done;
    (let tape = Autodiff.Tape.create () in
     train_losses.(epoch) <- Tensor.get (Autodiff.value (mse_loss t tape xs ys)) 0);
    val_losses.(epoch) <- eval_loss t validation
  done;
  {
    examples = Array.length entries;
    train_examples = Array.length train;
    val_examples = Array.length validation;
    epochs_run = epochs;
    train_losses;
    val_losses;
    initial_val_loss;
    spearman = (if Array.length validation >= 2 then spearman t validation
                else spearman t train);
  }

(* -- checkpoint -------------------------------------------------------- *)

(* The feature width is part of the header, so a checkpoint from a build
   with other features fails the header check. *)
let header = Printf.sprintf "surrogate-ckpt v2 dim=%d" Features.dim

(* The standardization statistics as records ahead of the weights, in
   the order fmean, fstd, (tmean, tstd). *)
let stat_records ~fmean ~fstd ~target =
  [
    Autodiff.Param.create "fmean" fmean;
    Autodiff.Param.create "fstd" fstd;
    Autodiff.Param.create "target" target;
  ]

let save t ~path =
  Util.Atomic_file.write_sealed ~path ~header (fun oc ->
      Printf.fprintf oc "hidden %s\n"
        (String.concat " " (List.map string_of_int t.hidden));
      let vec a = Tensor.of_array [| Array.length a |] a in
      Serialize.write oc
        (stat_records ~fmean:(vec t.f_mean) ~fstd:(vec t.f_std)
           ~target:(vec [| t.t_mean; t.t_std |])
        @ params t))

let parse_hidden line =
  match String.split_on_char ' ' line with
  | "hidden" :: (_ :: _ as ws) ->
      let widths = List.filter_map int_of_string_opt ws in
      if List.length widths = List.length ws && List.for_all (fun w -> w > 0) widths
      then Ok widths
      else Error (Printf.sprintf "bad hidden widths %S (want positive ints)" line)
  | _ -> Error (Printf.sprintf "expected hidden widths, found %S" line)

let load ~path =
  Util.Atomic_file.read_sealed ~path ~header (fun next ->
      let ( let* ) = Result.bind in
      let* hidden =
        Option.fold ~none:(Error "missing hidden widths") ~some:parse_hidden (next ())
      in
      let t = create ~hidden ~seed:0 () in
      let fmean = Tensor.zeros [| Features.dim |]
      and fstd = Tensor.zeros [| Features.dim |]
      and target = Tensor.zeros [| 2 |] in
      let* () = Serialize.read next (stat_records ~fmean ~fstd ~target @ params t) in
      for i = 0 to Features.dim - 1 do
        t.f_mean.(i) <- Tensor.get fmean i;
        t.f_std.(i) <- Tensor.get fstd i
      done;
      t.t_mean <- Tensor.get target 0;
      t.t_std <- Tensor.get target 1;
      Ok t)

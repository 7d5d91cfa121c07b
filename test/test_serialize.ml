(* Weight persistence, and the sealed file format every saved file
   shares. *)

let temp_file () = Filename.temp_file "mlir_rl_test" ".params"

let test_roundtrip_params () =
  let rng = Util.Rng.create 1 in
  let mlp = Layers.mlp rng ~dims:[ 3; 5; 2 ] "m" in
  let params = Layers.mlp_params mlp in
  let path = temp_file () in
  Serialize.save_params path params;
  let rng2 = Util.Rng.create 99 in
  let mlp2 = Layers.mlp rng2 ~dims:[ 3; 5; 2 ] "m" in
  let params2 = Layers.mlp_params mlp2 in
  Alcotest.(check bool) "initially different" false
    (Test_helpers.params_equal params params2);
  (match Serialize.load_params path params2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "identical after load" true
    (Test_helpers.params_equal params params2);
  Sys.remove path

let test_load_rejects_shape_mismatch () =
  let rng = Util.Rng.create 1 in
  let a = Layers.mlp_params (Layers.mlp rng ~dims:[ 3; 5; 2 ] "m") in
  let b = Layers.mlp_params (Layers.mlp rng ~dims:[ 3; 4; 2 ] "m") in
  let path = temp_file () in
  Serialize.save_params path a;
  Alcotest.(check bool) "shape mismatch rejected" true
    (Result.is_error (Serialize.load_params path b));
  Sys.remove path

let test_load_rejects_name_mismatch () =
  let rng = Util.Rng.create 1 in
  let a = Layers.mlp_params (Layers.mlp rng ~dims:[ 3; 2 ] "alpha") in
  let b = Layers.mlp_params (Layers.mlp rng ~dims:[ 3; 2 ] "beta") in
  let path = temp_file () in
  Serialize.save_params path a;
  Alcotest.(check bool) "name mismatch rejected" true
    (Result.is_error (Serialize.load_params path b));
  Sys.remove path

let test_load_rejects_garbage () =
  let path = temp_file () in
  let oc = open_out path in
  output_string oc "not a parameter file\n";
  close_out oc;
  let rng = Util.Rng.create 1 in
  let params = Layers.mlp_params (Layers.mlp rng ~dims:[ 2; 2 ] "m") in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Serialize.load_params path params));
  Sys.remove path

let test_load_missing_file () =
  let rng = Util.Rng.create 1 in
  let params = Layers.mlp_params (Layers.mlp rng ~dims:[ 2; 2 ] "m") in
  Alcotest.(check bool) "missing file" true
    (Result.is_error (Serialize.load_params "/nonexistent/file.params" params));
  Alcotest.(check bool) "a directory is a load error, not an exception" true
    (Result.is_error
       (Serialize.load_params (Filename.get_temp_dir_name ()) params))

let test_policy_roundtrip_behaviour () =
  (* A restored policy must make the same greedy decisions. *)
  let cfg = Env_config.default in
  let rng = Util.Rng.create 7 in
  let p1 = Policy.create ~hidden:16 ~backbone_layers:1 rng cfg in
  let p2 = Policy.create ~hidden:16 ~backbone_layers:1 (Util.Rng.create 8) cfg in
  let path = temp_file () in
  Policy.save p1 path;
  (match Policy.load p2 path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let st = Sched_state.init (Test_helpers.small_matmul ()) in
  let obs = Observation.extract cfg st in
  let masks = Action_space.masks cfg st in
  let a1 = Policy.act_greedy p1 ~obs ~masks in
  let a2 = Policy.act_greedy p2 ~obs ~masks in
  Alcotest.(check bool) "same greedy action" true (a1 = a2);
  Sys.remove path

let test_exact_float_roundtrip () =
  (* %h hex floats restore bit-exactly, including awkward values. *)
  let p =
    Autodiff.Param.create "x"
      (Tensor.of_array [| 4 |] [| 1.0 /. 3.0; -0.0; 1e-300; 12345.6789 |])
  in
  let path = temp_file () in
  Serialize.save_params path [ p ];
  let q = Autodiff.Param.create "x" (Tensor.zeros [| 4 |]) in
  (match Serialize.load_params path [ q ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bit exact" true
    (Test_helpers.tensor_equal p.Autodiff.Param.data q.Autodiff.Param.data);
  Sys.remove path

let test_golden_file_compat () =
  (* The records as written by the pre-Bigarray float-array
     implementation, byte for byte (the record text never changed when
     the tensor representation did, nor when the file was sealed), inside
     a v2 header and trailer. Loading it must restore the exact bit
     patterns onto Bigarray storage, and re-saving must reproduce the
     original bytes. *)
  let records =
    "2\n\
     golden.w 2 2 3\n\
     0x1.5555555555555p-2 -0x0p+0 0x0.0000000000001p-1022 infinity \
     -infinity 0x1.81cd6e631f8a1p+13\n\
     golden.b 1 2\n\
     0x1.999999999999ap-4 0x1.fffffffffffffp+1023\n"
  in
  let sealed = "mlir-rl-params v2\n" ^ records in
  let golden =
    Printf.sprintf "%send %d %s\n" sealed (String.length sealed)
      (Digest.to_hex (Digest.string sealed))
  in
  let path = temp_file () in
  let oc = open_out_bin path in
  output_string oc golden;
  close_out oc;
  let w = Autodiff.Param.create "golden.w" (Tensor.zeros [| 2; 3 |]) in
  let b = Autodiff.Param.create "golden.b" (Tensor.zeros [| 2 |]) in
  (match Serialize.load_params path [ w; b ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "w bit exact" true
    (Test_helpers.tensor_equal w.Autodiff.Param.data
       (Tensor.of_array [| 2; 3 |]
          [| 1.0 /. 3.0; -0.0; 5e-324; infinity; neg_infinity; 12345.6789 |]));
  Alcotest.(check bool) "b bit exact" true
    (Test_helpers.tensor_equal b.Autodiff.Param.data
       (Tensor.of_array [| 2 |] [| 0.1; max_float |]));
  let path2 = temp_file () in
  Serialize.save_params path2 [ w; b ];
  let ic = open_in_bin path2 in
  let again = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "writer byte-stable" golden again;
  Sys.remove path;
  Sys.remove path2

let test_concurrent_saves () =
  (* Two domains save different weights to one path, 20 times each.
     Every save must return, the file must load as one of the two
     complete weight sets, and no temporary file may be left behind. *)
  let weights seed =
    Layers.mlp_params (Layers.mlp (Util.Rng.create seed) ~dims:[ 8; 16; 4 ] "m")
  in
  let a = weights 1 and b = weights 2 in
  let dir = Filename.temp_file "mlir_rl_saves" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "w.params" in
  let saver params () =
    List.init 20 (fun _ ->
        match Serialize.save_params path params with
        | () -> true
        | exception Sys_error _ -> false)
  in
  let other = Domain.spawn (saver b) in
  let mine = saver a () in
  let theirs = Domain.join other in
  Alcotest.(check bool) "every save returned" true
    (List.for_all Fun.id (mine @ theirs));
  let loaded = weights 3 in
  (match Serialize.load_params path loaded with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "file holds one complete weight set" true
    (Test_helpers.params_equal loaded a || Test_helpers.params_equal loaded b);
  Alcotest.(check (list string))
    "no temp file left behind" [ "w.params" ]
    (Array.to_list (Sys.readdir dir));
  Sys.remove path;
  Sys.rmdir dir

(* Every sealed format, saved small and then damaged: truncated at
   every byte offset, and with each of 256 seeded one-bit flips. Each
   damaged file must load as an [Error] (never an exception, never a
   silent load), and the intact file must still load. *)
let test_corruption_is_an_error () =
  let dir = Filename.temp_file "mlir_rl_sealed" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let mlp () = Layers.mlp_params (Layers.mlp (Util.Rng.create 1) ~dims:[ 3; 4; 2 ] "m") in
  let weights = mlp () in
  let restore path =
    let params = mlp () in
    Result.map ignore
      (Checkpoint.restore ~path ~params ~optimizer:(Optim.adam ~lr:1e-3 params))
  in
  let meta =
    {
      Checkpoint.iteration = 2;
      rng_state = 11L;
      episodes = 16;
      best_speedup = 3.25;
      measurement_seconds = 0.5;
      explored = 40;
      degraded = 1;
      noise_state = 12L;
      fault_state = Some (13L, 2);
    }
  in
  let log = Surrogate.Dataset_log.create () in
  List.iter
    (fun i ->
      ignore
        (Surrogate.Dataset_log.add log
           {
             Surrogate.Dataset_log.digest = Printf.sprintf "d%d" i;
             machine = "m";
             seconds = 1e-3 *. float_of_int (i + 1);
             features = Array.init Surrogate.Features.dim (fun j -> float_of_int (i + j) /. 7.0);
           }))
    [ 0; 1 ];
  let formats =
    [
      ( "params",
        (fun path -> Serialize.save_params path weights),
        fun path -> Serialize.load_params path (mlp ()) );
      ( "checkpoint",
        (fun path ->
          Checkpoint.save ~path meta ~params:weights
            ~optimizer:(Optim.adam ~lr:1e-3 weights)),
        restore );
      ( "surrogate",
        (fun path -> Surrogate.Model.save (Surrogate.Model.create ~hidden:[ 2 ] ~seed:1 ()) ~path),
        fun path -> Result.map ignore (Surrogate.Model.load ~path) );
      ( "log",
        (fun path -> ignore (Surrogate.Dataset_log.save log ~path)),
        fun path -> Result.map ignore (Surrogate.Dataset_log.load ~path) );
    ]
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path bytes = Out_channel.with_open_bin path (fun oc -> output_string oc bytes) in
  let rng = Util.Rng.create 2026 in
  List.iter
    (fun (name, save, load) ->
      let path = Filename.concat dir name in
      save path;
      let intact = read path in
      let rejects what bytes =
        write path bytes;
        match load path with
        | Ok () -> Alcotest.failf "%s %s: loaded" name what
        | Error _ -> ()
        | exception e -> Alcotest.failf "%s %s: raised %s" name what (Printexc.to_string e)
      in
      for k = 0 to String.length intact - 1 do
        rejects (Printf.sprintf "truncated at %d" k) (String.sub intact 0 k)
      done;
      for _ = 1 to 256 do
        let b = Bytes.of_string intact in
        let i = Util.Rng.int rng (Bytes.length b) and bit = Util.Rng.int rng 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        rejects (Printf.sprintf "with bit %d of byte %d flipped" bit i) (Bytes.to_string b)
      done;
      write path intact;
      (match load path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s intact: %s" name e);
      Sys.remove path)
    formats;
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "roundtrip params" `Quick test_roundtrip_params;
    Alcotest.test_case "golden file compat" `Quick test_golden_file_compat;
    Alcotest.test_case "rejects shape mismatch" `Quick test_load_rejects_shape_mismatch;
    Alcotest.test_case "rejects name mismatch" `Quick test_load_rejects_name_mismatch;
    Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
    Alcotest.test_case "missing file" `Quick test_load_missing_file;
    Alcotest.test_case "policy roundtrip behaviour" `Quick
      test_policy_roundtrip_behaviour;
    Alcotest.test_case "exact float roundtrip" `Quick test_exact_float_roundtrip;
    Alcotest.test_case "concurrent saves to one path" `Quick
      test_concurrent_saves;
    Alcotest.test_case "every corrupted file is an Error" `Quick
      test_corruption_is_an_error;
  ]

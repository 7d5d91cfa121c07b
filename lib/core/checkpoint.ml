type meta = {
  iteration : int;
  rng_state : int64;
  episodes : int;
  best_speedup : float;
  measurement_seconds : float;
  explored : int;
  degraded : int;
  noise_state : int64;
  fault_state : (int64 * int) option;
}

(* v2 added the global [episodes] counter (parallel rollout engine);
   v1 files are not readable — training runs are short enough that
   re-running beats carrying a migration path. *)
let magic = "mlir-rl-checkpoint v2"

let meta_path path = path ^ ".meta"
let params_path path = path ^ ".params"
let optim_path path = path ^ ".optim"

let exists ~path = Sys.file_exists (meta_path path)

let write_meta path m =
  Util.Atomic_file.with_out ~path:(meta_path path) (fun oc ->
      output_string oc (magic ^ "\n");
      Printf.fprintf oc "iteration %d\n" m.iteration;
      Printf.fprintf oc "rng_state %Ld\n" m.rng_state;
      Printf.fprintf oc "episodes %d\n" m.episodes;
      Printf.fprintf oc "best_speedup %h\n" m.best_speedup;
      Printf.fprintf oc "measurement_seconds %h\n" m.measurement_seconds;
      Printf.fprintf oc "explored %d\n" m.explored;
      Printf.fprintf oc "degraded %d\n" m.degraded;
      Printf.fprintf oc "noise_state %Ld\n" m.noise_state;
      match m.fault_state with
      | None -> output_string oc "fault_state none\n"
      | Some (s, n) -> Printf.fprintf oc "fault_state %Ld %d\n" s n)

let parse_meta lines =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | Some i ->
          Hashtbl.replace tbl
            (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
      | None -> ())
    lines;
  let field name parse =
    match Hashtbl.find_opt tbl name with
    | None -> Error ("missing field " ^ name)
    | Some v -> (
        match parse (String.trim v) with
        | Some x -> Ok x
        | None -> Error ("bad value for " ^ name))
  in
  let ( let* ) = Result.bind in
  let* iteration = field "iteration" int_of_string_opt in
  let* rng_state = field "rng_state" Int64.of_string_opt in
  let* episodes = field "episodes" int_of_string_opt in
  let* best_speedup = field "best_speedup" float_of_string_opt in
  let* measurement_seconds = field "measurement_seconds" float_of_string_opt in
  let* explored = field "explored" int_of_string_opt in
  let* degraded = field "degraded" int_of_string_opt in
  let* noise_state = field "noise_state" Int64.of_string_opt in
  let* fault_state =
    field "fault_state" (fun v ->
        if v = "none" then Some None
        else
          match String.split_on_char ' ' v with
          | [ s; n ] -> (
              match (Int64.of_string_opt s, int_of_string_opt n) with
              | Some s, Some n -> Some (Some (s, n))
              | _ -> None)
          | _ -> None)
  in
  Ok
    {
      iteration;
      rng_state;
      episodes;
      best_speedup;
      measurement_seconds;
      explored;
      degraded;
      noise_state;
      fault_state;
    }

let load_meta ~path =
  let file = meta_path path in
  if not (Sys.file_exists file) then Error ("no such checkpoint: " ^ file)
  else
    Util.Atomic_file.with_in ~path:file (fun ic ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        match List.rev !lines with
        | header :: rest when header = magic -> parse_meta rest
        | _ -> Error "not a mlir-rl checkpoint file")

let save ~path meta ~params ~optimizer =
  write_meta path meta;
  Serialize.save_params (params_path path) params;
  Optim.save optimizer (optim_path path)

let restore ~path ~params ~optimizer =
  let ( let* ) = Result.bind in
  let* meta = load_meta ~path in
  let* () = Serialize.load_params (params_path path) params in
  let* () = Optim.load optimizer (optim_path path) in
  Ok meta

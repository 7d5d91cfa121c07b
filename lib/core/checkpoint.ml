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

(* Files of an older version do not load: training runs are short
   enough that re-running beats carrying a migration path. *)
let header = "mlir-rl-checkpoint v3"

let exists ~path = Sys.file_exists path

(* The payload: the nine meta lines, the weight records, the Adam
   section. One file under one rename, so a kill cannot pair new
   metadata with old weights. *)
let save ~path m ~params ~optimizer =
  Util.Atomic_file.write_sealed ~path ~header (fun oc ->
      Printf.fprintf oc "iteration %d\n" m.iteration;
      Printf.fprintf oc "rng_state %Ld\n" m.rng_state;
      Printf.fprintf oc "episodes %d\n" m.episodes;
      Printf.fprintf oc "best_speedup %h\n" m.best_speedup;
      Printf.fprintf oc "measurement_seconds %h\n" m.measurement_seconds;
      Printf.fprintf oc "explored %d\n" m.explored;
      Printf.fprintf oc "degraded %d\n" m.degraded;
      Printf.fprintf oc "noise_state %Ld\n" m.noise_state;
      (match m.fault_state with
      | None -> output_string oc "fault_state none\n"
      | Some (s, n) -> Printf.fprintf oc "fault_state %Ld %d\n" s n);
      Serialize.write oc params;
      Optim.write_state oc optimizer)

let read_meta next =
  let field name parse =
    let prefix = name ^ " " in
    match next () with
    | Some line when String.starts_with ~prefix line -> (
        let n = String.length prefix in
        match parse (String.sub line n (String.length line - n)) with
        | Some x -> Ok x
        | None -> Error ("bad value for " ^ name))
    | _ -> Error ("missing field " ^ name)
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

let restore ~path ~params ~optimizer =
  Util.Atomic_file.read_sealed ~path ~header (fun next ->
      let ( let* ) = Result.bind in
      let* meta = read_meta next in
      let* () = Serialize.read next params in
      let* () = Optim.read_state next optimizer in
      Ok meta)

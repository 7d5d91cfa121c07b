let header = "mlir-rl-params v2"

let shape (p : Autodiff.Param.t) =
  List.map string_of_int (Array.to_list (Tensor.dims p.Autodiff.Param.data))

(* Records are rendered into a small buffer handed to [emit] whenever
   it fills, so the same writer streams to a channel and digests in
   memory, and a long values line never sits in memory whole. *)
let chunk = 65536

let render emit params =
  let b = Buffer.create chunk in
  let flush () =
    emit b;
    Buffer.clear b
  in
  Printf.bprintf b "%d\n" (List.length params);
  List.iter
    (fun (p : Autodiff.Param.t) ->
      let dims = shape p in
      Printf.bprintf b "%s %d %s\n" p.Autodiff.Param.name (List.length dims)
        (String.concat " " dims);
      let data = p.Autodiff.Param.data in
      for i = 0 to Tensor.numel data - 1 do
        if i > 0 then Buffer.add_char b ' ';
        Printf.bprintf b "%h" (Tensor.get data i);
        if Buffer.length b > chunk - 64 then flush ()
      done;
      Buffer.add_char b '\n')
    params;
  flush ()

let write oc params = render (Buffer.output_buffer oc) params

let digest params =
  let all = Buffer.create chunk in
  render (Buffer.add_buffer all) params;
  Digest.to_hex (Digest.string (Buffer.contents all))

let read next params =
  let ( let* ) = Result.bind in
  let line what =
    match next () with Some l -> Ok l | None -> Error ("truncated at " ^ what)
  in
  let read_one (p : Autodiff.Param.t) =
    let name = p.Autodiff.Param.name and data = p.Autodiff.Param.data in
    let* record = line name in
    let* () =
      match String.split_on_char ' ' record with
      | found :: _rank :: dims when found = name ->
          if dims = shape p then Ok () else Error ("shape mismatch for " ^ name)
      | found :: _ :: _ ->
          Error (Printf.sprintf "expected parameter %s, found %s" name found)
      | _ -> Error "malformed parameter header"
    in
    let* values = line ("values of " ^ name) in
    (* Exactly [numel] floats, one space apart. *)
    let n = Tensor.numel data and len = String.length values in
    let rec parse i pos =
      if i = n then if pos >= len then Ok () else Error ("too many values for " ^ name)
      else if pos > len then Error ("too few values for " ^ name)
      else
        let stop = Option.value ~default:len (String.index_from_opt values pos ' ') in
        match float_of_string_opt (String.sub values pos (stop - pos)) with
        | Some v ->
            Tensor.set data i v;
            parse (i + 1) (stop + 1)
        | None -> Error ("bad or missing value in " ^ name)
    in
    parse 0 0
  in
  let rec read_all = function
    | [] -> Ok ()
    | p :: rest ->
        let* () = read_one p in
        read_all rest
  in
  let* count = line "parameter count" in
  match int_of_string_opt count with
  | Some n when n = List.length params -> read_all params
  | Some n ->
      Error
        (Printf.sprintf "file has %d parameters, model has %d" n
           (List.length params))
  | None -> Error "bad parameter count"

let save_params path params =
  Util.Atomic_file.write_sealed ~path ~header (fun oc -> write oc params)

let load_params path params =
  Util.Atomic_file.read_sealed ~path ~header (fun next -> read next params)

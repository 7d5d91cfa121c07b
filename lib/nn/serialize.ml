let magic = "mlir-rl-params v1"

let save_params path params =
  Util.Atomic_file.with_out ~path (fun oc ->
      output_string oc (magic ^ "\n");
      Printf.fprintf oc "%d\n" (List.length params);
      List.iter
        (fun (p : Autodiff.Param.t) ->
          let dims = Tensor.dims p.Autodiff.Param.data in
          Printf.fprintf oc "%s %d %s\n" p.Autodiff.Param.name
            (Array.length dims)
            (String.concat " " (Array.to_list (Array.map string_of_int dims)));
          let data = p.Autodiff.Param.data in
          for i = 0 to Tensor.numel data - 1 do
            if i > 0 then output_char oc ' ';
            Printf.fprintf oc "%h" (Tensor.get data i)
          done;
          output_char oc '\n')
        params)

let load_params path params =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no such file: %s" path)
  else
    Util.Atomic_file.with_in ~path (fun ic ->
        let line () = try Some (input_line ic) with End_of_file -> None in
        match line () with
        | Some header when header = magic -> (
            match line () with
            | None -> Error "truncated file"
            | Some count_line -> (
                match int_of_string_opt (String.trim count_line) with
                | None -> Error "bad parameter count"
                | Some count when count <> List.length params ->
                    Error
                      (Printf.sprintf "file has %d parameters, model has %d"
                         count (List.length params))
                | Some _ ->
                    let load_one (p : Autodiff.Param.t) =
                      match line () with
                      | None -> Error "truncated file"
                      | Some header -> (
                          match String.split_on_char ' ' header with
                          | name :: _rank :: dims ->
                              if name <> p.Autodiff.Param.name then
                                Error
                                  (Printf.sprintf "expected parameter %s, found %s"
                                     p.Autodiff.Param.name name)
                              else begin
                                let shape =
                                  try
                                    Some (Array.of_list (List.map int_of_string dims))
                                  with Failure _ -> None
                                in
                                match shape with
                                | None -> Error ("bad shape for " ^ name)
                                | Some shape
                                  when shape <> Tensor.dims p.Autodiff.Param.data ->
                                    Error ("shape mismatch for " ^ name)
                                | Some _ -> (
                                    match line () with
                                    | None -> Error "truncated values"
                                    | Some values -> (
                                        let parts =
                                          List.filter
                                            (fun s -> s <> "")
                                            (String.split_on_char ' ' values)
                                        in
                                        let data = p.Autodiff.Param.data in
                                        if List.length parts <> Tensor.numel data
                                        then Error ("value count mismatch for " ^ name)
                                        else
                                          try
                                            List.iteri
                                              (fun i v ->
                                                Tensor.set data i (float_of_string v))
                                              parts;
                                            Ok ()
                                          with Failure _ ->
                                            Error ("bad float in " ^ name)))
                              end
                          | [] | [ _ ] -> Error "malformed parameter header")
                    in
                    let rec go = function
                      | [] -> Ok ()
                      | p :: rest -> (
                          match load_one p with Ok () -> go rest | e -> e)
                    in
                    go params))
        | Some _ -> Error "not a mlir-rl parameter file"
        | None -> Error "empty file")

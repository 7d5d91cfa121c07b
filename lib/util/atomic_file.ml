(* Crash-safe file writes: temp file in the destination directory plus
   an atomic rename, the same discipline lib/core/checkpoint has always
   used for training state. A kill at any moment leaves either the old
   file or the new one on disk — never a truncated mix. *)

let with_out ~path f =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !ok then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      f oc;
      flush oc;
      close_out oc;
      Sys.rename tmp path;
      ok := true)

let write_string ~path s = with_out ~path (fun oc -> output_string oc s)

let with_in ~path f =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try f ic with Sys_error e -> Error (path ^ ": " ^ e))

(* Crash-safe file writes: temp file in the destination directory plus
   an atomic rename. A kill at any moment leaves either the old file or
   the new one on disk — never a truncated mix. *)

let with_temp ~path f =
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
      f tmp oc;
      close_out oc;
      Sys.rename tmp path;
      ok := true)

let write_string ~path s = with_temp ~path (fun _ oc -> output_string oc s)

let with_in ~path f =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try f ic with Sys_error e -> Error (path ^ ": " ^ e))

(* A sealed file: a header line, the payload, then [end <n> <md5>]
   where [n] is the byte count of everything before the trailer and
   [md5] its digest. The writer takes the digest by re-reading the
   bytes it wrote, so neither side ever holds the file in memory. *)

let trailer n digest = Printf.sprintf "end %d %s\n" n (Digest.to_hex digest)

let write_sealed ~path ~header f =
  with_temp ~path (fun tmp oc ->
      output_string oc header;
      output_char oc '\n';
      f oc;
      flush oc;
      let n = pos_out oc in
      let digest = In_channel.with_open_bin tmp (fun ic -> Digest.channel ic n) in
      output_string oc (trailer n digest))

(* Longer than any trailer ("end " + 19 digits + " " + 32 + "\n"). *)
let max_trailer = 80

let read_sealed ~path ~header parse =
  let fail msg = Error (path ^ ": " ^ msg) in
  with_in ~path (fun ic ->
      match input_line ic with
      | exception End_of_file -> fail "empty file"
      | first when first <> header ->
          fail (Printf.sprintf "expected header %S, found %S" header first)
      | _ -> (
          let body = pos_in ic and len = in_channel_length ic in
          (* The trailer is the last line: it starts after the last
             newline within the file's final [max_trailer] bytes. *)
          let from = max body (len - max_trailer) in
          seek_in ic from;
          let tail = really_input_string ic (len - from) in
          let start =
            match
              String.rindex_from_opt tail (max (-1) (String.length tail - 2)) '\n'
            with
            | Some i -> from + i + 1
            | None -> from
          in
          seek_in ic 0;
          let expected = trailer start (Digest.channel ic start) in
          if String.sub tail (start - from) (len - start) <> expected then
            fail "truncated or corrupted (length or digest mismatch)"
          else begin
            seek_in ic body;
            let next () = if pos_in ic >= start then None else Some (input_line ic) in
            match parse next with
            | Error e -> fail e
            | Ok _ when pos_in ic < start -> fail "unexpected data after the payload"
            | Ok _ as ok -> ok
          end))

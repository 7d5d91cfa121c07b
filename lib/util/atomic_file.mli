(** Atomic (temp-file + rename) file writes, the sealed file format, and
    the matching readers.

    Every artifact writer that must survive a crash mid-dump goes
    through here: a reader never observes a truncated file, only the
    previous complete content or the new one. The temporary file is
    created in the destination's directory so the final [rename] stays
    within one filesystem (rename is only atomic there).

    A {e sealed} file is a first line [<kind> v<N>] (it may carry build
    facts, e.g. [surrogate-ckpt v2 dim=88]), the payload lines, and the
    trailer [end <n> <md5>]: the byte count and the {!Digest} (MD5) of
    everything before it. Weights, checkpoints, the surrogate checkpoint
    and the evaluation log are sealed. *)

val write_string : path:string -> string -> unit
(** [write_string ~path s] atomically replaces [path]'s content with
    [s]. Raises [Sys_error] on IO failure; [path] is then untouched. *)

val with_in :
  path:string -> (in_channel -> ('a, string) result) -> ('a, string) result
(** [with_in ~path f] opens [path] for reading, runs [f] on its channel
    and closes it. Any [Sys_error] — from opening a missing or
    unreadable file, or from reading a path that names a directory —
    becomes [Error msg] instead of escaping, so a loader built on it
    returns a typed error on every path. *)

val write_sealed : path:string -> header:string -> (out_channel -> unit) -> unit
(** [write_sealed ~path ~header f] writes [header], lets [f] write the
    payload (whole lines), appends the trailer and renames the file
    over [path]. The payload streams to disk and the digest is taken by
    re-reading it. If [f] raises, [path] is untouched. Raises
    [Sys_error] on IO failure. *)

val read_sealed :
  path:string ->
  header:string ->
  ((unit -> string option) -> ('a, string) result) ->
  ('a, string) result
(** [read_sealed ~path ~header parse] checks that the first line is
    [header] and that the trailer matches the bytes before it. Only then
    does it run [parse], whose argument returns the next payload line
    per call and [None] at the trailer; [parse] must read every line.
    Every failure — an unreadable path, another first line (quoted), a
    bad trailer, a parse error, unread payload — is an [Error] whose
    message starts with [path]. *)

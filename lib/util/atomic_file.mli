(** Atomic (temp-file + rename) file writes, and the matching reader.

    Shared by the training checkpoint ({!module:Checkpoint} in
    [lib/core]) and every artifact writer that must survive a crash
    mid-dump (bench [BENCH_*.json] files, Prometheus text dumps): a
    reader never observes a truncated file, only the previous complete
    content or the new one.

    The temporary file is created in the destination's directory so the
    final [rename] stays within one filesystem (rename is only atomic
    there). *)

val with_out : path:string -> (out_channel -> unit) -> unit
(** [with_out ~path f] opens a fresh temp file next to [path], runs [f]
    on its channel, then flushes, closes and renames it over [path].
    If [f] raises, the temp file is removed and [path] is untouched.
    Raises [Sys_error] on IO failure. *)

val write_string : path:string -> string -> unit
(** [write_string ~path s] atomically replaces [path]'s content with
    [s]. *)

val with_in :
  path:string -> (in_channel -> ('a, string) result) -> ('a, string) result
(** [with_in ~path f] opens [path] for reading, runs [f] on its channel
    and closes it. Any [Sys_error] — from opening a missing or
    unreadable file, or from reading a path that names a directory —
    becomes [Error msg] instead of escaping, so a loader built on it
    returns a typed error on every path. *)

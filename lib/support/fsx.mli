(** Tiny filesystem helpers. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents ([mkdir -p]).  No-op when the
    path already exists; safe against concurrent creators — [EEXIST] is
    tolerated at every component, so two processes racing to create the same
    directory both succeed.  Raises [Sys_error] only when creation genuinely
    fails (e.g. permission denied, or a path component is a regular file). *)

val write_atomic : string -> string -> unit
(** [write_atomic path content]: replace [path] with [content] atomically —
    write to a fresh temp file in the same directory, [fsync], then [rename]
    over the destination.  A crash (even SIGKILL) at any point leaves either
    the previous file or the new one, never a torn prefix; at worst an
    orphaned [.tmp.*] sibling remains.  Concurrent writers to the same path
    each use a distinct temp name; last rename wins. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string, looping over short writes.  Raises
    [Unix.Unix_error] (e.g. [EPIPE] once the peer of a socket is gone). *)

val read_file : string -> string
(** The whole file, in binary mode.  Raises [Sys_error] when it cannot be
    opened or read. *)

val rm_rf : string -> unit
(** Recursive delete ([rm -rf]): removes a file or directory tree.  Missing
    paths and concurrent removers are tolerated ([ENOENT] anywhere is
    success).  Symlinks are unlinked, never followed. *)

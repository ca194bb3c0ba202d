(** Whole-file writes that readers never observe half-done. *)

(** [write path f] runs [f] on a channel to a fresh temporary file in
    [path]'s directory, closes it and renames it over [path], returning
    [f]'s result.  A concurrent reader sees either the old file or the
    complete new one, never an empty or truncated one.  If [f] (or the
    close or rename) raises, the temporary file is removed, [path] is left
    exactly as it was, and the exception is re-raised. *)
val write : string -> (out_channel -> 'a) -> 'a

let write path f =
  let tmp, oc =
    Filename.open_temp_file ~perms:0o666 ~temp_dir:(Filename.dirname path)
      ("." ^ Filename.basename path ^ ".") ".tmp"
  in
  match
    let r = f oc in
    close_out oc;
    Sys.rename tmp path;
    r
  with
  | r -> r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let replay ?config p =
  let o = Xfd.Engine.detect ?config (Prog.to_program p) in
  Oracle.keys_of_outcome o

let contents p keys =
  String.concat "\n"
    (Prog.to_lines p @ List.map (fun k -> "expect " ^ k) keys)
  ^ "\n"

let save ~dir ~keys p =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let body = contents p keys in
  let name = Printf.sprintf "fuzz-%s.xfdprog" (Digest.to_hex (Digest.string body)) in
  let path = Filename.concat dir name in
  Xfd_util.Atomic_file.write path (fun oc -> output_string oc body);
  path

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | body -> Prog.of_lines (String.split_on_char '\n' body)

let files ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xfdprog")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  else []

let check ?config path =
  match load path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok (p, expects) ->
    let got = replay ?config p in
    let want = List.sort_uniq String.compare expects in
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf "%s: expected [%s] but replay found [%s]" path
           (String.concat "; " want) (String.concat "; " got))

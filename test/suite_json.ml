(* Tests for the JSON encoder, the machine-readable outcome output and the
   atomic whole-file writes every artifact goes through. *)

module Json = Xfd_util.Json

let encoder_tests =
  [
    Tu.case "scalar rendering" (fun () ->
        Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
        Alcotest.(check string) "neg" "-7" (Json.to_string (Json.Int (-7)));
        Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
        Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
        Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Float 1.5));
        Alcotest.(check string) "integral float" "3.0" (Json.to_string (Json.Float 3.0)));
    Tu.case "string escaping" (fun () ->
        Alcotest.(check string) "quote" "\\\"" (Json.escape "\"");
        Alcotest.(check string) "backslash" "\\\\" (Json.escape "\\");
        Alcotest.(check string) "newline" "a\\nb" (Json.escape "a\nb");
        Alcotest.(check string) "control" "\\u0001" (Json.escape "\001");
        Alcotest.(check string) "rendered" "\"a\\tb\"" (Json.to_string (Json.Str "a\tb")));
    Tu.case "compound rendering" (fun () ->
        let v = Json.Obj [ ("xs", Json.Arr [ Json.Int 1; Json.Int 2 ]); ("ok", Json.Bool false) ] in
        Alcotest.(check string) "compact" {|{"xs":[1,2],"ok":false}|} (Json.to_string v);
        Alcotest.(check string) "empties" {|{"a":[],"b":{}}|}
          (Json.to_string (Json.Obj [ ("a", Json.Arr []); ("b", Json.Obj []) ])));
    Tu.case "pretty output is indented and re-compactable" (fun () ->
        let v = Json.Obj [ ("k", Json.Arr [ Json.Str "v" ]) ] in
        let pretty = Json.to_string_pretty v in
        Alcotest.(check bool) "has newlines" true (String.contains pretty '\n');
        (* stripping whitespace outside strings must recover the compact form *)
        let compact =
          String.to_seq pretty
          |> Seq.filter (fun c -> c <> '\n' && c <> ' ')
          |> String.of_seq
        in
        Alcotest.(check string) "same structure" (Json.to_string v) compact);
  ]

let outcome_tests =
  [
    Tu.case "outcome JSON carries the tally and the bug kinds" (fun () ->
        let o = Tu.detect (Xfd_workloads.Array_update.program ~size:1 ()) in
        let s = Json.to_string (Xfd.Engine.outcome_to_json o) in
        let contains sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "program name" true (contains "\"array_update(fig2-bug)\"");
        Alcotest.(check bool) "race kind" true (contains "\"cross-failure-race\"");
        Alcotest.(check bool) "semantic kind" true (contains "\"cross-failure-semantic-bug\"");
        Alcotest.(check bool) "status" true (contains "\"IC-stale\"");
        Alcotest.(check bool) "locations" true (contains "\"lib/workloads/array_update.ml\""));
    Tu.case "clean outcome has empty bug arrays" (fun () ->
        let o = Tu.detect (Xfd_workloads.Array_update.program ~size:1 ~correct_valid:true ()) in
        let s = Json.to_string (Xfd.Engine.outcome_to_json o) in
        let contains sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "no bugs" true (contains "\"unique_bugs\":[]"));
  ]

(* Encoder/parser round trips on strings that need escaping. *)
let roundtrip_tests =
  let rt s =
    match Json.of_string (Json.to_string (Json.Str s)) with
    | Ok (Json.Str s') -> s'
    | Ok _ -> Alcotest.failf "round trip of %S produced a non-string" s
    | Error e -> Alcotest.failf "round trip of %S failed: %s" s e
  in
  [
    Tu.case "escaped strings round-trip" (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) (Printf.sprintf "%S" s) s (rt s))
          [
            "";
            "plain";
            "quote \" inside";
            "back\\slash";
            "line\nbreak\r\ttab";
            "nul \000 and bell \007";
            "high byte \x7f";
            "{\"looks\":\"like json\"}";
          ]);
    Tu.case "\\uXXXX escapes below 0x80 decode to bytes" (fun () ->
        (match Json.of_string "\"A\\u000aZ\\u0000\"" with
        | Ok (Json.Str s) -> Alcotest.(check string) "decoded" "A\nZ\000" s
        | Ok _ | Error _ -> Alcotest.fail "expected a string");
        (* Code points >= 0x80 are preserved as their literal escape text. *)
        match Json.of_string "\"caf\\u00e9\"" with
        | Ok (Json.Str s) -> Alcotest.(check string) "preserved" "caf\\u00e9" s
        | Ok _ | Error _ -> Alcotest.fail "expected a string");
    Tu.case "escape output re-parses to the original body" (fun () ->
        List.iter
          (fun s ->
            let quoted = "\"" ^ Json.escape s ^ "\"" in
            match Json.of_string quoted with
            | Ok (Json.Str s') -> Alcotest.(check string) "body" s s'
            | Ok _ | Error _ -> Alcotest.failf "escape of %S did not re-parse" s)
          [ "\001\002\031"; "mixed \" and \\ and \n"; "trailing backslash \\" ]);
  ]

let roundtrip_props =
  let ascii_string =
    QCheck.make
      ~print:(fun s -> Printf.sprintf "%S" s)
      QCheck.Gen.(map (String.map (fun c -> Char.chr (Char.code c land 0x7f))) string)
  in
  [
    QCheck.Test.make ~name:"to_string/of_string round-trips any 7-bit string" ~count:300
      ascii_string
      (fun s ->
        match Json.of_string (Json.to_string (Json.Str s)) with
        | Ok (Json.Str s') -> s' = s
        | Ok _ | Error _ -> false);
    QCheck.Test.make ~name:"nested values survive a round trip" ~count:100
      (QCheck.pair QCheck.small_int ascii_string)
      (fun (n, s) ->
        let v =
          Json.Obj
            [ ("k", Json.Arr [ Json.Int n; Json.Str s; Json.Null ]); ("b", Json.Bool true) ]
        in
        Json.of_string (Json.to_string v) = Ok v);
  ]

(* A scratch directory holding one file, [artifact], with [contents]. *)
let with_artifact contents f =
  let dir = Filename.temp_dir "xfd-atomic" "" in
  let path = Filename.concat dir "artifact.json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir path)

let read path = In_channel.with_open_bin path In_channel.input_all
let listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

let atomic_write_tests =
  [
    Tu.case "a writer that raises midway leaves the old file intact" (fun () ->
        with_artifact "{\"old\": true}\n" (fun dir path ->
            (match
               Xfd_util.Atomic_file.write path (fun oc ->
                   output_string oc "{\"new\": tru";
                   flush oc;
                   failwith "writer died")
             with
            | () -> Alcotest.fail "the writer's exception was swallowed"
            | exception Failure msg -> Alcotest.(check string) "re-raised" "writer died" msg);
            Alcotest.(check string) "old bytes untouched" "{\"old\": true}\n" (read path);
            Alcotest.(check (list string)) "no temp file left" [ "artifact.json" ] (listing dir)));
    Tu.case "a completed write replaces the file in one step" (fun () ->
        with_artifact "old" (fun dir path ->
            let n = Xfd_util.Atomic_file.write path (fun oc -> output_string oc "new"; 3) in
            Alcotest.(check int) "writer result returned" 3 n;
            Alcotest.(check string) "new bytes" "new" (read path);
            Alcotest.(check (list string)) "no temp file left" [ "artifact.json" ] (listing dir)));
  ]

let suite =
  [
    ("json.atomic_write", atomic_write_tests);
    ("json.encoder", encoder_tests);
    ("json.outcome", outcome_tests);
    ("json.roundtrip", roundtrip_tests @ List.map QCheck_alcotest.to_alcotest roundtrip_props);
  ]

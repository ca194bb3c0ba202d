(* The [lint] front end shared by [xfd_cli lint] and [xfd_trace_tool lint].
   The two subcommands differ only in where the trace comes from (a
   workload run, or a recorded trace file), so the output and model flags,
   model parsing, rendering and the exit contract live here once:
   0 = clean, 1 = findings (or a missed expectation), 2 = usage or I/O
   error. *)

open Cmdliner
module Lint = Xfd_lint.Lint
module D = Xfd_trace.Domain_model

type opts = { json : bool; domain : D.t; diff_domains : bool }

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let opts =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the lint report (or diff, or triage) as pretty JSON.")
  in
  let domain =
    Arg.(
      value & opt string "adr"
      & info [ "domain" ] ~docv:"MODEL"
          ~doc:
            "Persistence-domain model to lint under: $(b,adr) (default), $(b,eadr) or \
             $(b,cxl-gpf).")
  in
  let diff_domains =
    Arg.(
      value & flag
      & info [ "diff-domains" ]
          ~doc:
            "Lint the same trace under every domain model and classify each finding \
             key as stable / appears / disappears relative to the $(b,--domain) \
             baseline.")
  in
  let make json domain diff_domains =
    match D.of_string domain with
    | Some domain -> { json; domain; diff_domains }
    | None -> usage_error "unknown persistence-domain model %S (want adr|eadr|cxl-gpf)" domain
  in
  Term.(const make $ json $ domain $ diff_domains)

type analysis = Report of Lint.report | Diff of Lint.diff_report

(* Print [a] ([title] prefixes the text rendering; a [triage] replaces the
   JSON report and follows the text one), then exit by the contract.  With
   [expected] rule ids the findings are the point: meeting every
   expectation exits 0.  Without, a diff is clean only when clean under
   every analysed model. *)
let finish o ?title ?triage ?(expected = []) a =
  let json j = print_endline (Xfd_util.Json.to_string_pretty j) in
  let prefix = match title with Some s -> s ^ ": " | None -> "" in
  (match a with
  | Diff d ->
    if o.json then json (Lint.diff_to_json d)
    else Format.printf "%s%a@." prefix Lint.pp_diff d
  | Report r -> (
    match (o.json, triage) with
    | true, Some t -> json (Lint.triage_to_json t)
    | true, None -> json (Lint.report_to_json r)
    | false, _ ->
      Format.printf "%s%a@." prefix Lint.pp_report r;
      Option.iter (Format.printf "%a@." Lint.pp_triage) triage));
  (* With [--diff-domains] expectations are checked against the baseline
     model's report. *)
  let report = match a with Report r -> r | Diff d -> List.assoc o.domain d.Lint.reports in
  let fired = List.map (fun f -> Lint.rule_id f.Lint.rule) report.Lint.findings in
  let missing = List.filter (fun id -> not (List.mem id fired)) expected in
  if missing <> [] then begin
    Printf.eprintf "expected rule(s) did not fire: %s\n" (String.concat ", " missing);
    exit 1
  end;
  let clean =
    match a with Report r -> Lint.clean r | Diff d -> Lint.diff_clean d
  in
  if expected = [] && not clean then exit 1

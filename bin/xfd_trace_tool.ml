(* Offline trace tooling — the section 5.5 decoupling demonstrated.

   The backend "can be attached to other tracing frameworks": traces are
   plain one-line-per-event text, so they can be recorded here, produced by
   anything else, inspected, and checked offline.

     xfd_trace record -w btree --test 3 --pre pre.trace --post post.trace
     xfd_trace stats pre.trace
     xfd_trace dump pre.trace --head 20
     xfd_trace check --pre pre.trace --post post.trace

   [check] replays the recorded pre-failure trace into a fresh backend and
   the post-failure trace into a fork of it — the terminal-failure-point
   analysis, without any execution. *)

open Cmdliner

let load_trace path =
  let ic = open_in path in
  let t = Xfd_trace.Trace.load ic in
  close_in ic;
  t

let save_trace t path = Xfd_util.Atomic_file.write path (Xfd_trace.Trace.save t)

let record_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME")
  in
  let test = Arg.(value & opt int 1 & info [ "test" ] ~docv:"N") in
  let pre_out =
    Arg.(value & opt string "pre.trace" & info [ "pre" ] ~docv:"FILE" ~doc:"Pre-failure trace output.")
  in
  let post_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "post" ] ~docv:"FILE" ~doc:"Also record one post-failure trace (run after the complete pre-failure stage).")
  in
  let action workload test pre_out post_out =
    let entry = Xfd_experiments.Workload_set.find workload in
    let program = entry.Xfd_experiments.Workload_set.make ~init:0 ~test in
    let dev = Xfd_mem.Pm_device.create () in
    let trace = Xfd_trace.Trace.create () in
    let ctx = Xfd_sim.Ctx.create ~stage:Xfd_sim.Ctx.Pre_failure ~dev ~trace () in
    program.Xfd.Engine.setup ctx;
    (match program.Xfd.Engine.pre ctx with
    | () -> ()
    | exception Xfd_sim.Ctx.Detection_complete -> ());
    save_trace trace pre_out;
    Printf.printf "recorded %d pre-failure events to %s\n" (Xfd_trace.Trace.length trace) pre_out;
    match post_out with
    | None -> ()
    | Some path ->
      let post_dev =
        Xfd_mem.Pm_device.boot (Xfd_mem.Pm_device.crash dev Xfd_mem.Pm_device.Full)
      in
      let post_trace = Xfd_trace.Trace.create () in
      let post_ctx =
        Xfd_sim.Ctx.create ~stage:Xfd_sim.Ctx.Post_failure ~dev:post_dev ~trace:post_trace ()
      in
      (match program.Xfd.Engine.post post_ctx with
      | () -> ()
      | exception Xfd_sim.Ctx.Detection_complete -> ());
      save_trace post_trace path;
      Printf.printf "recorded %d post-failure events to %s\n"
        (Xfd_trace.Trace.length post_trace) path
  in
  Cmd.v (Cmd.info "record" ~doc:"Trace a workload to files")
    Term.(const action $ workload $ test $ pre_out $ post_out)

let stats_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as one JSON object.")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Keep running and re-render whenever $(i,FILE) changes (polled by \
             mtime/size) — live view of a trace being recorded.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll interval for $(b,--watch).")
  in
  let watch_count =
    Arg.(
      value
      & opt (some int) None
      & info [ "watch-count" ] ~docv:"N"
          ~doc:"With $(b,--watch), exit after $(docv) renders (for scripting/tests).")
  in
  let render file json =
    let t = load_trace file in
    let c = Xfd_trace.Trace.counts t in
    (* Access-size distributions, through the same histogram machinery the
       online pipeline reports with. *)
    let h_writes = Xfd_obs.Obs.Histogram.make "trace.write_bytes" in
    let h_reads = Xfd_obs.Obs.Histogram.make "trace.read_bytes" in
    Xfd_trace.Trace.iter t (fun ev ->
        match ev.Xfd_trace.Event.kind with
        | Xfd_trace.Event.Write { size; _ } | Xfd_trace.Event.Nt_write { size; _ } ->
          Xfd_obs.Obs.Histogram.observe h_writes size
        | Xfd_trace.Event.Read { size; _ } -> Xfd_obs.Obs.Histogram.observe h_reads size
        | _ -> ());
    if json then begin
      let hist h =
        Xfd_util.Json.Obj
          [
            ("count", Xfd_util.Json.Int (Xfd_obs.Obs.Histogram.count h));
            ("sum", Xfd_util.Json.Int (Xfd_obs.Obs.Histogram.sum h));
            ("max", Xfd_util.Json.Int (Xfd_obs.Obs.Histogram.max_value h));
            ( "buckets",
              Xfd_util.Json.Arr
                (List.map
                   (fun (le, n) ->
                     Xfd_util.Json.Obj
                       [ ("le", Xfd_util.Json.Int le); ("count", Xfd_util.Json.Int n) ])
                   (Xfd_obs.Obs.Histogram.buckets h)) );
          ]
      in
      print_endline
        (Xfd_util.Json.to_string
           (Xfd_util.Json.Obj
              [
                ("type", Xfd_util.Json.Str "trace_stats");
                ("file", Xfd_util.Json.Str file);
                ("events", Xfd_util.Json.Int (Xfd_trace.Trace.length t));
                ("writes", Xfd_util.Json.Int c.Xfd_trace.Trace.writes);
                ("reads", Xfd_util.Json.Int c.Xfd_trace.Trace.reads);
                ("flushes", Xfd_util.Json.Int c.Xfd_trace.Trace.flushes);
                ("fences", Xfd_util.Json.Int c.Xfd_trace.Trace.fences);
                ("tx_ops", Xfd_util.Json.Int c.Xfd_trace.Trace.tx_ops);
                ("annotations", Xfd_util.Json.Int c.Xfd_trace.Trace.annotations);
                ("write_bytes", hist h_writes);
                ("read_bytes", hist h_reads);
              ]))
    end
    else begin
      Printf.printf "%s: %d events\n" file (Xfd_trace.Trace.length t);
      Printf.printf "  writes       %d\n" c.Xfd_trace.Trace.writes;
      Printf.printf "  reads        %d\n" c.Xfd_trace.Trace.reads;
      Printf.printf "  flushes      %d\n" c.Xfd_trace.Trace.flushes;
      Printf.printf "  fences       %d\n" c.Xfd_trace.Trace.fences;
      Printf.printf "  tx ops       %d\n" c.Xfd_trace.Trace.tx_ops;
      Printf.printf "  annotations  %d\n" c.Xfd_trace.Trace.annotations;
      let print_hist label h =
        if Xfd_obs.Obs.Histogram.count h > 0 then begin
          Printf.printf "  %s: count=%d sum=%d max=%d\n" label
            (Xfd_obs.Obs.Histogram.count h) (Xfd_obs.Obs.Histogram.sum h)
            (Xfd_obs.Obs.Histogram.max_value h);
          List.iter
            (fun (le, n) -> Printf.printf "    le %-8d %d\n" le n)
            (Xfd_obs.Obs.Histogram.buckets h)
        end
      in
      print_hist "write sizes" h_writes;
      print_hist "read sizes" h_reads
    end
  in
  let action file json watch interval watch_count =
    if not watch then render file json
    else begin
      (* Poll mtime/size on the pulse layer's shared ticker; re-render on
         change.  The access-size histograms are process-global Obs
         metrics, so they are reset before every render — otherwise each
         pass would accumulate on the last. *)
      let renders = ref 0 in
      let last = ref None in
      ignore
        (Xfd_pulse.Ticker.loop ~interval (fun _tick ->
             (match Unix.stat file with
             | exception Unix.Unix_error (e, _, _) ->
               Printf.printf "%s: %s (waiting)\n%!" file (Unix.error_message e)
             | st ->
               let key = Some (st.Unix.st_mtime, st.Unix.st_size) in
               if key <> !last then begin
                 last := key;
                 incr renders;
                 if not json then Printf.printf "\n-- render #%d --\n" !renders;
                 Xfd_obs.Obs.reset ();
                 (try render file json with Sys_error e -> Printf.printf "%s\n" e);
                 flush stdout
               end);
             match watch_count with
             | Some k when !renders >= k -> `Stop
             | _ -> `Continue))
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Event counts and access-size histograms of a trace file")
    Term.(const action $ file $ json $ watch $ interval $ watch_count)

let dump_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let head = Arg.(value & opt int max_int & info [ "head" ] ~docv:"N") in
  let range =
    Arg.(
      value
      & opt (some string) None
      & info [ "range" ] ~docv:"FROM:TO"
          ~doc:
            "Print only events $(i,FROM) to $(i,TO) (half-open, clamped to the \
             trace), rendered as a timeline.  Overrides $(b,--head).")
  in
  let parse_range s =
    match String.split_on_char ':' s with
    | [ a; b ] -> begin
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some from, Some upto when from >= 0 && upto >= from -> (from, upto)
      | _ -> failwith (Printf.sprintf "bad --range %S (want FROM:TO, 0 <= FROM <= TO)" s)
    end
    | _ -> failwith (Printf.sprintf "bad --range %S (want FROM:TO)" s)
  in
  let action file head range =
    let t = load_trace file in
    match range with
    | Some spec ->
      let from, upto = parse_range spec in
      List.iter print_endline (Xfd_forensics.Timeline.range t ~from ~upto ~marks:[])
    | None ->
      Xfd_trace.Trace.iter_prefix t head (fun ev ->
          Format.printf "%a@." Xfd_trace.Event.pp ev)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Pretty-print a trace file")
    Term.(const action $ file $ head $ range)

let explain_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let at =
    Arg.(
      required
      & opt (some int) None
      & info [ "at" ] ~docv:"INDEX" ~doc:"Event index to explain.")
  in
  let radius =
    Arg.(
      value
      & opt int Xfd_forensics.Timeline.default_radius
      & info [ "radius" ] ~docv:"N" ~doc:"Context events on each side.")
  in
  let action file at radius =
    let t = load_trace file in
    let len = Xfd_trace.Trace.length t in
    if at < 0 || at >= len then begin
      Printf.eprintf "index %d out of range (trace has %d events)\n" at len;
      exit 2
    end;
    let ev = Xfd_trace.Trace.get t at in
    Format.printf "%s: event %d of %d@." file at len;
    (* For a store, chase its persistence through the rest of the trace:
       which later flush captured the line, and which fence persisted it —
       the manual walk a provenance chain automates. *)
    (match ev.Xfd_trace.Event.kind with
    | Xfd_trace.Event.Write { addr; size } | Xfd_trace.Event.Nt_write { addr; size } ->
      let line = Xfd_mem.Addr.line_of addr in
      let nt =
        match ev.Xfd_trace.Event.kind with Xfd_trace.Event.Nt_write _ -> true | _ -> false
      in
      let flush_at = ref (if nt then Some at else None) in
      let fence_at = ref None in
      (try
         for i = at + 1 to len - 1 do
           let e = Xfd_trace.Trace.get t i in
           match e.Xfd_trace.Event.kind with
           | Xfd_trace.Event.Clwb { addr = a }
           | Xfd_trace.Event.Clflush { addr = a }
           | Xfd_trace.Event.Clflushopt { addr = a } ->
             if !flush_at = None && Xfd_mem.Addr.line_of a = line then flush_at := Some i
           | Xfd_trace.Event.Sfence | Xfd_trace.Event.Mfence ->
             if !flush_at <> None then begin
               fence_at := Some i;
               raise Exit
             end
           | Xfd_trace.Event.Write { addr = a; size = s }
           | Xfd_trace.Event.Nt_write { addr = a; size = s } ->
             (* Overwritten before being written back: stop the chase. *)
             if !flush_at = None && Xfd_mem.Addr.overlap (a, s) (addr, size) then raise Exit
           | _ -> ()
         done
       with Exit -> ());
      (match (!flush_at, !fence_at) with
      | None, _ ->
        Format.printf "store to %a+%d: never written back in this trace@."
          Xfd_mem.Addr.pp addr size
      | Some f, None ->
        Format.printf
          "store to %a+%d: written back at event %d but no later fence — not \
           guaranteed persisted@."
          Xfd_mem.Addr.pp addr size f
      | Some f, Some s ->
        if nt && f = at then
          Format.printf "store to %a+%d: non-temporal, persisted by fence at event %d@."
            Xfd_mem.Addr.pp addr size s
        else
          Format.printf
            "store to %a+%d: written back at event %d, persisted by fence at event %d@."
            Xfd_mem.Addr.pp addr size f s)
    | _ -> ());
    Format.printf "timeline:@.";
    List.iter
      (fun (e : Xfd_forensics.Timeline.excerpt) ->
        List.iter (fun l -> Format.printf "  %s@." l) e.Xfd_forensics.Timeline.lines)
      (Xfd_forensics.Timeline.excerpts t ~indices:[ at ] ~radius)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the timeline around one event; for stores, chase the writeback and \
          fence that (fail to) persist them")
    Term.(const action $ file $ at $ radius)

let lint_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the lint report as one JSON object.")
  in
  let fail_on_finding =
    Arg.(
      value & flag
      & info [ "fail-on-finding" ]
          ~doc:
            "Deprecated: findings exit 1 by default now; the flag is accepted and \
             ignored.")
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
            "Lint the trace under every domain model and classify each finding key as \
             stable / appears / disappears relative to the $(b,--domain) baseline.")
  in
  let action file json _fail_on_finding domain diff_domains =
    let domain =
      match Xfd_trace.Domain_model.of_string domain with
      | Some d -> d
      | None ->
        Printf.eprintf "unknown persistence-domain model %S (want adr|eadr|cxl-gpf)\n"
          domain;
        exit 2
    in
    let t =
      try load_trace file
      with Sys_error e ->
        Printf.eprintf "cannot read trace: %s\n" e;
        exit 2
    in
    (* Exit contract (shared with xfd_cli lint): 0 = clean, 1 = findings,
       2 = usage/IO error. *)
    if diff_domains then begin
      let d = Xfd_lint.Lint.diff_domains ~baseline:domain t in
      if json then
        print_endline (Xfd_util.Json.to_string (Xfd_lint.Lint.diff_to_json d))
      else Format.printf "%s: %a@." file Xfd_lint.Lint.pp_diff d;
      if not (Xfd_lint.Lint.diff_clean d) then exit 1
    end
    else begin
      let report = Xfd_lint.Lint.check_trace ~domain t in
      if json then
        print_endline (Xfd_util.Json.to_string (Xfd_lint.Lint.report_to_json report))
      else Format.printf "%s: %a@." file Xfd_lint.Lint.pp_report report;
      if not (Xfd_lint.Lint.clean report) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a recorded pre-failure trace for crash-consistency rule \
          violations — no execution, no replay. Exits 0 when clean, 1 on findings, 2 \
          on usage or IO errors.")
    Term.(const action $ file $ json $ fail_on_finding $ domain $ diff_domains)

let check_cmd =
  let pre = Arg.(required & opt (some string) None & info [ "pre" ] ~docv:"FILE") in
  let post = Arg.(required & opt (some string) None & info [ "post" ] ~docv:"FILE") in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Attach a provenance chain to every finding.")
  in
  let action pre post explain =
    let pre_t = load_trace pre and post_t = load_trace post in
    let det = Xfd.Detector.create ~forensics:explain () in
    Xfd.Detector.replay det pre_t ~from:0 ~upto:(Xfd_trace.Trace.length pre_t);
    let fork = Xfd.Detector.fork_for_post det in
    Xfd.Detector.replay fork post_t ~from:0 ~upto:(Xfd_trace.Trace.length post_t);
    let bugs = Xfd.Detector.bugs fork @ Xfd.Detector.bugs det in
    Printf.printf "offline check (%d pre + %d post events): %d finding(s)\n"
      (Xfd_trace.Trace.length pre_t) (Xfd_trace.Trace.length post_t) (List.length bugs);
    List.iter
      (fun b ->
        if explain then Format.printf "  %a" Xfd.Report.pp_bug_explained b
        else Format.printf "  %a@." Xfd.Report.pp_bug b)
      bugs;
    if bugs <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the detection backend over recorded traces")
    Term.(const action $ pre $ post $ explain)

let () =
  let info =
    Cmd.info "xfd_trace" ~version:"1.0.0"
      ~doc:"Record, inspect and offline-check XFDetector PM-operation traces"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ record_cmd; stats_cmd; dump_cmd; explain_cmd; lint_cmd; check_cmd ]))

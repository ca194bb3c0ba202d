(* Job runner of the detection benchmark (see README.md).

   One process runs one job, so every timed job starts from the same heap.
   [run.py] spawns the process and waits for its "ready" line: set-up is
   done (programs built, fuzz batch generated, expected verdicts loaded).
   It then sends one line to start the timed job and reads one JSON result
   line.  Verdicts are checked after the timed interval; a wrong verdict is
   a failed operation, never an abort.

   Modes:
   - [plain]: the end-to-end job, no per-call timing;
   - [engine]: the same job with a span around every public call
     ([Engine.detect], [Lint.check_trace], [Oracle.run]), plus the engine's
     own [outcome.timings] split and GC deltas.  After the job, the same
     process runs paired rounds (see [paired_rounds]);
   - [redrive]: the detection pipeline re-driven layer by layer from the
     public functions of [Ctx], [Pm_device] and [Detector], with a span
     around each call.  After the job every re-driven fingerprint is
     compared with [Engine.detect]'s; a difference aborts the process.

   [expected] prints the stored fingerprints of the [scale] and
   [tx-domains] workloads, computed with the [`Fresh] engine. *)

module Engine = Xfd.Engine
module Config = Xfd.Config
module Detector = Xfd.Detector
module Report = Xfd.Report
module Ctx = Xfd_sim.Ctx
module Faults = Xfd_sim.Faults
module Device = Xfd_mem.Pm_device
module Image = Xfd_mem.Image
module Trace = Xfd_trace.Trace
module Dm = Xfd_trace.Domain_model
module Lint = Xfd_lint.Lint
module Gen = Xfd_fuzz.Gen
module Oracle = Xfd_fuzz.Oracle
module Prog = Xfd_fuzz.Prog
module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json
module Rng = Xfd_util.Rng
module W = Xfd_workloads

let now = Unix.gettimeofday

(* ---- workloads ---- *)

type size = Full | Tiny

let size_name = function Full -> "full" | Tiny -> "tiny"

(* One detection run of a job and what its verdict is checked against:
   [prog = Some p] against [Oracle.run p], otherwise against the stored
   fingerprint named [id].  Programs keep their state in the simulated
   device, so one program value can be detected any number of times. *)
type case = {
  id : string;
  program : Engine.program;
  config : Config.t;
  lint_models : Dm.t list;  (** models the recorded pre-failure trace is linted under *)
  prog : Prog.t option;
}

let case ?(lint_models = []) ?prog ~config id program =
  { id; program; config; lint_models; prog }

(* [scale]: the Fig. 13 top point, 2249 failure points. *)
let scale_cases size =
  let init, test = match size with Full -> (64, 256) | Tiny -> (4, 16) in
  [
    case ~config:Config.default
      (Printf.sprintf "scale/%s" (size_name size))
      (W.Hashmap_atomic.program ~init_size:init ~size:test ~variant:`Fixed ());
  ]

(* [tx-domains]: the undo-log structures, one seeded skipped TX_ADD each,
   under every persistence-domain model. *)
let tx_structures =
  [
    ("btree", fun ~init ~test -> W.Btree.program ~init_size:init ~size:test ());
    ("ctree", fun ~init ~test -> W.Ctree.program ~init_size:init ~size:test ());
    ("rbtree", fun ~init ~test -> W.Rbtree.program ~init_size:init ~size:test ());
    ("hashmap-tx", fun ~init ~test -> W.Hashmap_tx.program ~init_size:init ~size:test ());
  ]

let tx_size = function Full -> (4, 8) | Tiny -> (2, 4)

(* The seeded fault skips TX_ADD occurrence [0 .. tx_occurrences-1]; the
   expected table holds every occurrence, so any seed has its answers. *)
let tx_occurrences = 8

let mix seed k =
  Int64.logxor (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L) (Int64.of_int k)

let tx_occurrence ~seed k = Rng.int (Rng.create (mix seed (1000 + k))) tx_occurrences

let tx_case size (name, make) occ model =
  let init, test = tx_size size in
  let config =
    { Config.default with faults = Faults.make ~skip_tx_add:[ occ ] (); domain = model }
  in
  case ~lint_models:[ model ] ~config
    (Printf.sprintf "tx/%s/%s/%d/%s" (size_name size) name occ (Dm.to_string model))
    (make ~init ~test)

let tx_cases size ~seed =
  List.concat
    (List.mapi
       (fun k s -> List.map (tx_case size s (tx_occurrence ~seed k)) Dm.all)
       tx_structures)

(* [fuzz]: program [i] is a pure function of (seed, i); profiles rotate. *)
let fuzz_batch = function Full -> 1200 | Tiny -> 12
let profiles = [| Gen.Buggy; Gen.Correct; Gen.Wild |]

let fuzz_prog ~seed i = Gen.generate profiles.(i mod 3) (Rng.create (mix seed i))

let fuzz_cases ~seed progs =
  List.mapi
    (fun i p ->
      case ~lint_models:Dm.all ~prog:p ~config:Config.default
        (Printf.sprintf "fuzz/%d" i)
        (Prog.to_program ~name:(Printf.sprintf "fuzz-%d-%d" seed i) p))
    progs

(* ---- layer accounting ---- *)

let layers : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace layers name (v +. Option.value ~default:0.0 (Hashtbl.find_opt layers name))

let add_max name v =
  Hashtbl.replace layers name
    (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt layers name)))

let spans = ref 0

(* A span around one public call: seconds under [name], minor words
   allocated under [name ^ ".words"]. *)
let span name f =
  incr spans;
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  add name (now () -. t0);
  add (name ^ ".words") (w1 -. w0);
  r

(* [span] when the job is traced, the bare call otherwise. *)
let timed traced name f = if traced then span name f else f ()

let model_tag = function Dm.Adr -> "adr" | Dm.Eadr -> "eadr" | Dm.Cxl_gpf -> "cxl_gpf"

(* ---- verdicts ---- *)

type fingerprint = { points : int; pre_events : int; post_events : int; keys : string list }

let fingerprint_of (o : Engine.outcome) =
  {
    points = o.failure_points;
    pre_events = o.pre_events;
    post_events = o.post_events;
    keys = Oracle.keys_of_outcome o;
  }

let digest l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* What the stored table holds per case: the detection fingerprint, with
   the keys as a count and a digest, and the digest of the lint findings. *)
type expected = {
  e_points : int;
  e_pre : int;
  e_post : int;
  e_keys : int;
  e_keys_md5 : string;
  e_lint_md5 : string;
}

let expected_of fp lint =
  {
    e_points = fp.points;
    e_pre = fp.pre_events;
    e_post = fp.post_events;
    e_keys = List.length fp.keys;
    e_keys_md5 = digest fp.keys;
    e_lint_md5 = digest lint;
  }

let expected_to_json e =
  Json.Obj
    [
      ("failure_points", Json.Int e.e_points);
      ("pre_events", Json.Int e.e_pre);
      ("post_events", Json.Int e.e_post);
      ("keys", Json.Int e.e_keys);
      ("keys_md5", Json.Str e.e_keys_md5);
      ("lint_md5", Json.Str e.e_lint_md5);
    ]

let expected_of_json j =
  let int k = match Json.member k j with Some (Json.Int n) -> n | _ -> failwith k in
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> failwith k in
  {
    e_points = int "failure_points";
    e_pre = int "pre_events";
    e_post = int "post_events";
    e_keys = int "keys";
    e_keys_md5 = str "keys_md5";
    e_lint_md5 = str "lint_md5";
  }

let load_expected ~plant path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let tbl = Hashtbl.create 256 in
  (match Json.of_string text with
  | Ok (Json.Obj entries) ->
    List.iter
      (fun (id, j) ->
        let e = expected_of_json j in
        (* [--plant-wrong]: every stored answer is off by one failure point,
           so every verdict must be counted as failed. *)
        Hashtbl.replace tbl id (if plant then { e with e_points = e.e_points + 1 } else e))
      entries
  | Ok _ | Error _ -> failwith (path ^ ": not a JSON object"));
  tbl

(* The case's verdict, or [Some reason] when it differs from the expected
   answer. *)
let check ~expected ~plant c fp lint oracle =
  match (c.prog, oracle) with
  | Some _, Some (r : Oracle.result) ->
    let want = r.failure_points + if plant then 1 else 0 in
    if fp.keys = r.keys && fp.points = want then None
    else
      Some
        (Printf.sprintf "%s: engine %d fps [%s], oracle %d fps [%s]" c.id fp.points
           (String.concat "; " fp.keys) want (String.concat "; " r.keys))
  | _ -> (
    match Hashtbl.find_opt expected c.id with
    | None -> Some (c.id ^ ": no expected verdict")
    | Some e ->
      let got = expected_of fp lint in
      if got = e then None
      else
        Some
          (Printf.sprintf "%s: got %s, expected %s" c.id
             (Json.to_string (expected_to_json got))
             (Json.to_string (expected_to_json e))))

(* ---- the job, through the public entry points ---- *)

(* Trace [setup] and [pre] as [Lint.check_prog] does: faults armed, no
   failure injection. *)
let record_pre_trace (config : Config.t) (program : Engine.program) =
  Faults.reset config.faults;
  let dev = Device.create () in
  let trace = Trace.create () in
  let ctx =
    Ctx.create ~faults:config.faults ~strategy:config.strategy
      ~trust_library:config.trust_library ~stage:Ctx.Pre_failure ~dev ~trace ()
  in
  program.setup ctx;
  (match program.pre ctx with () -> () | exception Ctx.Detection_complete -> ());
  Device.release dev;
  trace

let lint_trace ~traced models trace =
  List.concat_map
    (fun m ->
      let name = "lint." ^ model_tag m ^ "_s" in
      let r = timed traced name (fun () -> Lint.check_trace ~domain:m trace) in
      if traced then add "lint.events" (float_of_int r.Lint.events);
      List.map (fun f -> Dm.to_string m ^ ":" ^ Lint.finding_key f) r.Lint.findings)
    models

let lint_case ~traced c =
  match c.lint_models with
  | [] -> []
  | models ->
    let trace = timed traced "lint.record_s" (fun () -> record_pre_trace c.config c.program) in
    lint_trace ~traced models trace

(* ---- the job, re-driven layer by layer ---- *)

(* Exceptions the engine treats as a broken harness rather than a finding. *)
let fatal = function Assert_failure _ | Out_of_memory | Stack_overflow -> true | _ -> false

(* [Engine.detect] rebuilt from public functions, in the engine's order:
   pre-failure execution with a CoW snapshot at every non-elided failure
   point, every post-failure execution, then incremental pre-failure replay
   with one journaled fork per point for the post-failure replay. *)
let redrive (config : Config.t) (program : Engine.program) =
  Faults.reset config.faults;
  Image.reset_peak ();
  let snap_bytes0 = Option.value ~default:0 (Obs.counter_value "pm.snapshot_bytes") in
  let dev = Device.create () in
  let trace = Trace.create () in
  let snaps = ref [] and fired = ref 0 and last_ops = ref 0 in
  let snapshot () =
    let s = span "snapshot.s" (fun () -> Device.snapshot dev) in
    snaps := (Trace.length trace, s) :: !snaps;
    incr fired
  in
  let on_failure_point ctx =
    if !fired < config.max_failure_points && Ctx.update_ops ctx > !last_ops then begin
      last_ops := Ctx.update_ops ctx;
      snapshot ()
    end
    else add "engine.fp_elided" 1.0
  in
  let ctx =
    Ctx.create ~faults:config.faults ~strategy:config.strategy
      ~trust_library:config.trust_library ~on_failure_point ~stage:Ctx.Pre_failure ~dev
      ~trace ()
  in
  let snap_before = Option.value ~default:0.0 (Hashtbl.find_opt layers "snapshot.s") in
  let t0 = now () in
  program.setup ctx;
  (match program.pre ctx with () -> () | exception Ctx.Detection_complete -> ());
  if config.inject_terminal_fp && Ctx.update_ops ctx > !last_ops then snapshot ();
  let snap_inside = Option.value ~default:0.0 (Hashtbl.find_opt layers "snapshot.s") -. snap_before in
  add "ctx.pre_exec_s" (now () -. t0 -. snap_inside);
  let snaps = List.rev !snaps in
  let crash_mode = match config.crash_mode with `Full -> Device.Full | `Strict -> Device.Strict in
  let post_runs =
    List.map
      (fun (pos, snap) ->
        let post_dev =
          span "snapshot.s" (fun () ->
              let img = Device.crash snap crash_mode in
              let d = Device.boot img in
              Image.release img;
              Device.release snap;
              d)
        in
        let post_trace = Trace.create () in
        let exn =
          span "ctx.post_exec_s" (fun () ->
              let pctx =
                Ctx.create ~trust_library:config.trust_library ~stage:Ctx.Post_failure
                  ~dev:post_dev ~trace:post_trace ()
              in
              let exn =
                match program.post pctx with
                | () | (exception Ctx.Detection_complete) -> None
                | exception e when not (fatal e) -> Some (Printexc.to_string e)
              in
              Device.release post_dev;
              exn)
        in
        (pos, post_trace, exn))
      snaps
  in
  let commit_at = match config.crash_mode with `Full -> `Write | `Strict -> `Persist in
  let det =
    Detector.create ~check_perf:config.check_perf ~commit_at ~forensics:config.forensics
      ~domain:config.domain ()
  in
  let pre_pos = ref 0 and post_events = ref 0 in
  let bugs =
    List.mapi
      (fun i (pos, post_trace, exn) ->
        span "detector.pre_replay_s" (fun () ->
            Detector.replay det trace ~from:!pre_pos ~upto:pos);
        pre_pos := pos;
        let fork = span "detector.fork_rewind_s" (fun () -> Detector.fork_for_post det) in
        let n = Trace.length post_trace in
        post_events := !post_events + n;
        span "detector.post_replay_s" (fun () -> Detector.replay fork post_trace ~from:0 ~upto:n);
        let bugs = Detector.bugs fork in
        span "detector.fork_rewind_s" (fun () -> Detector.rewind fork);
        match exn with
        | Some exn -> bugs @ [ Report.Post_failure_error { exn; failure_point = i } ]
        | None -> bugs)
      post_runs
  in
  span "detector.pre_replay_s" (fun () ->
      Detector.replay det trace ~from:!pre_pos ~upto:(Trace.length trace));
  let bugs = List.concat bugs @ Detector.bugs det in
  Device.release dev;
  Detector.release det;
  let points = List.length snaps in
  add "ctx.events" (float_of_int (Trace.length trace + !post_events));
  add "detector.post_events" (float_of_int !post_events);
  add_max "image.peak_bytes" (float_of_int (Image.peak_bytes ()));
  add "pm.snapshot_bytes"
    (float_of_int (Option.value ~default:0 (Obs.counter_value "pm.snapshot_bytes") - snap_bytes0));
  {
    points;
    pre_events = Trace.length trace;
    post_events = !post_events;
    keys = List.sort_uniq String.compare (List.map Report.dedup_key bugs);
  }

(* ---- one job ---- *)

type mode = Plain | Engine_calls | Redrive

let mode_of_string = function
  | "plain" -> Plain
  | "engine" -> Engine_calls
  | "redrive" -> Redrive
  | m -> failwith ("unknown mode " ^ m)

let add_timings (t : Engine.timings) =
  add "engine.timings.pre_exec_s" t.pre_exec;
  add "engine.timings.post_exec_s" t.post_exec;
  add "engine.timings.pre_replay_s" t.pre_replay;
  add "engine.timings.post_replay_s" t.post_replay;
  add "engine.timings.snapshotting_s" t.snapshotting

(* One detection run plus its lint and oracle calls; returns what the
   verdict check needs. *)
let run_case mode c =
  let traced = mode <> Plain in
  let fp =
    match mode with
    | Redrive -> redrive c.config c.program
    | Plain | Engine_calls ->
      let o =
        timed traced "engine.detect_s" (fun () -> Engine.detect ~config:c.config c.program)
      in
      if traced then add_timings o.timings;
      fingerprint_of o
  in
  let lint = lint_case ~traced c in
  let oracle =
    Option.map (fun p -> timed traced "fuzz.oracle_s" (fun () -> Oracle.run p)) c.prog
  in
  (fp, lint, oracle)

(* Peak resident set of this process since the last [reset_peak_rss]. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> go ()
      | exception End_of_file -> 0
    in
    let kb = go () in
    close_in ic;
    kb
  with Sys_error _ -> 0

(* The spans of the re-driven detection layers. *)
let detect_layers =
  [
    "ctx.pre_exec_s"; "ctx.post_exec_s"; "snapshot.s"; "detector.pre_replay_s";
    "detector.post_replay_s"; "detector.fork_rewind_s";
  ]

(* Every span a job can record; none of them nests in another. *)
let job_spans =
  ("engine.detect_s" :: detect_layers)
  @ [ "lint.record_s"; "lint.adr_s"; "lint.eadr_s"; "lint.cxl_gpf_s"; "fuzz.oracle_s" ]

let total names =
  List.fold_left
    (fun acc k -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt layers k))
    0.0 names

(* Two differences between nearby timings: [Engine.detect] with Obs on
   against Obs off, and against the re-driven pipeline's detection layers.
   Across processes these differences drown in job-to-job noise, so they
   are timed in one process, after the job, once its heap has grown (a
   fresh heap would favour whichever call ran second).  Each round runs
   every case under the three variants, rotating their order. *)
let paired_rounds cases =
  let variants = [| `On; `Off; `Redrive |] in
  List.iteri
    (fun i c ->
      for k = 0 to 2 do
        match variants.((i + k) mod 3) with
        | `On -> ignore (span "pairs.obs_on_s" (fun () -> Engine.detect ~config:c.config c.program))
        | `Off ->
          Obs.set_enabled false;
          ignore (span "pairs.obs_off_s" (fun () -> Engine.detect ~config:c.config c.program));
          Obs.set_enabled true
        | `Redrive ->
          let before = total detect_layers in
          ignore (redrive c.config c.program);
          add "pairs.layers_s" (total detect_layers -. before)
      done)
    cases

(* Side probes for layers a workload's job does not call, timed after the
   job on inputs derived from the same seed and program, so that every
   per-layer metric is a measured value on every workload. *)
let probe_layers ~workload ~seed cases =
  if workload <> "fuzz" then begin
    let progs = span "fuzz.gen_s" (fun () -> List.init 60 (fuzz_prog ~seed)) in
    List.iter (fun p -> ignore (span "fuzz.oracle_s" (fun () -> Oracle.run p))) progs
  end;
  if workload = "scale" then
    List.iter
      (fun c ->
        let trace = span "lint.record_s" (fun () -> record_pre_trace c.config c.program) in
        ignore (lint_trace ~traced:true Dm.all trace))
      cases

let job ~workload ~seed ~size ~mode ~plant ~expected_path =
  let gen_t0 = now () in
  let cases =
    match workload with
    | "scale" -> scale_cases size
    | "tx-domains" -> tx_cases size ~seed
    | "fuzz" -> fuzz_cases ~seed (List.init (fuzz_batch size) (fuzz_prog ~seed))
    | w -> failwith ("unknown workload " ^ w)
  in
  if workload = "fuzz" && mode <> Plain then add "fuzz.gen_s" (now () -. gen_t0);
  let expected = load_expected ~plant expected_path in
  print_endline "ready";
  ignore (input_line stdin);
  Gc.compact ();
  reset_peak_rss ();
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let results = List.map (fun c -> (c, run_case mode c)) cases in
  let wall = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  (* Span time inside the job, before the probes below add their own. *)
  add "bench.job_spans_s" (total job_spans);
  add "shadow.page_bytes_peak"
    (Option.value ~default:0.0 (Obs.gauge_value "shadow.page_bytes_peak"));
  let rss_kb = peak_rss_kb () in
  if mode = Redrive then begin
    (* What tracing adds to the job: the spans it recorded times the
       measured cost of one empty span. *)
    let n = !spans and reps = 100_000 in
    let t = now () in
    for _ = 1 to reps do
      span "bench.empty_span" ignore
    done;
    let per_span = (now () -. t) /. float_of_int reps in
    add "bench.trace_overhead_frac" (float_of_int n *. per_span /. wall)
  end;
  let failures =
    List.filter_map
      (fun (c, (fp, lint, oracle)) -> check ~expected ~plant c fp lint oracle)
      results
  in
  let points = List.fold_left (fun acc (_, (fp, _, _)) -> acc + fp.points) 0 results in
  let post_events = List.fold_left (fun acc (_, (fp, _, _)) -> acc + fp.post_events) 0 results in
  if mode = Redrive then begin
    (* The re-driven pipeline must reproduce the engine exactly. *)
    List.iter
      (fun (c, (fp, _, _)) ->
        let ref_fp = fingerprint_of (Engine.detect ~config:c.config c.program) in
        if ref_fp <> fp then begin
          Printf.eprintf "re-driven fingerprint of %s differs from Engine.detect's\n" c.id;
          exit 3
        end)
      results;
    probe_layers ~workload ~seed cases
  end;
  if mode = Engine_calls then begin
    add "gc.minor_words" (gc1.minor_words -. gc0.minor_words);
    add "gc.major_collections" (float_of_int (gc1.major_collections - gc0.major_collections));
    add "gc.top_heap_bytes" (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)));
    paired_rounds cases
  end;
  let verdicts =
    List.map
      (fun (c, (fp, _, _)) -> Json.Str (Printf.sprintf "%s %d %s" c.id fp.points (digest fp.keys)))
      results
  in
  let layer_json =
    Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) layers []
    |> List.sort compare
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("wall_s", Json.Float wall);
            ("points", Json.Int points);
            ("post_events", Json.Int post_events);
            ("runs", Json.Int (List.length cases));
            ("attempted", Json.Int (List.length results));
            ("failed", Json.Int (List.length failures));
            ("failures", Json.Arr (List.map (fun s -> Json.Str s) failures));
            ("rss_kb", Json.Int rss_kb);
            ("verdicts", Json.Arr verdicts);
            ("layers", Json.Obj layer_json);
          ]))

(* ---- the stored expected fingerprints ---- *)

let print_expected () =
  let fresh c = { c.config with engine = `Fresh } in
  let entries =
    List.concat_map
      (fun size ->
        let cases =
          scale_cases size
          @ List.concat_map
              (fun s ->
                List.concat_map
                  (fun occ -> List.map (tx_case size s occ) Dm.all)
                  (List.init tx_occurrences Fun.id))
              tx_structures
        in
        List.map
          (fun c ->
            let fp = fingerprint_of (Engine.detect ~config:(fresh c) c.program) in
            let lint = lint_case ~traced:false c in
            (c.id, expected_to_json (expected_of fp lint)))
          cases)
      [ Tiny; Full ]
  in
  print_string (Json.to_string_pretty (Json.Obj entries));
  print_newline ()

let () =
  let workload = ref "scale" and seed = ref 1 and size = ref "full" and mode = ref "plain" in
  let plant = ref false and expected_path = ref "detbench/expected.json" in
  let command = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " scale | tx-domains | fuzz");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--size", Arg.Set_string size, " full | tiny");
      ("--mode", Arg.Set_string mode, " plain | engine | redrive");
      ("--plant-wrong", Arg.Set plant, " perturb every expected answer");
      ("--expected", Arg.Set_string expected_path, " stored fingerprint table");
    ]
  in
  Arg.parse (Arg.align spec) (fun s -> command := s) "worker.exe (job | expected) [options]";
  match !command with
  | "job" ->
    let size = match !size with "full" -> Full | "tiny" -> Tiny | s -> failwith ("size " ^ s) in
    job ~workload:!workload ~seed:!seed ~size ~mode:(mode_of_string !mode) ~plant:!plant
      ~expected_path:!expected_path
  | "expected" -> print_expected ()
  | c ->
    prerr_endline ("unknown command: " ^ c);
    exit 2

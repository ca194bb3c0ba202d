(* Tests for the static crash-consistency linter: one positive and one
   clean fixture per rule, the Abs lattice laws, JSON export, the
   static-vs-dynamic triage goldens on real workloads. *)

module Lint = Xfd_lint.Lint
module Abs = Xfd_lint.Abs
module Event = Xfd_trace.Event
module Trace = Xfd_trace.Trace
module Addr = Xfd_mem.Addr
module Loc = Xfd_util.Loc
module Json = Xfd_util.Json
module Faults = Xfd_sim.Faults
module Config = Xfd.Config
module Report = Xfd.Report

let l n = Loc.make ~file:"lintfix.ml" ~line:n
let base = Addr.pool_base

let mk_trace kinds =
  let t = Trace.create () in
  List.iter (fun (kind, loc) -> ignore (Trace.append t ~kind ~loc)) kinds;
  t

let ids r = List.map (fun f -> Lint.rule_id f.Lint.rule) r.Lint.findings
let check = Lint.check_trace

let fires name id kinds =
  Tu.case (name ^ " fires") (fun () ->
      let r = check (mk_trace kinds) in
      Alcotest.(check bool)
        (Printf.sprintf "%s in %s" id (String.concat "," (ids r)))
        true
        (List.mem id (ids r)))

let silent name kinds =
  Tu.case (name ^ " clean variant is silent") (fun () ->
      let r = check (mk_trace kinds) in
      Alcotest.(check (list string)) "no findings" [] (ids r);
      Alcotest.(check bool) "clean" true (Lint.clean r))

(* Shared building blocks: a data cell one line above a flag cell so flushes
   never alias. *)
let data = base + Addr.line_size
let flag = base

let rule_tests =
  [
    (* L1: missing-flush-before-commit-store *)
    fires "missing-flush-before-commit-store" "missing-flush-before-commit-store"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Write { addr = flag; size = 8 }, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Clwb { addr = flag }, l 7);
        (Event.Sfence, l 8);
      ];
    silent "missing-flush-before-commit-store"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
        (Event.Write { addr = flag; size = 8 }, l 7);
        (Event.Clwb { addr = flag }, l 8);
        (Event.Sfence, l 9);
      ];
    (* L2: flush-without-ordering-fence *)
    fires "flush-without-ordering-fence" "flush-without-ordering-fence"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
      ];
    silent "flush-without-ordering-fence"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Sfence, l 4);
      ];
    (* L3: store-to-committed-data-in-same-epoch *)
    fires "store-to-committed-data-in-same-epoch" "store-to-committed-data-in-same-epoch"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
        (Event.Write { addr = flag; size = 8 }, l 7);
        (* same fence epoch as the commit store: recovery can pair new data
           with the old flag *)
        (Event.Write { addr = data; size = 8 }, l 8);
        (Event.Clwb { addr = flag }, l 9);
        (Event.Clwb { addr = data }, l 10);
        (Event.Sfence, l 11);
      ];
    silent "store-to-committed-data-in-same-epoch"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Commit_range { var = flag; addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
        (Event.Write { addr = flag; size = 8 }, l 7);
        (Event.Clwb { addr = flag }, l 8);
        (Event.Sfence, l 9);
        (* next epoch: ordered after the commit store *)
        (Event.Write { addr = data; size = 8 }, l 10);
        (Event.Clwb { addr = data }, l 11);
        (Event.Sfence, l 12);
      ];
    (* L4: write-not-tx-added-inside-tx *)
    fires "write-not-tx-added-inside-tx" "write-not-tx-added-inside-tx"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Write { addr = data; size = 8 }, l 3);
        (Event.Tx_commit, l 4);
        (Event.Clwb { addr = data }, l 5);
        (Event.Sfence, l 6);
      ];
    silent "write-not-tx-added-inside-tx"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Tx_add { addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Tx_commit, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Sfence, l 7);
      ];
    (* L5: unflushed-at-trace-end *)
    fires "unflushed-at-trace-end" "unflushed-at-trace-end"
      [ (Event.Roi_begin, l 1); (Event.Write { addr = data; size = 8 }, l 2) ];
    silent "unflushed-at-trace-end"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Sfence, l 4);
      ];
    (* L6: commit-var-never-persisted *)
    fires "commit-var-never-persisted" "commit-var-never-persisted"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Write { addr = flag; size = 8 }, l 3);
      ];
    silent "commit-var-never-persisted"
      [
        (Event.Roi_begin, l 1);
        (Event.Commit_var { addr = flag; size = 8 }, l 2);
        (Event.Write { addr = flag; size = 8 }, l 3);
        (Event.Clwb { addr = flag }, l 4);
        (Event.Sfence, l 5);
      ];
    (* L7: statically-redundant-flush *)
    fires "statically-redundant-flush" "statically-redundant-flush"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Clwb { addr = data }, l 4);
        (Event.Sfence, l 5);
      ];
    silent "statically-redundant-flush"
      [
        (Event.Roi_begin, l 1);
        (Event.Write { addr = data; size = 8 }, l 2);
        (Event.Clwb { addr = data }, l 3);
        (Event.Sfence, l 4);
        (Event.Write { addr = data; size = 8 }, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Sfence, l 7);
      ];
    (* L8: duplicate-tx-add *)
    fires "duplicate-tx-add" "duplicate-tx-add"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Tx_add { addr = data; size = 8 }, l 3);
        (Event.Tx_add { addr = data; size = 8 }, l 4);
        (Event.Write { addr = data; size = 8 }, l 5);
        (Event.Tx_commit, l 6);
        (Event.Clwb { addr = data }, l 7);
        (Event.Sfence, l 8);
      ];
    silent "duplicate-tx-add"
      [
        (Event.Roi_begin, l 1);
        (Event.Tx_begin, l 2);
        (Event.Tx_add { addr = data; size = 8 }, l 3);
        (Event.Write { addr = data; size = 8 }, l 4);
        (Event.Tx_commit, l 5);
        (Event.Clwb { addr = data }, l 6);
        (Event.Sfence, l 7);
      ];
  ]

let detail_tests =
  [
    Tu.case "rule ids are stable and invertible" (fun () ->
        List.iter
          (fun r ->
            match Lint.rule_of_id (Lint.rule_id r) with
            | Some r' -> Alcotest.(check bool) (Lint.rule_id r) true (r = r')
            | None -> Alcotest.failf "id %s does not invert" (Lint.rule_id r))
          Lint.all_rules;
        Alcotest.(check int) "eight rules" 8 (List.length Lint.all_rules);
        Alcotest.(check bool) "unknown id" true (Lint.rule_of_id "no-such-rule" = None));
    Tu.case "severities partition as documented" (fun () ->
        let sev r = Lint.severity_of r in
        Alcotest.(check bool) "L1 error" true (sev Lint.Missing_flush_before_commit_store = Lint.Error);
        Alcotest.(check bool) "L4 error" true (sev Lint.Write_not_tx_added = Lint.Error);
        Alcotest.(check bool) "L7 perf" true (sev Lint.Redundant_flush = Lint.Perf);
        Alcotest.(check bool) "L8 perf" true (sev Lint.Duplicate_tx_add = Lint.Perf));
    Tu.case "tx-writers of no-snapshot ranges are co-implicated" (fun () ->
        (* Stores into a TX_XADD range persist only through the transaction's
           atomic commit; an unlogged write in the same TX breaks exactly
           that, so the finding must name them for triage to match. *)
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Tx_begin, l 2);
                 (Event.Tx_xadd { addr = data; size = 16 }, l 3);
                 (Event.Write { addr = data; size = 8 }, l 4);
                 (Event.Write { addr = flag; size = 8 }, l 5);
                 (Event.Tx_commit, l 6);
                 (Event.Clwb { addr = data }, l 7);
                 (Event.Clwb { addr = flag }, l 8);
                 (Event.Sfence, l 9);
               ])
        in
        let f =
          List.find (fun f -> f.Lint.rule = Lint.Write_not_tx_added) r.Lint.findings
        in
        Alcotest.(check bool) "indicts the unlogged store" true (Loc.equal f.Lint.loc (l 5));
        Alcotest.(check bool) "names the xadd writer" true
          (List.exists (fun (_, w) -> Loc.equal w (l 4)) f.Lint.related));
    Tu.case "findings deduplicate by rule and location" (fun () ->
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Write { addr = data; size = 8 }, l 2);
                 (Event.Write { addr = data + 8; size = 8 }, l 2);
               ])
        in
        Alcotest.(check (list string)) "one finding" [ "unflushed-at-trace-end" ] (ids r));
    Tu.case "report tallies match findings" (fun () ->
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Tx_begin, l 2);
                 (Event.Tx_add { addr = data; size = 8 }, l 3);
                 (Event.Tx_add { addr = data; size = 8 }, l 4);
                 (Event.Write { addr = data; size = 8 }, l 5);
                 (Event.Write { addr = flag; size = 8 }, l 6);
                 (Event.Tx_commit, l 7);
               ])
        in
        Alcotest.(check int) "errors" 1 r.Lint.errors;
        Alcotest.(check int) "perf" 1 r.Lint.perf;
        Alcotest.(check int) "sum" (List.length r.Lint.findings)
          (r.Lint.errors + r.Lint.warnings + r.Lint.perf));
  ]

let json_tests =
  [
    Tu.case "report JSON parses back with the same shape" (fun () ->
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Write { addr = data; size = 8 }, l 2);
                 (Event.Clwb { addr = data }, l 3);
               ])
        in
        match Json.of_string (Json.to_string (Lint.report_to_json r)) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok j -> (
          (match Json.member "findings" j with
          | Some (Json.Arr fs) ->
            Alcotest.(check int) "findings" (List.length r.Lint.findings) (List.length fs);
            List.iter
              (fun f ->
                Alcotest.(check bool) "rule id known" true
                  (match Json.member "rule" f with
                  | Some (Json.Str id) -> Lint.rule_of_id id <> None
                  | _ -> false))
              fs
          | _ -> Alcotest.fail "findings not an array");
          match Json.member "events" j with
          | Some (Json.Int n) -> Alcotest.(check int) "events" r.Lint.events n
          | _ -> Alcotest.fail "events missing"));
    Tu.case "triage JSON includes both directions" (fun () ->
        let faults () = Faults.make ~skip_tx_add:[ 0 ] () in
        let config = { Config.default with Config.faults = faults () } in
        let t = Lint.triage ~config (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        match Json.of_string (Json.to_string (Lint.triage_to_json t)) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok j ->
          List.iter
            (fun k ->
              Alcotest.(check bool) k true (Json.member k j <> None))
            [ "program"; "lint"; "dynamic"; "statics"; "anticipated"; "static_misses" ]);
  ]

(* The acceptance goldens: lint is clean on correct workloads, fires the
   expected rule on seeded bugs, and triage on the TX workloads reports no
   static misses for races whose root cause is a pre-failure ordering
   violation (a skipped TX_ADD). *)
let golden_tests =
  let correct_programs () =
    [
      ("btree", Xfd_workloads.Btree.program ~init_size:2 ~size:2 ());
      ("hashmap-tx", Xfd_workloads.Hashmap_tx.program ~size:2 ());
      ("rbtree", Xfd_workloads.Rbtree.program ~size:2 ());
      ("hashmap-atomic", Xfd_workloads.Hashmap_atomic.program ~size:2 ~variant:`Fixed ());
    ]
  in
  [
    Tu.case "correct workloads lint clean" (fun () ->
        List.iter
          (fun (name, p) ->
            let r = Lint.check_prog p in
            Alcotest.(check (list string)) (name ^ " findings") [] (ids r))
          (correct_programs ()));
    Tu.case "seeded faults fire the expected rules" (fun () ->
        let expect faults program id =
          let config = { Config.default with Config.faults } in
          let r = Lint.check_prog ~config program in
          Alcotest.(check bool)
            (Printf.sprintf "%s in %s" id (String.concat "," (ids r)))
            true
            (List.mem id (ids r))
        in
        expect (Faults.make ~skip_tx_add:[ 0 ] ())
          (Xfd_workloads.Hashmap_tx.program ~size:2 ())
          "write-not-tx-added-inside-tx";
        expect (Faults.make ~dup_tx_add:[ 0 ] ())
          (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ())
          "duplicate-tx-add";
        expect (Faults.make ~skip_flush:[ 1 ] ())
          (Xfd_workloads.Hashmap_atomic.program ~size:2 ~variant:`Fixed ())
          "unflushed-at-trace-end";
        expect (Faults.make ~dup_flush:[ 1 ] ())
          (Xfd_workloads.Hashmap_atomic.program ~size:2 ~variant:`Fixed ())
          "statically-redundant-flush");
    Tu.case "triage: no static misses on TX-logging races" (fun () ->
        List.iter
          (fun (name, program) ->
            let config =
              { Config.default with Config.faults = Faults.make ~skip_tx_add:[ 0 ] () }
            in
            let t = Lint.triage ~config (program ()) in
            Alcotest.(check int) (name ^ " static misses") 0 t.Lint.static_misses;
            Alcotest.(check bool) (name ^ " anticipated some") true (t.Lint.anticipated >= 1))
          [
            ("hashmap-tx", fun () -> Xfd_workloads.Hashmap_tx.program ~size:3 ());
            ("btree", fun () -> Xfd_workloads.Btree.program ~init_size:2 ~size:3 ());
            ("rbtree", fun () -> Xfd_workloads.Rbtree.program ~size:3 ());
          ]);
    Tu.case "triage on a correct workload is all-quiet" (fun () ->
        let t = Lint.triage (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        Alcotest.(check int) "anticipated" 0 t.Lint.anticipated;
        Alcotest.(check int) "misses" 0 t.Lint.static_misses;
        Alcotest.(check int) "static only" 0 t.Lint.static_only;
        Alcotest.(check bool) "lint clean" true (Lint.clean t.Lint.lint));
  ]

(* Abs is a 5-element lattice: check the laws exhaustively instead of by
   sampling. *)
let abs_tests =
  let all = [ Abs.Bot; Abs.Dirty; Abs.Pending; Abs.Persisted; Abs.Top ] in
  let name x = Abs.to_string x in
  [
    Tu.case "join is commutative, idempotent, associative" (fun () ->
        List.iter
          (fun a ->
            Alcotest.(check bool) (name a ^ " idem") true (Abs.equal (Abs.join a a) a);
            List.iter
              (fun b ->
                Alcotest.(check bool)
                  (name a ^ "," ^ name b)
                  true
                  (Abs.equal (Abs.join a b) (Abs.join b a));
                List.iter
                  (fun c ->
                    Alcotest.(check bool) "assoc" true
                      (Abs.equal (Abs.join a (Abs.join b c)) (Abs.join (Abs.join a b) c)))
                  all)
              all)
          all);
    Tu.case "join is the least upper bound of leq" (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let j = Abs.join a b in
                Alcotest.(check bool) "upper a" true (Abs.leq a j);
                Alcotest.(check bool) "upper b" true (Abs.leq b j);
                (* least: any other upper bound is above the join *)
                List.iter
                  (fun u ->
                    if Abs.leq a u && Abs.leq b u then
                      Alcotest.(check bool) "least" true (Abs.leq j u))
                  all)
              all)
          all);
    Tu.case "transfer functions are monotone" (fun () ->
        List.iter
          (fun (fname, f) ->
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    if Abs.leq a b then
                      Alcotest.(check bool)
                        (Printf.sprintf "%s %s<=%s" fname (name a) (name b))
                        true
                        (Abs.leq (f a) (f b)))
                  all)
              all)
          [
            ("on_write", Abs.on_write);
            ("on_nt_write", Abs.on_nt_write);
            ("on_flush", Abs.on_flush);
            ("on_fence", Abs.on_fence);
          ]);
  ]

(* The fuzzer's metamorphic oracle M4, in miniature: correct-profile random
   programs must lint clean. *)
let fuzz_props =
  [
    QCheck.Test.make ~count:25 ~name:"correct-profile programs lint clean"
      (QCheck.make ~print:Int64.to_string QCheck.Gen.(map Int64.of_int (int_bound 1000000)))
      (fun seed ->
        let rng = Xfd_util.Rng.create seed in
        let q = Xfd_fuzz.Gen.generate Xfd_fuzz.Gen.Correct rng in
        Lint.clean (Lint.check_prog (Xfd_fuzz.Prog.to_program q)));
  ]

(* ------------------------------------------------------------------ *)
(* Byte-identity sweep.  Lint renderings (JSON and text) and PMTest
   verdicts over the workload x patch x model matrix and over seeded
   generated programs, folded into one digest per group.  The expected
   digests pin the output of the analyses as they stood before the lint
   tracker was rebuilt on the detector's shadow PM: any change to a
   finding, its order, address, size, related writers or rendering moves
   a digest. *)

module D = Xfd_trace.Domain_model
module Pmtest = Xfd_baselines.Pmtest

let record_trace ?(faults = Faults.none) (p : Xfd.Engine.program) =
  Faults.reset faults;
  let dev, trace, ctx = Tu.make_ctx ~faults () in
  p.Xfd.Engine.setup ctx;
  (try p.Xfd.Engine.pre ctx with Xfd_sim.Ctx.Detection_complete -> ());
  Xfd_mem.Pm_device.release dev;
  trace

let sweep_patches =
  [
    Faults.none;
    Faults.make ~skip_flush:[ 1 ] ();
    Faults.make ~skip_fence:[ 1 ] ();
    Faults.make ~skip_tx_add:[ 1 ] ();
    Faults.make ~dup_flush:[ 1 ] ();
    Faults.make ~dup_tx_add:[ 1 ] ();
  ]

let workload_traces () =
  List.concat_map
    (fun (e : Xfd_experiments.Workload_set.entry) ->
      List.map
        (fun faults -> record_trace ~faults (e.make ~init:2 ~test:4))
        sweep_patches)
    Xfd_experiments.Workload_set.extended

let generated_traces () =
  List.concat_map
    (fun (k, profile) ->
      List.init 100 (fun seed ->
          let rng = Xfd_util.Rng.create (Int64.of_int ((k * 100_000) + seed)) in
          record_trace (Xfd_fuzz.Prog.to_program (Xfd_fuzz.Gen.generate profile rng))))
    [ (1, Xfd_fuzz.Gen.Buggy); (2, Xfd_fuzz.Gen.Correct); (3, Xfd_fuzz.Gen.Wild) ]

let lint_digest traces =
  let buf = Buffer.create 4096 in
  List.iter
    (fun t ->
      List.iter
        (fun m ->
          let r = Lint.check_trace ~domain:m t in
          Buffer.add_string buf (Json.to_string (Lint.report_to_json r));
          Buffer.add_string buf (Format.asprintf "%a@." Lint.pp_report r))
        D.all)
    traces;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pmtest_digest traces =
  let buf = Buffer.create 4096 in
  List.iter
    (fun t ->
      let r = Pmtest.check t in
      Printf.bprintf buf "%d\n" r.Pmtest.events_checked;
      List.iter
        (fun v -> Buffer.add_string buf (Format.asprintf "%a@." Pmtest.pp_violation v))
        r.Pmtest.violations)
    traces;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Traces are recorded once and shared by the three groups. *)
let sweep_workloads = lazy (workload_traces ())
let sweep_generated = lazy (generated_traces ())

let pinned name expected actual =
  Alcotest.(check string) (name ^ " digest") expected (actual ())

let identity_tests =
  [
    Tu.case "workloads x patches x models: lint renderings pinned" (fun () ->
        pinned "workload lint" "a881cca162f32928a515de7f1d9cad54" (fun () ->
            lint_digest (Lazy.force sweep_workloads)));
    Tu.case "generated programs x models: lint renderings pinned" (fun () ->
        pinned "generated lint" "4c09ec704e4815e2b9afec2df940b8c2" (fun () ->
            lint_digest (Lazy.force sweep_generated)));
    Tu.case "PMTest verdicts on the same traces pinned" (fun () ->
        pinned "pmtest" "5e375bf03d263d495f1367f6eef1ec4e" (fun () ->
            pmtest_digest (Lazy.force sweep_workloads @ Lazy.force sweep_generated)));
    Tu.case "capture provenance is per byte, not per line" (fun () ->
        (* Two bytes of one line, each stored and then flushed, never
           fenced: the second flush captures only the second byte, so
           each byte indicts the flush that captured it. *)
        let r =
          check
            (mk_trace
               [
                 (Event.Roi_begin, l 1);
                 (Event.Write { addr = data; size = 1 }, l 2);
                 (Event.Clwb { addr = data }, l 3);
                 (Event.Write { addr = data + 1; size = 1 }, l 4);
                 (Event.Clwb { addr = data }, l 5);
               ])
        in
        let unfenced =
          List.filter
            (fun f -> Lint.rule_id f.Lint.rule = "flush-without-ordering-fence")
            r.Lint.findings
        in
        Alcotest.(check (list string))
          "one finding per capturing flush"
          [ Loc.to_string (l 3); Loc.to_string (l 5) ]
          (List.map (fun f -> Loc.to_string f.Lint.loc) unfenced);
        Alcotest.(check (list int))
          "each names its own byte" [ data; data + 1 ]
          (List.map (fun f -> f.Lint.addr) unfenced));
  ]

let suite =
  [
    ("lint.rules", rule_tests);
    ("lint.details", detail_tests);
    ("lint.json", json_tests);
    ("lint.goldens", golden_tests);
    ("lint.abs", abs_tests);
    ("lint.identity", identity_tests);
    ("lint.fuzz-oracle", List.map QCheck_alcotest.to_alcotest fuzz_props);
  ]

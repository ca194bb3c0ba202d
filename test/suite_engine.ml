(* Engine-level behaviour: failure-point placement and elision, the
   terminal failure point, crash modes, the ablation strategy, and outcome
   accounting. *)

module Ctx = Xfd_sim.Ctx
module Engine = Xfd.Engine
module Config = Xfd.Config

let l = Tu.loc __POS__
let base = Xfd_mem.Addr.pool_base

(* A tiny crash-consistent low-level program: an append-only log of slots
   guarded by a persisted element counter (the commit variable).  The
   post-failure stage reads the counter (benign) and only the slots it
   covers — each of which was persisted strictly before the counter. *)
let counter_program ?(n = 4) () =
  let count_addr = base and slot_addr i = base + (64 * (i + 1)) in
  {
    Engine.name = "counter";
    setup = (fun _ -> ());
    pre =
      (fun ctx ->
        Ctx.add_commit_var ctx ~loc:l count_addr 8;
        Ctx.roi_begin ctx ~loc:l;
        for i = 0 to n - 1 do
          Ctx.write_i64 ctx ~loc:l (slot_addr i) (Int64.of_int (100 + i));
          Ctx.persist_barrier ctx ~loc:l (slot_addr i) 8;
          Ctx.write_i64 ctx ~loc:l count_addr (Int64.of_int (i + 1));
          Ctx.persist_barrier ctx ~loc:l count_addr 8
        done;
        Ctx.roi_end ctx ~loc:l);
    post =
      (fun ctx ->
        Ctx.add_commit_var ctx ~loc:l count_addr 8;
        Ctx.roi_begin ctx ~loc:l;
        let valid = Int64.to_int (Ctx.read_i64 ctx ~loc:l count_addr) in
        for i = 0 to valid - 1 do
          ignore (Ctx.read_i64 ctx ~loc:l (slot_addr i))
        done;
        Ctx.roi_end ctx ~loc:l);
  }

let tests =
  [
    Tu.case "one failure point per ordering point plus terminal" (fun () ->
        let o = Tu.detect (counter_program ~n:4 ()) in
        (* 8 barriers -> 8 failure points before them, plus the terminal
           point for the program-completed state. *)
        Alcotest.(check int) "count" 9 o.Engine.failure_points;
        Tu.check_clean "correct program" o);
    Tu.case "terminal failure point can be disabled" (fun () ->
        let config = { Config.default with inject_terminal_fp = false } in
        let o = Tu.detect ~config (counter_program ~n:4 ()) in
        Alcotest.(check int) "count" 8 o.Engine.failure_points);
    Tu.case "empty ordering points are elided" (fun () ->
        let program =
          {
            (counter_program ~n:1 ()) with
            Engine.pre =
              (fun ctx ->
                Ctx.roi_begin ctx ~loc:l;
                Ctx.write_i64 ctx ~loc:l base 1L;
                Ctx.persist_barrier ctx ~loc:l base 8;
                (* Three fences with no PM update in between. *)
                Ctx.sfence ctx ~loc:l;
                Ctx.sfence ctx ~loc:l;
                Ctx.sfence ctx ~loc:l;
                Ctx.roi_end ctx ~loc:l);
          }
        in
        let o = Tu.detect program in
        (* Only the barrier's failure point: the empty fences add update_ops
           through the fence itself, so at most one more, never three. *)
        Alcotest.(check bool) "elision works" true (o.Engine.failure_points <= 3));
    Tu.case "max_failure_points caps injection" (fun () ->
        let config = { Config.default with max_failure_points = 2; inject_terminal_fp = false } in
        let o = Tu.detect ~config (counter_program ~n:10 ()) in
        Alcotest.(check int) "capped" 2 o.Engine.failure_points);
    Tu.case "every_update ablation injects strictly more failure points" (fun () ->
        let baseline = Tu.detect (counter_program ~n:6 ()) in
        let config = { Config.default with strategy = Ctx.Every_update } in
        let naive = Tu.detect ~config (counter_program ~n:6 ()) in
        Alcotest.(check bool) "more points" true
          (naive.Engine.failure_points > baseline.Engine.failure_points);
        (* And finds nothing extra on a correct program. *)
        Tu.check_clean "naive on correct" naive);
    Tu.case "ablation finds the same bug on a buggy program" (fun () ->
        let p = Xfd_workloads.Array_update.program ~size:1 () in
        let r1, s1, _, _ = Tu.tally_of p in
        let config = { Config.default with strategy = Ctx.Every_update } in
        let r2, s2, _, _ = Tu.tally_of ~config (Xfd_workloads.Array_update.program ~size:1 ()) in
        Alcotest.(check bool) "race found both ways" true (r1 >= 1 && r2 >= 1);
        Alcotest.(check bool) "semantic found both ways" true (s1 >= 1 && s2 >= 1));
    Tu.case "strict crash mode agrees on the figure 2 verdicts" (fun () ->
        let config = { Config.default with crash_mode = `Strict } in
        let races, semantics, _, _ =
          Tu.tally_of ~config (Xfd_workloads.Array_update.program ~size:1 ())
        in
        Alcotest.(check bool) "race" true (races >= 1);
        Alcotest.(check bool) "semantic" true (semantics >= 1));
    Tu.case "unique bugs deduplicate across failure points" (fun () ->
        let o = Tu.detect (Xfd_workloads.Linkedlist.program ~size:3 ()) in
        (* The same length race occurs at many failure points but is one
           programming error. *)
        let races = List.filter Xfd.Report.is_race o.Engine.unique_bugs in
        Alcotest.(check bool) "few unique races" true (List.length races <= 3);
        let reported_at =
          List.length
            (List.filter (fun r -> List.exists Xfd.Report.is_race r.Xfd.Report.bugs) o.Engine.reports)
        in
        Alcotest.(check bool) "reported at several points" true (reported_at > List.length races));
    Tu.case "outcome accounting is sane" (fun () ->
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        Alcotest.(check bool) "pre events" true (o.Engine.pre_events > 50);
        Alcotest.(check bool) "post events" true (o.Engine.post_events > o.Engine.pre_events / 10);
        Alcotest.(check bool) "reports per failure point" true
          (List.length o.Engine.reports = o.Engine.failure_points);
        let pre, post = Engine.wall_breakdown o in
        Alcotest.(check bool) "times nonnegative" true (pre >= 0.0 && post >= 0.0);
        Alcotest.(check bool) "total is the sum" true
          (abs_float (Engine.total_wall o -. (pre +. post)) < 1e-9));
    Tu.case "run_traced and run_original complete" (fun () ->
        let p = Xfd_workloads.Btree.program ~init_size:2 ~size:2 () in
        Alcotest.(check bool) "traced" true (Engine.run_traced p >= 0.0);
        Alcotest.(check bool) "original" true (Engine.run_original p >= 0.0));
    Tu.case "detection is deterministic" (fun () ->
        let run () =
          let o = Tu.detect (Xfd_workloads.Array_update.program ~size:2 ()) in
          ( o.Engine.failure_points,
            List.map Xfd.Report.dedup_key o.Engine.unique_bugs,
            o.Engine.pre_events )
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "identical outcomes" true (a = b));
    Tu.case "seeded faults do not corrupt the trace determinism" (fun () ->
        let config =
          { Config.default with faults = Xfd_sim.Faults.make ~skip_tx_add:[ 0 ] () }
        in
        let run () =
          let o = Tu.detect ~config (Xfd_workloads.Btree.program ~size:2 ()) in
          List.map Xfd.Report.dedup_key o.Engine.unique_bugs
        in
        Alcotest.(check bool) "same bugs twice" true (run () = run ()));
  ]

(* A post stage that dies with a harness-fatal exception: the engine must
   re-raise it — unchanged — whatever the domain-pool size. *)
let asserting_post_program () =
  {
    Engine.name = "asserting-post";
    setup = (fun _ -> ());
    pre =
      (fun ctx ->
        Ctx.roi_begin ctx ~loc:l;
        for i = 0 to 3 do
          Ctx.write_i64 ctx ~loc:l (base + (64 * i)) 1L;
          Ctx.persist_barrier ctx ~loc:l (base + (64 * i)) 8
        done;
        Ctx.roi_end ctx ~loc:l);
    post = (fun _ -> assert false);
  }

let config_tests =
  [
    Tu.case "validate rejects a non-positive failure-point cap" (fun () ->
        List.iter
          (fun cap ->
            match Config.validate { Config.default with max_failure_points = cap } with
            | () -> Alcotest.failf "cap %d accepted" cap
            | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "cap %d message names the field" cap)
                true
                (String.length msg > 0
                && String.sub msg 0 (String.length "Config.max_failure_points")
                   = "Config.max_failure_points"))
          [ 0; -1; min_int ]);
    Tu.case "detect refuses an invalid configuration up front" (fun () ->
        let config = { Config.default with max_failure_points = 0 } in
        match Tu.detect ~config (counter_program ~n:2 ()) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Tu.case "cap boundary: exact, one-less and default verdicts agree" (fun () ->
        (* The terminal point deliberately bypasses the cap (tested below),
           so boundary precision is asserted with it disabled. *)
        let base_cfg = { Config.default with inject_terminal_fp = false } in
        let keys config =
          let o = Tu.detect ~config (counter_program ~n:4 ()) in
          (o.Engine.failure_points, List.map Xfd.Report.dedup_key o.Engine.unique_bugs)
        in
        let fired, full_keys = keys base_cfg in
        Alcotest.(check bool) "uncapped by default" true
          (fired < base_cfg.Config.max_failure_points);
        (* A cap equal to the natural count changes nothing... *)
        let fired_eq, keys_eq = keys { base_cfg with max_failure_points = fired } in
        Alcotest.(check int) "exact cap fires the same points" fired fired_eq;
        Alcotest.(check (list string)) "exact cap same verdicts" full_keys keys_eq;
        (* ...a cap of one less elides exactly the last point... *)
        let fired_lt, _ = keys { base_cfg with max_failure_points = fired - 1 } in
        Alcotest.(check int) "one-less cap" (fired - 1) fired_lt;
        (* ...and cap 1 still runs one post stage on a clean program. *)
        let fired_one, keys_one = keys { base_cfg with max_failure_points = 1 } in
        Alcotest.(check int) "unit cap" 1 fired_one;
        Alcotest.(check (list string)) "unit cap stays clean" [] keys_one);
    Tu.case "terminal failure point bypasses the cap" (fun () ->
        let config = { Config.default with max_failure_points = 2 } in
        let o = Tu.detect ~config (counter_program ~n:10 ()) in
        (* Two capped ordering points plus the terminal one. *)
        Alcotest.(check int) "cap + terminal" 3 o.Engine.failure_points);
  ]

(* Run [f] with the flight recorder at Debug on an empty ring, restoring
   the recorder afterwards; returns [f]'s result and the recorded events. *)
let recording f =
  let module Flight = Xfd_flight.Flight in
  let lvl0 = Flight.level () and cap0 = Flight.capacity () in
  Flight.clear ();
  Flight.set_level Flight.Debug;
  Flight.set_capacity 100_000;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_level lvl0;
      Flight.set_capacity cap0;
      Flight.clear ())
    (fun () ->
      let r = try Ok (f ()) with e -> Error e in
      (r, Flight.events ()))

(* The [(event, failure point)] sequence of the per-point lifecycle. *)
let fp_lifecycle evs =
  List.filter_map
    (fun (e : Xfd_flight.Flight.event) ->
      match (e.name, List.assoc_opt "failure_point" e.fields) with
      | ("fp.started" | "fp.verdict"), Some (Xfd_util.Json.Int k) -> Some (e.name, k)
      | _ -> None)
    evs

let lifecycle_t = Alcotest.(list (pair string int))

(* Post-failure stage that raises [Assert_failure] on its [k]-th run. *)
let asserting_at k =
  let runs = ref 0 in
  {
    (asserting_post_program ()) with
    Engine.name = "asserting-at";
    post =
      (fun _ ->
        let i = !runs in
        incr runs;
        assert (i <> k));
  }

let order_tests =
  [
    Tu.case "each failure point is judged before the next one starts" (fun () ->
        List.iter
          (fun (name, program) ->
            let progress = ref [] in
            let on_progress p = progress := (p.Engine.completed, Domain.self ()) :: !progress in
            let o, evs = recording (fun () -> Engine.detect ~on_progress (program ())) in
            let o = match o with Ok o -> o | Error e -> raise e in
            let n = o.Engine.failure_points in
            Alcotest.(check bool) (name ^ ": has failure points") true (n > 1);
            Alcotest.check lifecycle_t
              (name ^ ": fp.verdict k precedes fp.started k+1")
              (List.concat (List.init n (fun k -> [ ("fp.started", k); ("fp.verdict", k) ])))
              (fp_lifecycle evs);
            let progress = List.rev !progress in
            Alcotest.(check (list int))
              (name ^ ": on_progress reports 0..n in order")
              (List.init (n + 1) Fun.id) (List.map fst progress);
            Alcotest.(check bool)
              (name ^ ": on_progress runs on the caller's domain")
              true
              (List.for_all (fun (_, d) -> d = Domain.self ()) progress);
            Tu.check_clean name o)
          [
            ("counter", fun () -> counter_program ~n:4 ());
            ("btree", fun () -> Xfd_workloads.Btree.program ~init_size:3 ~size:3 ());
            ( "array-update",
              fun () -> Xfd_workloads.Array_update.program ~size:1 ~correct_valid:true () );
          ]);
    Tu.case "a fatal post exception aborts before the next point and frees everything"
      (fun () ->
        let k = 2 in
        List.iter
          (fun engine ->
            let config = { Config.default with engine } in
            let image0 = Xfd_mem.Image.live_bytes () in
            let shadow0 = Xfd_mem.Shadow_pages.live_bytes () in
            let r, evs = recording (fun () -> Engine.detect ~config (asserting_at k)) in
            (match r with
            | Error (Assert_failure _) -> ()
            | Error e -> raise e
            | Ok _ -> Alcotest.fail "the assert was swallowed");
            Alcotest.check lifecycle_t "points up to k judged, k started, nothing after"
              (List.concat (List.init k (fun i -> [ ("fp.started", i); ("fp.verdict", i) ]))
              @ [ ("fp.started", k) ])
              (fp_lifecycle evs);
            Alcotest.(check bool) "run.abort recorded" true
              (List.exists (fun (e : Xfd_flight.Flight.event) -> e.name = "run.abort") evs);
            Alcotest.(check int) "pm chunk bytes released" image0 (Xfd_mem.Image.live_bytes ());
            Alcotest.(check int) "shadow page bytes released" shadow0
              (Xfd_mem.Shadow_pages.live_bytes ()))
          [ `Incremental; `Fresh ]);
  ]

let worker_exception_tests =
  [
    Tu.case "worker exceptions surface and abort detection" (fun () ->
        match Tu.detect (asserting_post_program ()) with
        | _ -> Alcotest.fail "detection swallowed the assert"
        | exception Assert_failure _ -> ());
    Tu.case "non-fatal post exceptions stay bug reports" (fun () ->
        let failing_post_program () =
          {
            (asserting_post_program ()) with
            Engine.name = "failing-post";
            post = (fun _ -> failwith "recovery invariant violated");
          }
        in
        let o = Tu.detect (failing_post_program ()) in
        let keys = List.map Xfd.Report.dedup_key o.Engine.unique_bugs in
        Alcotest.(check bool) "reported as post-error" true
          (List.exists (fun k -> String.length k >= 10 && String.sub k 0 10 = "post-error") keys);
        Alcotest.(check int) "one report per failure point" o.Engine.failure_points
          (List.length o.Engine.reports));
  ]

let suite =
  [
    ("engine", tests);
    ("engine.config", config_tests);
    ("engine.workers", worker_exception_tests);
    ("engine.order", order_tests);
  ]

(* The observability layer: metric math, span nesting, JSONL sink
   round-tripping, and the guarantee that telemetry never changes what the
   detector finds. *)

module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json
module Engine = Xfd.Engine

let counter_tests =
  [
    Tu.case "counter arithmetic and registry idempotence" (fun () ->
        let c = Obs.Counter.make "test.obs.counter" in
        let v0 = Obs.Counter.value c in
        Obs.Counter.incr c;
        Obs.Counter.add c 41;
        Alcotest.(check int) "incr+add" (v0 + 42) (Obs.Counter.value c);
        let c' = Obs.Counter.make "test.obs.counter" in
        Obs.Counter.incr c';
        Alcotest.(check int) "same instance by name" (v0 + 43) (Obs.Counter.value c);
        Alcotest.(check string) "name" "test.obs.counter" (Obs.Counter.name c);
        Alcotest.(check (option int))
          "lookup by name" (Some (v0 + 43))
          (Obs.counter_value "test.obs.counter"));
    Tu.case "registering a name as two metric kinds is rejected" (fun () ->
        let _ = Obs.Counter.make "test.obs.kind_clash" in
        Alcotest.check_raises "clash"
          (Invalid_argument "Obs: \"test.obs.kind_clash\" already registered as another metric kind")
          (fun () -> ignore (Obs.Gauge.make "test.obs.kind_clash")));
    Tu.case "gauge stores the last value" (fun () ->
        let g = Obs.Gauge.make "test.obs.gauge" in
        Obs.Gauge.set g 2.5;
        Obs.Gauge.set g 7.25;
        Alcotest.(check (float 0.0)) "last write wins" 7.25 (Obs.Gauge.value g));
    Tu.case "histogram is log-scale with exact count/sum/max" (fun () ->
        let h = Obs.Histogram.make "test.obs.hist" in
        List.iter (Obs.Histogram.observe h) [ 0; 1; 1; 3; 4; 7; 8; 1000 ];
        Alcotest.(check int) "count" 8 (Obs.Histogram.count h);
        Alcotest.(check int) "sum" 1024 (Obs.Histogram.sum h);
        Alcotest.(check int) "max" 1000 (Obs.Histogram.max_value h);
        (* 0 -> le 0; 1,1 -> le 1; 3 -> le 3; 4,7 -> le 7; 8 -> le 15;
           1000 -> le 1023. *)
        Alcotest.(check (list (pair int int)))
          "buckets"
          [ (0, 1); (1, 2); (3, 1); (7, 2); (15, 1); (1023, 1) ]
          (Obs.Histogram.buckets h));
    Tu.case "quantile estimates interpolate within log-scale buckets" (fun () ->
        let h = Obs.Histogram.make "test.obs.quant" in
        Alcotest.(check int) "empty histogram estimates 0" 0 (Obs.Histogram.quantile h 0.5);
        for v = 1 to 100 do
          Obs.Histogram.observe h v
        done;
        (* rank 50 lands in bucket [32,63]: 32 + (50-31)/32 * 31 = 50.4. *)
        Alcotest.(check int) "p50 of 1..100" 50 (Obs.Histogram.quantile h 0.50);
        (* The tail buckets interpolate past the observed maximum; the
           estimate is clamped so it never exceeds a real sample. *)
        Alcotest.(check int) "p95 clamps to the observed max" 100
          (Obs.Histogram.quantile h 0.95);
        Alcotest.(check int) "p99 clamps to the observed max" 100
          (Obs.Histogram.quantile h 0.99);
        Alcotest.(check int) "q<=0 is the first sample's bucket" 1
          (Obs.Histogram.quantile h (-1.0));
        Alcotest.(check int) "q>=1 is the max" 100 (Obs.Histogram.quantile h 2.0));
    Tu.case "quantiles are monotone in q and cover p50/p95/p99" (fun () ->
        let h = Obs.Histogram.make "test.obs.quant_mono" in
        (* Heavily skewed: many small, few huge. *)
        for _ = 1 to 90 do
          Obs.Histogram.observe h 2
        done;
        for _ = 1 to 9 do
          Obs.Histogram.observe h 1000
        done;
        Obs.Histogram.observe h 100000;
        let q50 = Obs.Histogram.quantile h 0.50 in
        let q95 = Obs.Histogram.quantile h 0.95 in
        let q99 = Obs.Histogram.quantile h 0.99 in
        Alcotest.(check bool) "p50 <= p95 <= p99" true (q50 <= q95 && q95 <= q99);
        Alcotest.(check bool) "p50 sits in the dominant bucket [2,3]" true
          (q50 >= 2 && q50 <= 3);
        Alcotest.(check bool) "p95 reaches the heavy tail" true (q95 >= 512 && q95 <= 1023);
        Alcotest.(check (list (pair (float 0.0) int)))
          "quantiles returns the conventional three"
          [ (0.50, q50); (0.95, q95); (0.99, q99) ]
          (Obs.Histogram.quantiles h));
    Tu.case "summary_json carries the quantile estimates" (fun () ->
        let h = Obs.Histogram.make "test.obs.quant_sum" in
        List.iter (Obs.Histogram.observe h) [ 1; 2; 3; 4 ];
        let j = Obs.summary_json () in
        match
          Option.bind (Json.member "histograms" j) (Json.member "test.obs.quant_sum")
        with
        | None -> Alcotest.fail "histogram missing from summary"
        | Some hj ->
          List.iter
            (fun key ->
              match Json.member key hj with
              | Some (Json.Int v) ->
                Alcotest.(check bool) (key ^ " sane") true (v >= 1 && v <= 4)
              | _ -> Alcotest.failf "summary histogram lacks %s" key)
            [ "p50"; "p95"; "p99" ]);
    Tu.case "disabled mode records nothing" (fun () ->
        let c = Obs.Counter.make "test.obs.noop_counter" in
        let h = Obs.Histogram.make "test.obs.noop_hist" in
        let v0 = Obs.Counter.value c and n0 = Obs.Histogram.count h in
        Obs.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled true)
          (fun () ->
            Obs.Counter.incr c;
            Obs.Counter.add c 10;
            Obs.Histogram.observe h 5);
        Alcotest.(check int) "counter unchanged" v0 (Obs.Counter.value c);
        Alcotest.(check int) "histogram unchanged" n0 (Obs.Histogram.count h));
  ]

let span_tests =
  [
    Tu.case "spans nest, time monotonically and collect scoped" (fun () ->
        let mark = Obs.Span.mark () in
        let r =
          Obs.Span.with_ ~name:"test.outer" (fun () ->
              Obs.Span.with_ ~name:"test.inner" (fun () -> 6 * 7))
        in
        Alcotest.(check int) "result threads through" 42 r;
        let records = Obs.Span.records_since mark in
        Alcotest.(check int) "both spans collected" 2 (List.length records);
        let inner = List.nth records 0 and outer = List.nth records 1 in
        Alcotest.(check string) "inner finishes first" "test.inner" inner.Obs.Span.name;
        Alcotest.(check string) "outer finishes last" "test.outer" outer.Obs.Span.name;
        Alcotest.(check (option int))
          "parent linkage" (Some outer.Obs.Span.id) inner.Obs.Span.parent;
        Alcotest.(check (option int)) "outer is a root" None outer.Obs.Span.parent;
        Alcotest.(check bool) "durations non-negative" true
          (inner.Obs.Span.dur >= 0.0 && outer.Obs.Span.dur >= 0.0);
        Alcotest.(check bool) "child within parent" true
          (inner.Obs.Span.dur <= outer.Obs.Span.dur +. 1e-9);
        Alcotest.(check bool) "start ordering" true
          (outer.Obs.Span.start <= inner.Obs.Span.start +. 1e-9);
        (* The collection is consuming: a second drain from the same mark is
           empty. *)
        Alcotest.(check int) "buffer truncated" 0
          (List.length (Obs.Span.records_since mark)));
    Tu.case "spans record on exceptions too" (fun () ->
        let mark = Obs.Span.mark () in
        (try Obs.Span.with_ ~name:"test.raises" (fun () -> failwith "boom")
         with Failure _ -> ());
        let records = Obs.Span.records_since mark in
        Alcotest.(check int) "span recorded" 1 (List.length records);
        Alcotest.(check string) "name" "test.raises" (List.hd records).Obs.Span.name);
    Tu.case "aggregate sums per name" (fun () ->
        let mark = Obs.Span.mark () in
        for _ = 1 to 3 do
          Obs.Span.with_ ~name:"test.agg" (fun () -> ())
        done;
        let records = Obs.Span.records_since mark in
        match Obs.Span.aggregate records with
        | [ ("test.agg", (count, total)) ] ->
          Alcotest.(check int) "count" 3 count;
          Alcotest.(check bool) "total is a sum of durations" true (total >= 0.0)
        | other ->
          Alcotest.failf "unexpected aggregate of %d names" (List.length other));
  ]

let jsonl_tests =
  [
    Tu.case "JSONL sink output round-trips through the parser" (fun () ->
        let path = Filename.temp_file "xfd_obs" ".jsonl" in
        let sink = Obs.Sink.to_file path in
        Obs.Sink.install sink;
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let mark = Obs.Span.mark () in
            Obs.Span.with_ ~name:"test.sink.span" (fun () ->
                Obs.Counter.incr (Obs.Counter.make "test.obs.sink_counter"));
            Obs.write_summary ();
            Obs.Sink.uninstall sink;
            ignore (Obs.Span.records_since mark);
            let ic = open_in path in
            let lines = ref [] in
            (try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> close_in ic);
            let lines = List.rev !lines in
            Alcotest.(check bool) "at least span + summary" true (List.length lines >= 2);
            let parsed =
              List.map
                (fun line ->
                  match Json.of_string line with
                  | Ok v -> v
                  | Error m -> Alcotest.failf "invalid JSONL line %S: %s" line m)
                lines
            in
            let typed ty =
              List.filter (fun j -> Json.member "type" j = Some (Json.Str ty)) parsed
            in
            let spans = typed "span" and summaries = typed "summary" in
            Alcotest.(check bool) "has our span record" true
              (List.exists
                 (fun j -> Json.member "name" j = Some (Json.Str "test.sink.span"))
                 spans);
            match summaries with
            | [ s ] ->
              let counters =
                match Json.member "counters" s with Some c -> c | None -> Json.Null
              in
              Alcotest.(check bool) "summary carries the counter" true
                (match Json.member "test.obs.sink_counter" counters with
                | Some (Json.Int n) -> n >= 1
                | _ -> false);
              Alcotest.(check bool) "summary aggregates spans" true
                (match Json.member "spans" s with
                | Some sp -> Json.member "test.sink.span" sp <> None
                | None -> false)
            | _ -> Alcotest.fail "expected exactly one summary record"));
  ]

(* Strip nondeterministic floats: what detection *found*. *)
let fingerprint (o : Engine.outcome) =
  ( o.Engine.program,
    o.Engine.failure_points,
    o.Engine.pre_events,
    o.Engine.post_events,
    List.map Xfd.Report.dedup_key o.Engine.unique_bugs,
    List.map
      (fun r -> (r.Xfd.Report.failure_point, r.Xfd.Report.trace_pos, List.length r.Xfd.Report.bugs))
      o.Engine.reports )

let engine_tests =
  [
    Tu.case "no-op mode has zero effect on detection outcomes" (fun () ->
        let program () = Xfd_workloads.Array_update.program ~size:2 () in
        let on = Tu.detect (program ()) in
        Obs.set_enabled false;
        let off =
          Fun.protect ~finally:(fun () -> Obs.set_enabled true) (fun () -> Tu.detect (program ()))
        in
        Alcotest.(check bool) "identical findings" true (fingerprint on = fingerprint off);
        (* Spans still time the run even with metrics off, so the Figure 12
           numbers survive no-op mode. *)
        Alcotest.(check bool) "timings still populated" true
          (Engine.total_wall off > 0.0));
    Tu.case "outcome timings are exactly the span-tree aggregation" (fun () ->
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:2 ~size:2 ()) in
        let derived = Engine.timings_of_spans o.Engine.spans in
        Alcotest.(check bool) "derived = recorded" true (derived = o.Engine.timings);
        (* And the phases account for (almost all of) the root span: the
           engine does little outside the four phases. *)
        let root =
          List.find (fun r -> String.equal r.Obs.Span.name "detect") o.Engine.spans
        in
        let t = o.Engine.timings in
        let phase_sum =
          t.Engine.pre_exec +. t.Engine.post_exec +. t.Engine.pre_replay
          +. t.Engine.post_replay +. t.Engine.snapshotting
        in
        Alcotest.(check bool) "phases fit inside the root span" true
          (phase_sum <= root.Obs.Span.dur +. 1e-6);
        Alcotest.(check bool) "phases dominate the root span" true
          (phase_sum >= 0.5 *. root.Obs.Span.dur));
    Tu.case "span tree carries per-failure-point children" (fun () ->
        let o = Tu.detect (Xfd_workloads.Btree.program ~init_size:1 ~size:1 ()) in
        let named n =
          List.filter (fun r -> String.equal r.Obs.Span.name n) o.Engine.spans
        in
        Alcotest.(check int) "one post_exec per failure point" o.Engine.failure_points
          (List.length (named "post_exec"));
        Alcotest.(check int) "one post_replay per failure point" o.Engine.failure_points
          (List.length (named "post_replay"));
        Alcotest.(check int) "snapshots match failure points" o.Engine.failure_points
          (List.length (named "snapshot"));
        (* pre_replay: one incremental segment per failure point plus the
           final catch-up segment. *)
        Alcotest.(check int) "pre_replay segments" (o.Engine.failure_points + 1)
          (List.length (named "pre_replay"));
        let fp_meta r =
          match List.assoc_opt "failure_point" r.Obs.Span.meta with
          | Some (Json.Int i) -> Some i
          | _ -> None
        in
        let fps = List.filter_map fp_meta (named "post_exec") in
        Alcotest.(check (list int))
          "post_exec meta enumerates failure points in order"
          (List.init o.Engine.failure_points Fun.id)
          fps);
    Tu.case "engine counters tally failure points and bugs" (fun () ->
        let before_fired = Option.value ~default:0 (Obs.counter_value "engine.failure_points.fired") in
        let before_races = Option.value ~default:0 (Obs.counter_value "bugs.race") in
        let o = Tu.detect (Xfd_workloads.Array_update.program ~size:1 ()) in
        let fired =
          Option.value ~default:0 (Obs.counter_value "engine.failure_points.fired")
          - before_fired
        in
        Alcotest.(check int) "fired counter matches outcome" o.Engine.failure_points fired;
        let races, _, _, _ = Engine.tally o in
        let race_emissions =
          Option.value ~default:0 (Obs.counter_value "bugs.race") - before_races
        in
        Alcotest.(check bool) "bug emissions cover unique races" true
          (race_emissions >= races && races >= 1));
  ]

let cval name = Option.value ~default:0 (Obs.counter_value name)

let bound_tests =
  [
    Tu.case "negative samples are rejected and counted, not clamped" (fun () ->
        let h = Obs.Histogram.make "test.obs.neg_hist" in
        Obs.Histogram.observe h 5;
        let n0 = Obs.Histogram.count h and s0 = Obs.Histogram.sum h in
        let d0 = cval "obs.observe_dropped" in
        Obs.Histogram.observe h (-3);
        Alcotest.(check int) "count unchanged" n0 (Obs.Histogram.count h);
        Alcotest.(check int) "sum unchanged (no zero-clamp skew)" s0 (Obs.Histogram.sum h);
        Alcotest.(check (list (pair int int)))
          "buckets unchanged" [ (7, 1) ] (Obs.Histogram.buckets h);
        Alcotest.(check int) "drop counted" (d0 + 1) (cval "obs.observe_dropped"));
    Tu.case "finished-span ring keeps the newest spans and counts drops" (fun () ->
        ignore (Obs.Span.drain_spans Obs.Span.genesis);
        let cap0 = Obs.Span.capacity () in
        Fun.protect
          ~finally:(fun () ->
            ignore (Obs.Span.drain_spans Obs.Span.genesis);
            Obs.Span.set_capacity cap0)
          (fun () ->
            Obs.Span.set_capacity 8;
            Alcotest.(check int) "capacity applied" 8 (Obs.Span.capacity ());
            let d0 = cval "obs.spans_dropped" in
            let mark = Obs.Span.mark () in
            for i = 1 to 20 do
              Obs.Span.with_ ~name:(Printf.sprintf "test.ring.%d" i) (fun () -> ())
            done;
            let records = Obs.Span.drain_spans mark in
            Alcotest.(check (list string))
              "the 8 newest survive, oldest-first"
              (List.init 8 (fun i -> Printf.sprintf "test.ring.%d" (13 + i)))
              (List.map (fun r -> r.Obs.Span.name) records);
            Alcotest.(check int) "the 12 oldest were dropped and counted" (d0 + 12)
              (cval "obs.spans_dropped");
            (* Shrinking below the live count also drops-and-counts. *)
            for i = 1 to 6 do
              Obs.Span.with_ ~name:(Printf.sprintf "test.shrink.%d" i) (fun () -> ())
            done;
            let d1 = cval "obs.spans_dropped" in
            Obs.Span.set_capacity 2;
            Alcotest.(check int) "shrink drops the overflow" (d1 + 4)
              (cval "obs.spans_dropped");
            let kept = Obs.Span.drain_spans Obs.Span.genesis in
            Alcotest.(check (list string))
              "shrink keeps the newest" [ "test.shrink.5"; "test.shrink.6" ]
              (List.map (fun r -> r.Obs.Span.name) kept)));
  ]

let mt_tests =
  [
    Tu.case "metrics sum exactly under 4-domain hammering" (fun () ->
        let c = Obs.Counter.make "test.obs.mt_counter" in
        let h = Obs.Histogram.make "test.obs.mt_hist" in
        let v0 = Obs.Counter.value c in
        let n0 = Obs.Histogram.count h and s0 = Obs.Histogram.sum h in
        let per = 10_000 in
        let work () =
          for i = 1 to per do
            Obs.Counter.incr c;
            Obs.Histogram.observe h (i land 7)
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn work) in
        List.iter Domain.join domains;
        Alcotest.(check int) "counter exact" (v0 + (4 * per)) (Obs.Counter.value c);
        Alcotest.(check int) "histogram count exact" (n0 + (4 * per)) (Obs.Histogram.count h);
        (* i land 7 cycles 1..7,0: each period of 8 sums to 28. *)
        Alcotest.(check int) "histogram sum exact"
          (s0 + (4 * (per / 8 * 28)))
          (Obs.Histogram.sum h));
    Tu.case "concurrent drain_spans neither loses nor duplicates a span" (fun () ->
        let program () = Xfd_workloads.Array_update.program ~size:2 () in
        ignore (Obs.Span.drain_spans Obs.Span.genesis);
        let solo = Tu.detect (program ()) in
        let expected = List.length solo.Engine.spans in
        ignore (Obs.Span.drain_spans Obs.Span.genesis);
        (* Steal from the shared buffer for the whole duration of a detect
           running on another domain; every span must end up in exactly one
           of: the outcome, a steal, or the final sweep. *)
        let finished = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              let o = Tu.detect (program ()) in
              Atomic.set finished true;
              o)
        in
        let stolen = ref [] in
        while not (Atomic.get finished) do
          (match Obs.Span.drain_spans Obs.Span.genesis with [] -> () | rs -> stolen := rs :: !stolen);
          Domain.cpu_relax ()
        done;
        let o = Domain.join d in
        let leftover = Obs.Span.drain_spans Obs.Span.genesis in
        let all = o.Engine.spans @ leftover @ List.concat !stolen in
        Alcotest.(check int) "span count conserved" expected (List.length all);
        let ids = List.map (fun r -> r.Obs.Span.id) all in
        Alcotest.(check int) "no span delivered twice" (List.length ids)
          (List.length (List.sort_uniq compare ids)));
  ]

let suite =
  [
    ("obs.metrics", counter_tests);
    ("obs.spans", span_tests);
    ("obs.bounds", bound_tests);
    ("obs.mt", mt_tests);
    ("obs.jsonl", jsonl_tests);
    ("obs.engine", engine_tests);
  ]

(* Tests for the differential workload fuzzer: program serialization, the
   generator profiles, engine-vs-oracle agreement, metamorphic properties,
   the shrinker, and the on-disk repro corpus (including the checked-in
   seed corpus, replayed against the current engine). *)

module Prog = Xfd_fuzz.Prog
module Gen = Xfd_fuzz.Gen
module Oracle = Xfd_fuzz.Oracle
module Shrink = Xfd_fuzz.Shrink
module Corpus = Xfd_fuzz.Corpus
module Fuzz = Xfd_fuzz.Fuzz
module Rng = Xfd_util.Rng
module Engine = Xfd.Engine
module Config = Xfd.Config

let gen profile seed = Gen.generate profile (Rng.create (Int64.of_int seed))

let engine_keys p = Oracle.keys_of_outcome (Engine.detect (Prog.to_program p))

let profile_arb =
  QCheck.make
    ~print:(fun (p, s) -> Printf.sprintf "%s/%d" (Gen.profile_to_string p) s)
    QCheck.Gen.(
      pair (oneofl [ Gen.Correct; Gen.Buggy; Gen.Wild ]) (int_bound 10_000))

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* A buggy program with a stable verdict to feed the shrinker: padding
   around one missing flush. *)
let missing_flush_padded () =
  {
    Prog.commit_vars = [];
    setup_slots = [ 2; 3 ];
    ops =
      [
        (1, Prog.Store { slot = 4; v = 11L; nt = false });
        (2, Prog.Flush { slot = 4; opt = false });
        (3, Prog.Fence);
        (4, Prog.Store { slot = 5; v = 22L; nt = false });
        (5, Prog.Fence);
        (* the bug: slot 5 never flushed, yet read post-failure *)
        (6, Prog.Store { slot = 6; v = 33L; nt = false });
        (7, Prog.Flush { slot = 6; opt = true });
        (8, Prog.Fence);
        (9, Prog.Read { slot = 4; n = 1 });
      ];
    recovers = [];
    post_reads = [ (1, 5, 1); (2, 4, 1) ];
  }

let serialization_props =
  [
    QCheck.Test.make ~count:200 ~name:"generated programs serialize round-trip"
      profile_arb
      (fun (profile, seed) ->
        let p = gen profile seed in
        match Prog.of_lines (Prog.to_lines p) with
        | Ok (p', []) -> Prog.equal p p'
        | Ok (_, _ :: _) -> false
        | Error _ -> false);
    QCheck.Test.make ~count:200 ~name:"generated programs pass validation"
      profile_arb
      (fun (profile, seed) -> Prog.check (gen profile seed) = Ok ());
  ]

let differential_tests =
  [
    Tu.case "engine agrees with the reference oracle (all profiles)" (fun () ->
        List.iter
          (fun profile ->
            for seed = 0 to 39 do
              let p = gen profile seed in
              let o = Engine.detect (Prog.to_program p) in
              let r = Oracle.run p in
              let name what =
                Printf.sprintf "%s/%d %s" (Gen.profile_to_string profile) seed what
              in
              Alcotest.(check (list string))
                (name "keys")
                r.Oracle.keys (Oracle.keys_of_outcome o);
              Alcotest.(check int)
                (name "failure points")
                r.Oracle.failure_points o.Engine.failure_points
            done)
          [ Gen.Correct; Gen.Buggy; Gen.Wild ]);
    Tu.case "correct profile yields zero findings" (fun () ->
        for seed = 0 to 49 do
          let p = gen Gen.Correct seed in
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d clean" seed)
            [] (engine_keys p)
        done);
    Tu.case "buggy profile always plants at least one bug phrase" (fun () ->
        let found = ref 0 in
        for seed = 0 to 29 do
          if engine_keys (gen Gen.Buggy seed) <> [] then incr found
        done;
        (* Planted bugs can occasionally be masked by later phrases; the
           overwhelming majority must still be caught. *)
        Alcotest.(check bool) "most buggy programs flagged" true (!found >= 25));
    Tu.case "detect_at over all ordinals reconstructs the full verdict" (fun () ->
        for seed = 0 to 9 do
          let p = gen Gen.Buggy seed in
          let prog = Prog.to_program p in
          let full = Engine.detect prog in
          let union = ref [] in
          for k = 0 to full.Engine.failure_points - 1 do
            let o = Engine.detect_at ~failure_point:k prog in
            union := Oracle.keys_of_outcome o @ !union
          done;
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d" seed)
            (Oracle.keys_of_outcome full)
            (List.sort_uniq String.compare !union)
        done);
  ]

let loop_tests =
  [
    Tu.case "fuzz loop is clean on every profile" (fun () ->
        List.iter
          (fun profile ->
            let cfg = { Fuzz.default_cfg with Fuzz.budget = 25; profile } in
            let s = Fuzz.run ~out:null_fmt cfg in
            Alcotest.(check bool)
              (Gen.profile_to_string profile ^ " clean")
              true (Fuzz.clean s);
            Alcotest.(check int)
              (Gen.profile_to_string profile ^ " programs")
              25 s.Fuzz.programs)
          [ Gen.Correct; Gen.Buggy; Gen.Wild ]);
    Tu.case "same seed twice gives identical summaries" (fun () ->
        let cfg = { Fuzz.default_cfg with Fuzz.budget = 30; seed = 11 } in
        let a = Fuzz.run ~out:null_fmt cfg and b = Fuzz.run ~out:null_fmt cfg in
        Alcotest.(check bool) "equal" true (a = b));
    Tu.case "different seeds explore different programs" (fun () ->
        let run seed =
          (Fuzz.run ~out:null_fmt { Fuzz.default_cfg with Fuzz.budget = 30; seed })
            .Fuzz.unique_key_sets
        in
        (* Not a determinism property — just evidence the seed matters. *)
        Alcotest.(check bool) "key-set counts differ somewhere" true
          (List.sort_uniq compare [ run 1; run 2; run 3 ] <> [ run 1 ]
          || run 1 <> run 4));
  ]

let shrink_tests =
  [
    Tu.case "shrinker reduces a padded missing-flush program" (fun () ->
        let p = missing_flush_padded () in
        let keys = engine_keys p in
        Alcotest.(check bool) "padded program has findings" true (keys <> []);
        let keep q = engine_keys q = keys in
        let q, evals = Shrink.minimize ~keep p in
        Alcotest.(check bool) "spent evaluations" true (evals > 0);
        Alcotest.(check bool) "smaller" true (Prog.size q < Prog.size p);
        Alcotest.(check bool) "well within the repro bound" true (Prog.size q <= 20);
        Alcotest.(check (list string)) "verdict preserved" keys (engine_keys q);
        Alcotest.(check bool) "still valid" true (Prog.check q = Ok ()));
    Tu.case "shrunk generated repros stay small and faithful" (fun () ->
        for seed = 0 to 4 do
          let p = gen Gen.Buggy seed in
          let keys = engine_keys p in
          if keys <> [] then begin
            let keep q = engine_keys q = keys in
            let q, _ = Shrink.minimize ~keep p in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d size" seed)
              true
              (Prog.size q <= 20 && Prog.size q <= Prog.size p);
            Alcotest.(check (list string))
              (Printf.sprintf "seed %d verdict" seed)
              keys (engine_keys q)
          end
        done);
    Tu.case "minimize rejects a predicate the input fails" (fun () ->
        let p = missing_flush_padded () in
        match Shrink.minimize ~keep:(fun _ -> false) p with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Tu.case "minimize respects its evaluation budget" (fun () ->
        let p = gen Gen.Buggy 3 in
        let evals = ref 0 in
        let keep q =
          incr evals;
          engine_keys q = engine_keys p
        in
        (* [keep p] is evaluated once up front before the budget applies. *)
        let _, reported = Shrink.minimize ~max_evals:10 ~keep p in
        Alcotest.(check bool) "bounded" true (reported <= 10 && !evals <= 12));
  ]

let with_temp_dir f =
  let dir = Filename.temp_file "xfd_fuzz" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let corpus_tests =
  [
    Tu.case "save / load / check round-trips" (fun () ->
        with_temp_dir (fun dir ->
            let p = missing_flush_padded () in
            let keys = engine_keys p in
            let path = Corpus.save ~dir ~keys p in
            (match Corpus.load path with
            | Ok (p', expects) ->
              Alcotest.(check bool) "program preserved" true (Prog.equal p p');
              Alcotest.(check (list string)) "expects preserved" keys
                (List.sort_uniq String.compare expects)
            | Error e -> Alcotest.failf "load failed: %s" e);
            (match Corpus.check path with
            | Ok () -> ()
            | Error e -> Alcotest.failf "check failed: %s" e);
            Alcotest.(check (list string)) "listed" [ path ] (Corpus.files ~dir);
            (* Saving the same program again reuses the same content hash. *)
            Alcotest.(check string) "idempotent name" path (Corpus.save ~dir ~keys p)));
    Tu.case "check flags a stale expectation" (fun () ->
        with_temp_dir (fun dir ->
            let p = missing_flush_padded () in
            let path = Corpus.save ~dir ~keys:[ "race:bogus:site:false" ] p in
            match Corpus.check path with
            | Ok () -> Alcotest.fail "expected a mismatch"
            | Error e ->
              Alcotest.(check bool) "mentions the file" true
                (String.length e >= String.length path
                && String.sub e 0 (String.length path) = path)));
    Tu.case "fuzz run harvests replayable shrunk repros" (fun () ->
        with_temp_dir (fun dir ->
            let cfg =
              { Fuzz.default_cfg with Fuzz.budget = 30; corpus_dir = Some dir }
            in
            let s = Fuzz.run ~out:null_fmt cfg in
            Alcotest.(check bool) "clean" true (Fuzz.clean s);
            Alcotest.(check bool) "harvested some" true (s.Fuzz.repros <> []);
            List.iter
              (fun path ->
                (match Corpus.load path with
                | Ok (p, _) ->
                  Alcotest.(check bool)
                    (Filename.basename path ^ " small")
                    true (Prog.size p <= 20)
                | Error e -> Alcotest.failf "load failed: %s" e);
                match Corpus.check path with
                | Ok () -> ()
                | Error e -> Alcotest.failf "replay failed: %s" e)
              s.Fuzz.repros;
            (* A second run over the saved corpus replays it clean. *)
            let s2 = Fuzz.run ~out:null_fmt cfg in
            Alcotest.(check int) "corpus checked" (List.length s.Fuzz.repros)
              s2.Fuzz.corpus_checked;
            Alcotest.(check int) "no corpus failures" 0 s2.Fuzz.corpus_failures));
    Tu.case "checked-in seed corpus replays to its recorded verdicts" (fun () ->
        let files = Corpus.files ~dir:"corpus" in
        Alcotest.(check bool) "seed corpus present" true (List.length files >= 5);
        List.iter
          (fun path ->
            match Corpus.check path with
            | Ok () -> ()
            | Error e -> Alcotest.failf "seed corpus regression: %s" e)
          files);
  ]

let suite =
  [
    ("fuzz.serialize", List.map QCheck_alcotest.to_alcotest serialization_props);
    ("fuzz.differential", differential_tests);
    ("fuzz.loop", loop_tests);
    ("fuzz.shrink", shrink_tests);
    ("fuzz.corpus", corpus_tests);
  ]

(* The detection service: quota buckets, the worker pool, the HTTP job
   protocol, and the acceptance guarantee that a job submitted over the
   wire produces a verdict fingerprint byte-identical to an in-process
   [Engine.detect] on the same input — under both engines.

   Every server in this file binds port 0 and polls /ready before the
   first request: no fixed ports, no sleeps. *)

module Json = Xfd_util.Json
module Engine = Xfd.Engine
module Config = Xfd.Config
module Httpc = Xfd_pulse.Httpc
module Quota = Xfd_serve.Quota
module Pool = Xfd_serve.Pool
module Job = Xfd_serve.Job
module Serve = Xfd_serve.Serve
module Workload_set = Xfd_experiments.Workload_set
module Corpus = Xfd_fuzz.Corpus
module Prog = Xfd_fuzz.Prog

let host = "127.0.0.1"

(* ---- quota: deterministic token-bucket arithmetic ---- *)

let quota_tests =
  [
    Tu.case "bucket refills at rate, caps at burst, reports retry-after" (fun () ->
        let q = Quota.create ~rate:1.0 ~burst:2 in
        Alcotest.(check bool) "enabled" true (Quota.enabled q);
        let take now = Quota.try_take q ~client:"c" ~now in
        Alcotest.(check bool) "burst 1" true (take 0.0 = `Ok);
        Alcotest.(check bool) "burst 2" true (take 0.0 = `Ok);
        (match take 0.0 with
        | `Retry_after s -> Alcotest.(check (float 1e-9)) "empty bucket: 1 token away" 1.0 s
        | `Ok -> Alcotest.fail "third take should be rejected");
        (match take 0.5 with
        | `Retry_after s -> Alcotest.(check (float 1e-9)) "half refilled" 0.5 s
        | `Ok -> Alcotest.fail "still rejected at t=0.5");
        Alcotest.(check bool) "full token at t=1.5" true (take 1.5 = `Ok);
        (* refill caps at burst: a long gap does not bank extra tokens *)
        Alcotest.(check bool) "after gap 1" true (take 100.0 = `Ok);
        Alcotest.(check bool) "after gap 2" true (take 100.0 = `Ok);
        Alcotest.(check bool) "after gap 3 rejected" true
          (match take 100.0 with `Retry_after _ -> true | `Ok -> false));
    Tu.case "clients are independent; a backwards clock mints nothing" (fun () ->
        let q = Quota.create ~rate:1.0 ~burst:1 in
        Alcotest.(check bool) "a ok" true (Quota.try_take q ~client:"a" ~now:10.0 = `Ok);
        Alcotest.(check bool) "b ok" true (Quota.try_take q ~client:"b" ~now:10.0 = `Ok);
        Alcotest.(check int) "two clients tracked" 2 (Quota.clients q);
        (* clock jumps back: elapsed clamps to 0, no refill *)
        Alcotest.(check bool) "backwards clock rejected" true
          (match Quota.try_take q ~client:"a" ~now:5.0 with
          | `Retry_after _ -> true
          | `Ok -> false));
    Tu.case "non-positive rate disables the quota" (fun () ->
        let q = Quota.create ~rate:0.0 ~burst:1 in
        Alcotest.(check bool) "disabled" false (Quota.enabled q);
        for i = 0 to 99 do
          Alcotest.(check bool)
            (Printf.sprintf "take %d ok" i)
            true
            (Quota.try_take q ~client:"c" ~now:0.0 = `Ok)
        done);
  ]

(* ---- pool: gated runners make queue states deterministic ---- *)

(* A controllable runner: items wait on a gate until the test opens it,
   and every execution is counted per item. *)
let gated_pool ~workers ~queue_cap ~n_items =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let open_gate = ref false in
  let runs = Array.make n_items 0 in
  let runner i =
    Mutex.protect mu (fun () ->
        while not !open_gate do
          Condition.wait cond mu
        done;
        runs.(i) <- runs.(i) + 1)
  in
  let release () =
    Mutex.protect mu (fun () ->
        open_gate := true;
        Condition.broadcast cond)
  in
  (Pool.create ~workers ~queue_cap runner, release, runs)

let wait_for ?(timeout = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what
    else begin
      Thread.yield ();
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let pool_tests =
  [
    Tu.case "bounded queue: accepted until full, drain completes all" (fun () ->
        let pool, release, runs = gated_pool ~workers:1 ~queue_cap:2 ~n_items:4 in
        Alcotest.(check bool) "j0 accepted" true (Pool.submit pool 0 = `Accepted);
        (* wait until the worker holds j0, so the queue is empty again *)
        wait_for "worker picked j0" (fun () ->
            let _, running, _ = Pool.stats pool in
            running = 1);
        Alcotest.(check bool) "j1 accepted" true (Pool.submit pool 1 = `Accepted);
        Alcotest.(check bool) "j2 accepted" true (Pool.submit pool 2 = `Accepted);
        Alcotest.(check bool) "queue full" true (Pool.submit pool 3 = `Queue_full);
        release ();
        ignore (Pool.stop ~drain:true pool);
        let _, _, completed = Pool.stats pool in
        Alcotest.(check int) "all accepted items completed" 3 completed;
        Alcotest.(check (list int)) "each ran exactly once, rejected never" [ 1; 1; 1; 0 ]
          (Array.to_list runs);
        Alcotest.(check bool) "submit after stop is draining" true
          (Pool.submit pool 3 = `Draining);
        Alcotest.(check (list int)) "second stop is a no-op" []
          (Pool.stop pool));
    Tu.case "stop without drain discards the unstarted queue" (fun () ->
        let pool, release, runs = gated_pool ~workers:1 ~queue_cap:4 ~n_items:3 in
        Alcotest.(check bool) "j0 accepted" true (Pool.submit pool 0 = `Accepted);
        wait_for "worker picked j0" (fun () ->
            let _, running, _ = Pool.stats pool in
            running = 1);
        Alcotest.(check bool) "j1 accepted" true (Pool.submit pool 1 = `Accepted);
        Alcotest.(check bool) "j2 accepted" true (Pool.submit pool 2 = `Accepted);
        (* stop joins the worker, which is gated — open the gate from a
           helper thread once the discard has happened *)
        let opener = Thread.create (fun () -> release ()) () in
        let discarded = Pool.stop ~drain:false pool in
        Thread.join opener;
        Alcotest.(check (list int)) "queued items returned" [ 1; 2 ]
          (List.sort compare discarded);
        Alcotest.(check (list int)) "in-flight finished, discards never ran" [ 1; 0; 0 ]
          (Array.to_list runs));
    Tu.case "parallel submitters: every accepted item runs exactly once" (fun () ->
        let n = 160 in
        let mu = Mutex.create () in
        let runs = Array.make n 0 in
        let pool =
          Pool.create ~workers:4 ~queue_cap:n (fun i ->
              Mutex.protect mu (fun () -> runs.(i) <- runs.(i) + 1))
        in
        let accepted = Atomic.make 0 and rejected = Atomic.make 0 in
        let submitter t () =
          for k = 0 to (n / 8) - 1 do
            match Pool.submit pool ((t * (n / 8)) + k) with
            | `Accepted -> Atomic.incr accepted
            | `Queue_full | `Draining -> Atomic.incr rejected
          done
        in
        let threads = List.init 8 (fun t -> Thread.create (submitter t) ()) in
        List.iter Thread.join threads;
        ignore (Pool.stop ~drain:true pool);
        Alcotest.(check int) "accounting: accepted + rejected = submitted" n
          (Atomic.get accepted + Atomic.get rejected);
        let _, _, completed = Pool.stats pool in
        Alcotest.(check int) "completed = accepted" (Atomic.get accepted) completed;
        Array.iteri
          (fun i r ->
            if r > 1 then Alcotest.failf "item %d ran %d times" i r)
          runs);
    Tu.case "a raising runner does not kill its worker" (fun () ->
        let ran = Atomic.make 0 in
        let pool =
          Pool.create ~workers:1 ~queue_cap:8 (fun i ->
              Atomic.incr ran;
              if i = 0 then failwith "bad job")
        in
        Alcotest.(check bool) "bad job accepted" true (Pool.submit pool 0 = `Accepted);
        Alcotest.(check bool) "good job accepted" true (Pool.submit pool 1 = `Accepted);
        ignore (Pool.stop ~drain:true pool);
        Alcotest.(check int) "both ran" 2 (Atomic.get ran));
  ]

(* ---- serving helpers ---- *)

let with_serve ?(config = Serve.default_config) ?run f =
  let t = Serve.start ?run config in
  Fun.protect
    ~finally:(fun () -> Serve.stop t)
    (fun () ->
      let port = Serve.port t in
      (* the de-flake protocol: ephemeral port + poll /ready, no sleeps *)
      wait_for "server ready" (fun () ->
          match Httpc.get ~host ~port "/ready" with Ok (200, _) -> true | _ -> false);
      f t port)

(* A job runner whose first job blocks until [release] is called, so a
   test controls exactly how long the only worker stays occupied instead of
   racing a heavy job against localhost round trips.  [release] is
   idempotent; call it before the service drains. *)
let held_first_job () =
  let m = Mutex.create () and c = Condition.create () in
  let released = ref false and calls = Atomic.make 0 in
  let run spec =
    if Atomic.fetch_and_add calls 1 = 0 then
      Mutex.protect m (fun () ->
          while not !released do
            Condition.wait c m
          done);
    Job.run spec
  in
  let release () =
    Mutex.protect m (fun () ->
        released := true;
        Condition.broadcast c)
  in
  (run, release)

let parse_json body =
  match Json.of_string body with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad JSON: %s (in %S)" e body

let jstr key j =
  match Json.member key j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S in %s" key (Json.to_string j)

let post_json ?(headers = []) ~port body =
  match Httpc.post ~headers ~body ~host ~port "/v1/jobs" with
  | Ok (status, hdrs, body) -> (status, hdrs, body)
  | Error e -> Alcotest.failf "POST /v1/jobs failed: %s" e

let get_ok ~port path =
  match Httpc.get ~host ~port path with
  | Ok (status, body) -> (status, body)
  | Error e -> Alcotest.failf "GET %s failed: %s" path e

let submit_ok ?headers ~port spec_json =
  let status, _, body = post_json ?headers ~port (Json.to_string spec_json) in
  Alcotest.(check int) "submission accepted (202)" 202 status;
  let j = parse_json body in
  Alcotest.(check string) "accepted envelope" "job.accepted" (jstr "type" j);
  jstr "id" j

let await_job ~port id =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec poll () =
    let status, body = get_ok ~port ("/v1/jobs/" ^ id) in
    Alcotest.(check int) (id ^ " status 200") 200 status;
    let j = parse_json body in
    match jstr "state" j with
    | "done" | "failed" -> j
    | _ when Unix.gettimeofday () > deadline -> Alcotest.failf "job %s never finished" id
    | _ ->
      Unix.sleepf 0.01;
      poll ()
  in
  poll ()

let result_of j =
  match Json.member "result" j with
  | Some r -> r
  | None -> Alcotest.failf "no result in %s" (Json.to_string j)

let workload_spec ?patch ?(engine = "incremental") ~workload ~init ~test () =
  Json.Obj
    ([
       ("kind", Json.Str "workload");
       ("workload", Json.Str workload);
       ("init", Json.Int init);
       ("test", Json.Int test);
       ("engine", Json.Str engine);
     ]
    @ match patch with Some p -> [ ("patch", Json.Str p) ] | None -> [])

(* ---- protocol goldens ---- *)

let protocol_tests =
  [
    Tu.case "route table: index, listing, 404s, 405+Allow, health" (fun () ->
        with_serve (fun _t port ->
            let status, body = get_ok ~port "/" in
            Alcotest.(check int) "index 200" 200 status;
            Alcotest.(check bool) "index names the protocol" true
              (String.length body > 0 && String.trim body <> "");
            let status, body = get_ok ~port "/v1/jobs" in
            Alcotest.(check int) "empty listing 200" 200 status;
            let j = parse_json body in
            Alcotest.(check string) "listing envelope" "job.list" (jstr "type" j);
            (match Json.member "jobs" j with
            | Some (Json.Arr []) -> ()
            | _ -> Alcotest.fail "expected an empty jobs array");
            let status, body = get_ok ~port "/v1/jobs/j999" in
            Alcotest.(check int) "unknown job 404" 404 status;
            Alcotest.(check string) "404 is a JSON error" "error"
              (jstr "type" (parse_json body));
            let status, _ = get_ok ~port "/v1/jobs/j999/report" in
            Alcotest.(check int) "unknown job report 404" 404 status;
            let status, _ = get_ok ~port "/nope" in
            Alcotest.(check int) "unknown route 404" 404 status;
            (* POST where only GET lives: 405 with the route's Allow set *)
            (match
               Httpc.request ~meth:"POST" ~body:"{}" ~headers:[] ~host ~port "/v1/jobs/j1"
             with
            | Ok (status, hdrs, _) ->
              Alcotest.(check int) "POST on a GET route is 405" 405 status;
              Alcotest.(check (option string))
                "Allow header names the route's methods" (Some "GET, HEAD")
                (List.assoc_opt "allow" hdrs)
            | Error e -> Alcotest.failf "POST failed: %s" e);
            (match Httpc.request ~meth:"PUT" ~body:"x" ~headers:[] ~host ~port "/v1/jobs" with
            | Ok (status, hdrs, _) ->
              Alcotest.(check int) "PUT is 405 (server allowlist)" 405 status;
              Alcotest.(check (option string))
                "Allow covers the whole service" (Some "GET, HEAD, POST")
                (List.assoc_opt "allow" hdrs)
            | Error e -> Alcotest.failf "PUT failed: %s" e);
            let status, body = get_ok ~port "/health" in
            Alcotest.(check int) "health 200" 200 status;
            let h = parse_json body in
            Alcotest.(check string) "health envelope" "serve.health" (jstr "type" h);
            Alcotest.(check string) "health state" "serving" (jstr "state" h);
            let status, body = get_ok ~port "/metrics" in
            Alcotest.(check int) "metrics delegated to pulse" 200 status;
            Alcotest.(check bool) "openmetrics terminator" true
              (let t = String.trim body in
               String.length t >= 5 && String.sub t (String.length t - 5) 5 = "# EOF")))
    ;
    Tu.case "submissions are validated before a job is accepted" (fun () ->
        with_serve (fun _t port ->
            let reject ?(expect = 400) name body =
              let status, _, resp = post_json ~port body in
              Alcotest.(check int) (name ^ " rejected") expect status;
              Alcotest.(check string)
                (name ^ " is a JSON error")
                "error"
                (jstr "type" (parse_json resp))
            in
            reject "bad JSON" "{not json";
            reject "unknown workload"
              (Json.to_string (workload_spec ~workload:"nope" ~init:0 ~test:1 ()));
            reject "unknown kind" {|{"kind":"weird"}|};
            reject "bad engine" {|{"workload":"btree","engine":"quantum"}|};
            reject "out-of-range test size" {|{"workload":"btree","test":1001}|};
            reject "malformed patch"
              (Json.to_string
                 (workload_spec ~patch:"warp-core=0" ~workload:"btree" ~init:0 ~test:1 ()));
            reject "workload job without workload" {|{"kind":"workload"}|};
            reject "xfdprog without program" {|{"kind":"xfdprog"}|};
            reject "invalid xfdprog text" {|{"kind":"xfdprog","program":"not a program"}|};
            (* nothing above should have registered a job *)
            let _, body = get_ok ~port "/v1/jobs" in
            match Json.member "jobs" (parse_json body) with
            | Some (Json.Arr []) -> ()
            | _ -> Alcotest.fail "rejected submissions must not create jobs"));
    Tu.case "oversized submissions answer 413 under the configured cap" (fun () ->
        let config = { Serve.default_config with max_body_bytes = 256 } in
        with_serve ~config (fun _t port ->
            let status, _, _ = post_json ~port (String.make 1000 'x') in
            Alcotest.(check int) "over the cap" 413 status;
            let status, _, _ =
              post_json ~port
                (Json.to_string (workload_spec ~workload:"btree" ~init:0 ~test:1 ()))
            in
            Alcotest.(check int) "small body still accepted" 202 status));
    Tu.case "corpus routes: list, fetch, validation, 404s" (fun () ->
        let config = { Serve.default_config with corpus_dir = Some "corpus" } in
        with_serve ~config (fun _t port ->
            let status, body = get_ok ~port "/v1/corpus" in
            Alcotest.(check int) "corpus list 200" 200 status;
            let j = parse_json body in
            let files =
              match Json.member "files" j with
              | Some (Json.Arr l) ->
                List.map (function Json.Str s -> s | _ -> Alcotest.fail "bad file") l
              | _ -> Alcotest.fail "no files array"
            in
            Alcotest.(check bool) "seed corpus listed" true (List.length files >= 5);
            let name = List.hd files in
            let status, text = get_ok ~port ("/v1/corpus/" ^ name) in
            Alcotest.(check int) "corpus fetch 200" 200 status;
            (match Prog.of_lines (String.split_on_char '\n' text) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "served corpus file does not parse: %s" e);
            let status, _ = get_ok ~port "/v1/corpus/absent.xfdprog" in
            Alcotest.(check int) "missing file 404" 404 status;
            let status, _ = get_ok ~port "/v1/corpus/.." in
            Alcotest.(check int) "dot-dot rejected 400" 400 status;
            let status, _ = get_ok ~port "/v1/corpus/..%2fdune" in
            Alcotest.(check bool) "encoded traversal never serves a file" true
              (status = 400 || status = 404);
            let status, _ = get_ok ~port "/v1/corpus/not-a-prog.txt" in
            Alcotest.(check int) "non-xfdprog name 400" 400 status));
    Tu.case "no corpus configured: corpus routes are 404" (fun () ->
        with_serve (fun _t port ->
            let status, _ = get_ok ~port "/v1/corpus" in
            Alcotest.(check int) "list 404" 404 status;
            let status, _ = get_ok ~port "/v1/corpus/x.xfdprog" in
            Alcotest.(check int) "fetch 404" 404 status));
  ]

(* ---- malformed wire input: the server survives anything ---- *)

let malformed_tests =
  [
    Tu.case "adversarial raw requests never take the service down" (fun () ->
        with_serve (fun _t port ->
            let raw = Suite_pulse.raw_request ~port in
            ignore (raw "GARBAGE\r\n\r\n");
            ignore (raw "GET\r\n\r\n");
            ignore (raw "GET /v1/jobs HTTP/1.1\r\nno-colon-here\r\n\r\n");
            ignore
              (raw
                 (Printf.sprintf "GET / HTTP/1.1\r\nX-Pad: %s\r\n\r\n"
                    (String.make 10000 'p')));
            ignore
              (Suite_pulse.raw_request ~shutdown:true ~port
                 "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n{\"wor");
            ignore (raw "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{{{{");
            (* after all of that, the service still answers cleanly *)
            let status, body = get_ok ~port "/health" in
            Alcotest.(check int) "health after abuse" 200 status;
            Alcotest.(check string) "still serving" "serving"
              (jstr "state" (parse_json body))));
  ]

(* ---- e2e: wire verdicts are byte-identical to in-process verdicts ---- *)

let in_process_fingerprint ~engine ~patch ~workload ~init ~test =
  let entry = Workload_set.find workload in
  let faults =
    match patch with
    | None -> Xfd_sim.Faults.none
    | Some p -> (
      match Job.faults_of_spec p with
      | Ok f -> f
      | Error e -> Alcotest.failf "bad patch in test: %s" e)
  in
  let config = { Config.default with Config.faults; engine } in
  Job.fingerprint (Engine.detect ~config (entry.Workload_set.make ~init ~test))

let e2e_tests =
  [
    Tu.case "workload jobs: service fingerprint = in-process, both engines" (fun () ->
        with_serve (fun _t port ->
            let wire engine =
              let id =
                submit_ok ~port
                  (workload_spec ~patch:"skip-tx-add=0" ~engine ~workload:"btree" ~init:1
                     ~test:2 ())
              in
              let j = await_job ~port id in
              Alcotest.(check string) (engine ^ " job done") "done" (jstr "state" j);
              let r = result_of j in
              let bugs =
                match Json.member "unique_bugs" r with
                | Some (Json.Arr l) -> List.length l
                | _ -> 0
              in
              Alcotest.(check bool) (engine ^ " found the seeded bug") true (bugs > 0);
              jstr "fingerprint" r
            in
            let incr_wire = wire "incremental" in
            let fresh_wire = wire "fresh" in
            let fp engine =
              in_process_fingerprint ~engine ~patch:(Some "skip-tx-add=0") ~workload:"btree"
                ~init:1 ~test:2
            in
            Alcotest.(check string) "incremental: wire = in-process" (fp `Incremental)
              incr_wire;
            Alcotest.(check string) "fresh: wire = in-process" (fp `Fresh) fresh_wire;
            Alcotest.(check string) "incremental = fresh (oracle equivalence)" incr_wire
              fresh_wire));
    Tu.case "clean workload over the wire agrees with in-process too" (fun () ->
        with_serve (fun _t port ->
            let id =
              submit_ok ~port (workload_spec ~workload:"hashmap-atomic" ~init:1 ~test:1 ())
            in
            let j = await_job ~port id in
            Alcotest.(check string) "done" "done" (jstr "state" j);
            Alcotest.(check string) "fingerprints agree"
              (in_process_fingerprint ~engine:`Incremental ~patch:None
                 ~workload:"hashmap-atomic" ~init:1 ~test:1)
              (jstr "fingerprint" (result_of j))));
    Tu.case "corpus repro over the wire: verdicts match the expect lines" (fun () ->
        with_serve (fun _t port ->
            let file =
              match Corpus.files ~dir:"corpus" with
              | f :: _ -> f
              | [] -> Alcotest.fail "seed corpus missing"
            in
            let ic = open_in_bin file in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let id =
              submit_ok ~port
                (Json.Obj
                   [ ("kind", Json.Str "xfdprog"); ("program", Json.Str text) ])
            in
            let j = await_job ~port id in
            Alcotest.(check string) "done" "done" (jstr "state" j);
            let r = result_of j in
            (match Json.member "expect_match" r with
            | Some (Json.Bool true) -> ()
            | other ->
              Alcotest.failf "expect lines did not match: %s"
                (match other with Some o -> Json.to_string o | None -> "absent"));
            (* and the fingerprint equals a direct in-process replay *)
            let prog, _expects =
              match Prog.of_lines (String.split_on_char '\n' text) with
              | Ok p -> p
              | Error e -> Alcotest.failf "corpus file does not parse: %s" e
            in
            let direct = Job.fingerprint (Engine.detect (Prog.to_program prog)) in
            Alcotest.(check string) "wire = in-process" direct
              (jstr "fingerprint" r);
            (* the forensics report is served once the job is done *)
            let status, body = get_ok ~port ("/v1/jobs/" ^ id ^ "/report") in
            Alcotest.(check int) "report 200" 200 status;
            let rep = parse_json body in
            Alcotest.(check string) "report envelope" "xfd_report" (jstr "type" rep)));
    Tu.case "a report requested before completion answers 409" (fun () ->
        (* one worker, held on the first job until the test releases it:
           the second job is still queued when we ask for its report *)
        let config = { Serve.default_config with workers = 1; queue_cap = 8 } in
        let run, release = held_first_job () in
        with_serve ~config ~run (fun _t port ->
            let slow, queued =
              Fun.protect ~finally:release (fun () ->
                  let slow =
                    submit_ok ~port (workload_spec ~workload:"btree" ~init:2 ~test:4 ())
                  in
                  let queued =
                    submit_ok ~port (workload_spec ~workload:"btree" ~init:0 ~test:1 ())
                  in
                  let status, body = get_ok ~port ("/v1/jobs/" ^ queued ^ "/report") in
                  Alcotest.(check int) "report before completion is 409" 409 status;
                  Alcotest.(check string) "409 is a JSON error" "error"
                    (jstr "type" (parse_json body));
                  (slow, queued))
            in
            List.iter
              (fun id ->
                Alcotest.(check string) (id ^ " done") "done"
                  (jstr "state" (await_job ~port id)))
              [ slow; queued ]));
  ]

(* ---- backpressure: queue-full and quota 429s over the wire ---- *)

let backpressure_tests =
  [
    Tu.case "over-quota submissions answer 429 with Retry-After" (fun () ->
        let config =
          { Serve.default_config with quota_rate = 0.0001; quota_burst = 2 }
        in
        with_serve ~config (fun _t port ->
            let spec =
              Json.to_string (workload_spec ~workload:"btree" ~init:0 ~test:1 ())
            in
            let headers = [ ("x-client", "greedy") ] in
            let s1, _, _ = post_json ~headers ~port spec in
            let s2, _, _ = post_json ~headers ~port spec in
            Alcotest.(check (list int)) "burst accepted" [ 202; 202 ] [ s1; s2 ];
            let s3, hdrs, body = post_json ~headers ~port spec in
            Alcotest.(check int) "third is over quota" 429 s3;
            (match List.assoc_opt "retry-after" hdrs with
            | Some s ->
              Alcotest.(check bool)
                "Retry-After is a positive integer" true
                (match int_of_string_opt s with Some n -> n >= 1 | None -> false)
            | None -> Alcotest.fail "429 without Retry-After");
            Alcotest.(check string) "JSON error body" "error"
              (jstr "type" (parse_json body));
            (* an unthrottled client is unaffected *)
            let s, _, _ = post_json ~headers:[ ("x-client", "patient") ] ~port spec in
            Alcotest.(check int) "other client accepted" 202 s));
    Tu.case "parallel submitters: accounting holds, nothing lost or doubled" (fun () ->
        let config = { Serve.default_config with workers = 2; queue_cap = 4 } in
        with_serve ~config (fun _t port ->
            let spec =
              Json.to_string (workload_spec ~workload:"btree" ~init:0 ~test:1 ())
            in
            let n_threads = 6 and per_thread = 3 in
            let mu = Mutex.create () in
            let accepted = ref [] and rejected = ref 0 in
            let submitter _i () =
              for _ = 1 to per_thread do
                match Httpc.post ~headers:[] ~body:spec ~host ~port "/v1/jobs" with
                | Ok (202, _, body) ->
                  let id = jstr "id" (parse_json body) in
                  Mutex.protect mu (fun () -> accepted := id :: !accepted)
                | Ok (429, _, _) -> Mutex.protect mu (fun () -> incr rejected)
                | Ok (s, _, b) -> Alcotest.failf "unexpected status %d: %s" s b
                | Error e -> Alcotest.failf "submit failed: %s" e
              done
            in
            let threads = List.init n_threads (fun i -> Thread.create (submitter i) ()) in
            List.iter Thread.join threads;
            let accepted = !accepted in
            Alcotest.(check int) "every submission accounted for"
              (n_threads * per_thread)
              (List.length accepted + !rejected);
            Alcotest.(check int) "accepted ids are unique"
              (List.length accepted)
              (List.length (List.sort_uniq String.compare accepted));
            (* every accepted job reaches done exactly once, with a verdict *)
            List.iter
              (fun id ->
                let j = await_job ~port id in
                Alcotest.(check string) (id ^ " done") "done" (jstr "state" j);
                ignore (jstr "fingerprint" (result_of j)))
              accepted;
            (* all accepted fingerprints agree: same input, same verdict *)
            let fps =
              List.map
                (fun id -> jstr "fingerprint" (result_of (await_job ~port id)))
                accepted
            in
            Alcotest.(check int) "one distinct fingerprint" 1
              (List.length (List.sort_uniq String.compare fps))));
    Tu.case "a full queue answers 429 and keeps earlier jobs intact" (fun () ->
        let config = { Serve.default_config with workers = 1; queue_cap = 1 } in
        let run, release = held_first_job () in
        with_serve ~config ~run (fun _t port ->
            (* the first job holds the only worker until released, so the
               queue observably fills *)
            let slow =
              Json.to_string (workload_spec ~workload:"btree" ~init:2 ~test:4 ())
            in
            let quick =
              Json.to_string (workload_spec ~workload:"btree" ~init:0 ~test:1 ())
            in
            let ids = ref [] in
            let rejected = ref 0 in
            let submit body =
              match Httpc.post ~headers:[] ~body ~host ~port "/v1/jobs" with
              | Ok (202, _, resp) -> ids := jstr "id" (parse_json resp) :: !ids
              | Ok (429, hdrs, _) ->
                incr rejected;
                Alcotest.(check bool) "queue-full 429 has Retry-After" true
                  (List.assoc_opt "retry-after" hdrs <> None)
              | Ok (s, _, b) -> Alcotest.failf "unexpected status %d: %s" s b
              | Error e -> Alcotest.failf "submit failed: %s" e
            in
            Fun.protect ~finally:release (fun () ->
                submit slow;
                for _ = 1 to 8 do
                  submit quick
                done;
                Alcotest.(check bool) "at least one queue-full rejection" true (!rejected > 0);
                Alcotest.(check bool) "at least the first job accepted" true (!ids <> []));
            List.iter
              (fun id ->
                Alcotest.(check string) (id ^ " done") "done"
                  (jstr "state" (await_job ~port id)))
              !ids));
  ]

(* ---- drain: graceful shutdown completes jobs and releases PM state ---- *)

let drain_tests =
  [
    Tu.case "stop drains in-flight jobs and releases every PM byte" (fun () ->
        let image0 = Xfd_mem.Image.live_bytes () in
        let shadow0 = Xfd_mem.Shadow_pages.live_bytes () in
        let completed0 =
          Xfd_obs.Obs.Counter.value (Xfd_obs.Obs.Counter.make "serve.jobs.completed")
        in
        let config = { Serve.default_config with workers = 2; queue_cap = 16 } in
        let t = Serve.start config in
        let port = Serve.port t in
        wait_for "server ready" (fun () ->
            match Httpc.get ~host ~port "/ready" with Ok (200, _) -> true | _ -> false);
        let spec = Json.to_string (workload_spec ~workload:"btree" ~init:0 ~test:2 ()) in
        let ids =
          List.init 5 (fun _ ->
              match Httpc.post ~headers:[] ~body:spec ~host ~port "/v1/jobs" with
              | Ok (202, _, body) -> jstr "id" (parse_json body)
              | Ok (s, _, b) -> Alcotest.failf "submit: %d %s" s b
              | Error e -> Alcotest.failf "submit: %s" e)
        in
        (* stop with the default drain: blocks until every accepted job
           has completed, then the listener goes away *)
        Serve.stop t;
        Serve.stop t;
        (* idempotent *)
        (match Httpc.get ~host ~port "/ready" with
        | Error _ -> ()
        | Ok (s, _) -> Alcotest.failf "stopped service still answering (%d)" s);
        let completed1 =
          Xfd_obs.Obs.Counter.value (Xfd_obs.Obs.Counter.make "serve.jobs.completed")
        in
        Alcotest.(check bool)
          (Printf.sprintf "all %d accepted jobs completed" (List.length ids))
          true
          (completed1 - completed0 >= List.length ids);
        Alcotest.(check int) "pm chunk bytes released" image0 (Xfd_mem.Image.live_bytes ());
        Alcotest.(check int) "shadow page bytes released" shadow0
          (Xfd_mem.Shadow_pages.live_bytes ()));
    Tu.case "draining service refuses new submissions with 503" (fun () ->
        (* exercise the /ready flip through the public API: a stopped
           serve reports draining to the pool, and a fresh serve reports
           200 — the mid-drain 503 window is covered by the pool tests *)
        let config = { Serve.default_config with workers = 1; queue_cap = 4 } in
        with_serve ~config (fun _t port ->
            let status, body = get_ok ~port "/ready" in
            Alcotest.(check int) "ready while serving" 200 status;
            Alcotest.(check string) "ready body" "serving\n" body));
  ]

let suite =
  [
    ("serve.quota", quota_tests);
    ("serve.pool", pool_tests);
    ("serve.protocol", protocol_tests);
    ("serve.malformed", malformed_tests);
    ("serve.e2e", e2e_tests);
    ("serve.backpressure", backpressure_tests);
    ("serve.drain", drain_tests);
  ]

(* The always-on detection service.

   One [Httpd] server (GET/HEAD/POST allowed, bounded bodies) in front of
   a [Pool] of detection workers, a [Quota] of per-client token buckets,
   and a bounded table of [Job] records.  The protocol is deliberately
   small and fully backpressured:

     POST /v1/jobs            submit a spec        -> 202 job.accepted
                              over quota           -> 429 + Retry-After
                              queue full           -> 429 + Retry-After
                              draining             -> 503
                              bad JSON / bad spec  -> 400
     GET  /v1/jobs            list retained jobs
     GET  /v1/jobs/:id        full status (+result once done)
     GET  /v1/jobs/:id/report forensics report JSON (409 until done)
     GET  /v1/corpus          list the served .xfdprog corpus
     GET  /v1/corpus/:name    fetch one corpus program
     GET  /ready              200 "serving" / 503 "draining"
     GET  /health             service-level stats JSON
     GET  /metrics|/series|/flight|/summary   delegated to Pulse

   Every job runs through the ordinary [Engine.detect] under its own
   config, so a job's verdict fingerprint is byte-identical to an
   in-process run on the same input — the service adds transport and
   scheduling, never detection semantics.  [stop ~drain:true] flips
   /ready to 503 first (so load balancers stop sending), completes every
   accepted job, then tears the listener down: an accepted job is never
   lost. *)

module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json
module Httpd = Xfd_pulse.Httpd
module Pulse = Xfd_pulse.Pulse
module Tsdb = Xfd_pulse.Tsdb
module Corpus = Xfd_fuzz.Corpus

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read back with {!port} *)
  workers : int;
  queue_cap : int;
  quota_rate : float;  (** submissions per second per client; <= 0 disables *)
  quota_burst : int;
  corpus_dir : string option;
  max_body_bytes : int;
  retain : int;  (** finished jobs kept for status queries *)
  sample_interval : float;  (** Tsdb sampling period when we own the Tsdb *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 2;
    queue_cap = 64;
    quota_rate = 0.0;
    quota_burst = 8;
    corpus_dir = None;
    max_body_bytes = Httpd.default_max_body_bytes;
    retain = 4096;
    sample_interval = 0.5;
  }

(* ---- metrics ---- *)

let c_submitted = Obs.Counter.make "serve.jobs.submitted"
let c_completed = Obs.Counter.make "serve.jobs.completed"
let c_failed = Obs.Counter.make "serve.jobs.failed"
let c_rej_queue_full = Obs.Counter.make "serve.rejected.queue_full"
let c_rej_quota = Obs.Counter.make "serve.rejected.quota"
let c_rej_invalid = Obs.Counter.make "serve.rejected.invalid"
let g_queued = Obs.Gauge.make "serve.jobs.queued"
let g_running = Obs.Gauge.make "serve.jobs.running"

type t = {
  config : config;
  mu : Mutex.t;
  jobs : (string, Job.t) Hashtbl.t;
  order : string Queue.t;  (** submission order, for listing and retention *)
  mutable next_id : int;
  mutable draining : bool;
  mutable stopped : bool;
  mutable pool : Job.t Pool.t option;  (** set once, right after creation *)
  mutable httpd : Httpd.t option;
  quota : Quota.t;
  tsdb : Tsdb.t;
  owns_tsdb : bool;
}

let now () = Unix.gettimeofday ()

(* ---- job execution (worker side) ---- *)

let run_job t ~run job =
  Mutex.protect t.mu (fun () ->
      job.Job.state <- Job.Running;
      job.Job.started_at <- Some (now ()));
  let outcome = run job.Job.spec in
  Mutex.protect t.mu (fun () ->
      (match outcome with
      | Ok r ->
        job.Job.result <- Some r;
        job.Job.state <- Job.Done;
        Obs.Counter.incr c_completed
      | Error e ->
        job.Job.error <- Some e;
        job.Job.state <- Job.Failed;
        Obs.Counter.incr c_failed);
      job.Job.finished_at <- Some (now ()))

let set_gauges t =
  match t.pool with
  | None -> ()
  | Some pool ->
    let queued, running, _ = Pool.stats pool in
    Obs.Gauge.set g_queued (float_of_int queued);
    Obs.Gauge.set g_running (float_of_int running)

(* Drop the oldest *finished* jobs once the table exceeds [retain];
   queued and running jobs are never evicted, so a submitted id stays
   queryable at least until it finishes. *)
let trim t =
  let finished id =
    match Hashtbl.find_opt t.jobs id with
    | Some j -> j.Job.state = Job.Done || j.Job.state = Job.Failed
    | None -> true
  in
  let rec go () =
    if Queue.length t.order > t.config.retain && finished (Queue.peek t.order)
    then begin
      Hashtbl.remove t.jobs (Queue.pop t.order);
      go ()
    end
  in
  if not (Queue.is_empty t.order) then go ()

(* ---- responses ---- *)

let json ?(headers = []) status j =
  Httpd.response ~content_type:"application/json" ~headers status (Json.to_string j ^ "\n")

let error_json ?headers status msg =
  json ?headers status (Json.Obj [ ("type", Json.Str "error"); ("error", Json.Str msg) ])

let method_not_allowed allow =
  error_json ~headers:[ ("Allow", allow) ] 405 "method not allowed"

let retry_after seconds =
  [ ("Retry-After", string_of_int (max 1 (int_of_float (Float.ceil seconds)))) ]

(* ---- routes ---- *)

let client_of req =
  match Httpd.header req "x-client" with
  | Some c when c <> "" -> c
  | _ -> (
    match List.assoc_opt "client" req.Httpd.query with
    | Some c when c <> "" -> c
    | _ -> "anon")

let submit t req =
  if Mutex.protect t.mu (fun () -> t.draining) then error_json 503 "draining"
  else
    let client = client_of req in
    match Quota.try_take t.quota ~client ~now:(now ()) with
    | `Retry_after s ->
      Obs.Counter.incr c_rej_quota;
      error_json ~headers:(retry_after s) 429 "client over submission quota"
    | `Ok -> (
      match Json.of_string req.Httpd.body with
      | Error e ->
        Obs.Counter.incr c_rej_invalid;
        error_json 400 (Printf.sprintf "bad JSON: %s" e)
      | Ok body -> (
        match Job.spec_of_json body with
        | Error e ->
          Obs.Counter.incr c_rej_invalid;
          error_json 400 e
        | Ok spec -> (
          let pool = Option.get t.pool in
          let job =
            Mutex.protect t.mu (fun () ->
                t.next_id <- t.next_id + 1;
                Job.make
                  ~id:(Printf.sprintf "j%d" t.next_id)
                  ~client ~spec ~now:(now ()))
          in
          match Pool.submit pool job with
          | `Queue_full ->
            Obs.Counter.incr c_rej_queue_full;
            error_json ~headers:(retry_after 1.0) 429 "job queue full"
          | `Draining -> error_json 503 "draining"
          | `Accepted ->
            Mutex.protect t.mu (fun () ->
                Hashtbl.replace t.jobs job.Job.id job;
                Queue.push job.Job.id t.order;
                trim t);
            Obs.Counter.incr c_submitted;
            set_gauges t;
            json 202
              (Json.Obj
                 [
                   ("type", Json.Str "job.accepted");
                   ("id", Json.Str job.Job.id);
                   ("state", Json.Str (Job.state_to_string job.Job.state));
                   ("status_url", Json.Str ("/v1/jobs/" ^ job.Job.id));
                 ]))))

let job_list t =
  let jobs =
    Mutex.protect t.mu (fun () ->
        Queue.fold
          (fun acc id ->
            match Hashtbl.find_opt t.jobs id with
            | Some j -> Job.summary_json j :: acc
            | None -> acc)
          [] t.order
        |> List.rev)
  in
  json 200 (Json.Obj [ ("type", Json.Str "job.list"); ("jobs", Json.Arr jobs) ])

let job_status t id =
  match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.jobs id) with
  | None -> error_json 404 (Printf.sprintf "unknown job %S" id)
  | Some job -> json 200 (Mutex.protect t.mu (fun () -> Job.status_json job))

let job_report t id =
  match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.jobs id) with
  | None -> error_json 404 (Printf.sprintf "unknown job %S" id)
  | Some job -> (
    match Mutex.protect t.mu (fun () -> (job.Job.state, Job.report_json job)) with
    | _, Some report -> json 200 report
    | Job.Failed, None ->
      error_json 409
        (Printf.sprintf "job %s failed: %s" id
           (Option.value job.Job.error ~default:"unknown error"))
    | _, None -> error_json 409 (Printf.sprintf "job %s is not done yet" id))

let corpus_name_ok name =
  name <> "" && name <> ".." && Filename.extension name = ".xfdprog"
  && not (String.exists (fun c -> c = '/' || c = '\\') name)

let corpus_list t =
  match t.config.corpus_dir with
  | None -> error_json 404 "no corpus configured"
  | Some dir ->
    let files = Corpus.files ~dir |> List.map Filename.basename in
    json 200
      (Json.Obj
         [
           ("type", Json.Str "corpus");
           ("dir", Json.Str dir);
           ("files", Json.Arr (List.map (fun f -> Json.Str f) files));
         ])

let corpus_fetch t name =
  match t.config.corpus_dir with
  | None -> error_json 404 "no corpus configured"
  | Some dir ->
    if not (corpus_name_ok name) then
      error_json 400 (Printf.sprintf "bad corpus name %S (want <name>.xfdprog)" name)
    else
      let path = Filename.concat dir name in
      if not (Sys.file_exists path) then
        error_json 404 (Printf.sprintf "no corpus file %S" name)
      else begin
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let body = really_input_string ic len in
        close_in ic;
        Httpd.text 200 body
      end

let health t =
  let queued, running, completed =
    match t.pool with Some p -> Pool.stats p | None -> (0, 0, 0)
  in
  let draining = Mutex.protect t.mu (fun () -> t.draining) in
  json 200
    (Json.Obj
       [
         ("type", Json.Str "serve.health");
         ("state", Json.Str (if draining then "draining" else "serving"));
         ("workers", Json.Int t.config.workers);
         ("queue_cap", Json.Int t.config.queue_cap);
         ("queued", Json.Int queued);
         ("running", Json.Int running);
         ("completed", Json.Int completed);
         ("retained", Json.Int (Mutex.protect t.mu (fun () -> Hashtbl.length t.jobs)));
         ("quota_clients", Json.Int (Quota.clients t.quota));
       ])

let ready t =
  if Mutex.protect t.mu (fun () -> t.draining) then Httpd.text 503 "draining\n"
  else Httpd.text 200 "serving\n"

let index =
  Httpd.text 200
    (String.concat "\n"
       [
         "xfd detection service";
         "  POST /v1/jobs            submit a detection job";
         "  GET  /v1/jobs            list jobs";
         "  GET  /v1/jobs/:id        job status";
         "  GET  /v1/jobs/:id/report forensics report";
         "  GET  /v1/corpus          list corpus programs";
         "  GET  /v1/corpus/:name    fetch one corpus program";
         "  GET  /ready /health /metrics /series /flight /summary";
         "";
       ])

let handle t (req : Httpd.request) =
  set_gauges t;
  let segments =
    String.split_on_char '/' req.Httpd.path |> List.filter (fun s -> s <> "")
  in
  let get = req.Httpd.meth = "GET" || req.Httpd.meth = "HEAD" in
  match segments with
  | [] -> if get then index else method_not_allowed "GET, HEAD"
  | [ "v1"; "jobs" ] ->
    if req.Httpd.meth = "POST" then submit t req
    else if get then job_list t
    else method_not_allowed "GET, HEAD, POST"
  | [ "v1"; "jobs"; id ] ->
    if get then job_status t id else method_not_allowed "GET, HEAD"
  | [ "v1"; "jobs"; id; "report" ] ->
    if get then job_report t id else method_not_allowed "GET, HEAD"
  | [ "v1"; "corpus" ] ->
    if get then corpus_list t else method_not_allowed "GET, HEAD"
  | [ "v1"; "corpus"; name ] ->
    if get then corpus_fetch t name else method_not_allowed "GET, HEAD"
  | [ "ready" ] -> if get then ready t else method_not_allowed "GET, HEAD"
  | [ "health" ] -> if get then health t else method_not_allowed "GET, HEAD"
  | [ ("metrics" | "series" | "flight" | "summary") ] ->
    if get then Pulse.handler t.tsdb req else method_not_allowed "GET, HEAD"
  | _ -> Httpd.not_found

(* ---- lifecycle ---- *)

let start ?tsdb ?(run = Job.run) config =
  if config.workers <= 0 then invalid_arg "Serve.start: workers must be positive";
  if config.queue_cap <= 0 then invalid_arg "Serve.start: queue_cap must be positive";
  if config.retain <= 0 then invalid_arg "Serve.start: retain must be positive";
  let owns_tsdb = tsdb = None in
  let tsdb =
    match tsdb with
    | Some db -> db
    | None ->
      let db = Tsdb.create () in
      Tsdb.start db ~interval:config.sample_interval;
      db
  in
  let t =
    {
      config;
      mu = Mutex.create ();
      jobs = Hashtbl.create 64;
      order = Queue.create ();
      next_id = 0;
      draining = false;
      stopped = false;
      pool = None;
      httpd = None;
      quota = Quota.create ~rate:config.quota_rate ~burst:config.quota_burst;
      tsdb;
      owns_tsdb;
    }
  in
  t.pool <-
    Some (Pool.create ~workers:config.workers ~queue_cap:config.queue_cap (run_job t ~run));
  t.httpd <-
    Some
      (Httpd.start ~host:config.host
         ~allowed_methods:[ "GET"; "HEAD"; "POST" ]
         ~max_body_bytes:config.max_body_bytes ~port:config.port (handle t));
  t

let port t = match t.httpd with Some h -> Httpd.port h | None -> 0

let stop ?(drain = true) t =
  let already = Mutex.protect t.mu (fun () ->
      if t.stopped then true
      else begin
        t.draining <- true;
        false
      end)
  in
  if not already then begin
    (* The listener stays up through the drain so clients can poll their
       jobs to completion; /ready already answers 503. *)
    let discarded = match t.pool with Some p -> Pool.stop ~drain p | None -> [] in
    Mutex.protect t.mu (fun () ->
        List.iter
          (fun (job : Job.t) ->
            job.Job.state <- Job.Failed;
            job.Job.error <- Some "cancelled: server stopped before the job ran";
            job.Job.finished_at <- Some (now ()))
          discarded;
        t.stopped <- true);
    (match t.httpd with Some h -> Httpd.stop h | None -> ());
    if t.owns_tsdb then Tsdb.stop t.tsdb
  end

(** The always-on detection service.

    An {!Xfd_pulse.Httpd} listener in front of a {!Pool} of detection
    workers, {!Quota} token buckets and a bounded table of {!Job}
    records.  Routes:

    - [POST /v1/jobs] — submit a job spec ({!Job.spec_of_json});
      202 with an id, 429 + [Retry-After] over quota or when the queue
      is full, 503 while draining, 400 on a bad body;
    - [GET /v1/jobs] — list retained jobs;
    - [GET /v1/jobs/:id] — full status, with result once done;
    - [GET /v1/jobs/:id/report] — forensics report (409 until done);
    - [GET /v1/corpus], [GET /v1/corpus/:name] — the served [.xfdprog]
      corpus, when one is configured;
    - [GET /ready] — 200 "serving" / 503 "draining" (poll this after
      boot: the port is ephemeral-friendly and there is no sleep-based
      startup protocol);
    - [GET /health] — service-level stats;
    - [/metrics /series /flight /summary] — delegated to {!Xfd_pulse.Pulse}.

    Jobs run through the ordinary [Engine.detect] under their own config,
    so a job's verdict fingerprint is byte-identical to an in-process run
    on the same input.  {!stop}[ ~drain:true] completes every accepted
    job before the listener goes away: an accepted job is never lost. *)

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

(** 127.0.0.1, ephemeral port, 2 workers, queue 64, quota disabled,
    no corpus, 1 MiB bodies, 4096 retained jobs. *)
val default_config : config

type t

(** Boot the service: worker pool, then listener.  Pass [?tsdb] to serve
    an existing recorder (the CLI's); otherwise one is created, sampled
    at [sample_interval] and stopped with the service.  Raises
    [Invalid_argument] on non-positive workers/queue_cap/retain and
    [Unix.Unix_error] if the bind fails.  [?run] replaces {!Job.run} as
    the job runner; it exists so tests can hold a worker busy for exactly
    as long as they need. *)
val start :
  ?tsdb:Xfd_pulse.Tsdb.t ->
  ?run:(Job.spec -> (Job.outcome_summary, string) result) ->
  config ->
  t

(** The bound port (useful with [port = 0]). *)
val port : t -> int

(** Stop.  With [~drain:true] (default) /ready flips to 503 first, every
    accepted job runs to completion while the listener stays up for
    status polls, then the listener and workers go away.  With
    [~drain:false] unstarted jobs are marked failed ("cancelled").
    Idempotent. *)
val stop : ?drain:bool -> t -> unit

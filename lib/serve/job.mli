(** Detection jobs: the unit of work behind [POST /v1/jobs].

    A {!spec} is parsed from the submission JSON (a named evaluation
    workload with sizes and an optional seeded-bug patch, or an inline
    [.xfdprog] program), {!run} executes it through {!Xfd.Engine.detect}
    under the requested engine, and {!fingerprint} digests everything
    detection found into the service's verdict-equivalence token: a job's
    fingerprint must be byte-identical to an in-process run on the same
    input, whichever engine was used. *)

module Json = Xfd_util.Json

(** Parse a seeded-bug patch spec ("skip-tx-add=0,2;dup-flush=1") into a
    fault plan.  This is the service- and CLI-shared parser; [xfd_cli
    run --patch] delegates here. *)
val faults_of_spec : string -> (Xfd_sim.Faults.t, string) result

type kind =
  | Workload of { workload : string; init : int; test : int; patch : string option }
  | Xfdprog of { text : string; prog : Xfd_fuzz.Prog.t; expects : string list }

type spec = {
  kind : kind;
  engine : [ `Incremental | `Fresh ];
  forensics : bool;
}

val engine_to_string : [ `Incremental | `Fresh ] -> string

(** Short human label ("workload:btree" / "xfdprog"). *)
val label : spec -> string

(** Parse and validate a submission body.  Unknown workloads, malformed
    patches, out-of-range sizes and invalid [.xfdprog] text are all
    rejected here, before a job is accepted. *)
val spec_of_json : Json.t -> (spec, string) result

val spec_to_json : spec -> Json.t

(** The canonical text the fingerprint digests: program name, failure
    points, event counts, per-failure-point verdict keys in replay order
    and the sorted unique bug keys — nothing nondeterministic. *)
val fingerprint_text : Xfd.Engine.outcome -> string

(** ["xfp1-" ^ hex digest] of {!fingerprint_text}. *)
val fingerprint : Xfd.Engine.outcome -> string

type outcome_summary = {
  fingerprint : string;
  failure_points : int;
  pre_events : int;
  post_events : int;
  bug_keys : string list;  (** sorted unique dedup keys *)
  races : int;
  semantic : int;
  perf : int;
  errors : int;
  expect_match : bool option;
      (** for xfdprog jobs carrying [expect] lines: did the verdict keys
          match the recorded ones? *)
  report : Json.t;  (** full outcome JSON, served by /v1/jobs/:id/report *)
}

(** Run one spec to completion.  Never raises: every exception a job
    throws (including the engine's deliberately fatal ones, which have
    already released their PM resources) is returned as [Error]. *)
val run : spec -> (outcome_summary, string) result

type state = Queued | Running | Done | Failed

val state_to_string : state -> string

type t = {
  id : string;
  client : string;
  spec : spec;
  submitted_at : float;
  mutable state : state;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable result : outcome_summary option;
  mutable error : string option;
}

val make : id:string -> client:string -> spec:spec -> now:float -> t

(** One-line entry for [GET /v1/jobs]. *)
val summary_json : t -> Json.t

(** Full status for [GET /v1/jobs/:id]. *)
val status_json : t -> Json.t

(** Forensics report for [GET /v1/jobs/:id/report]; [None] until the
    job is [Done]. *)
val report_json : t -> Json.t option

(** End-to-end detection: the paper's Figure 7 pipeline.

    [detect] runs the pre-failure program once under tracing, snapshotting
    the device at every failure point the context fires (before each
    ordering point inside the RoI, eliding points with no PM update since
    the previous one — section 5.4 optimisation 2).  Then, one failure
    point at a time in trace order, it boots a copy of the snapshot's PM
    image, runs the post-failure program on it under tracing, replays both
    traces through the backend and records the verdict before moving on to
    the next point — so at most one post-failure trace is live.  Results
    carry the
    per-failure-point reports, the deduplicated bug list and the timing
    breakdown used by the Figure 12/13 experiments. *)

module Ctx = Xfd_sim.Ctx

(** A program under test: [setup] initialises the pool (outside the RoI),
    [pre] is the pre-failure stage (it brackets itself with RoI
    annotations), [post] is the recovery-and-resumption stage run after
    every injected failure. *)
type program = {
  name : string;
  setup : Ctx.t -> unit;
  pre : Ctx.t -> unit;
  post : Ctx.t -> unit;
}

(** Live progress through the post-failure stage: [completed] of [total]
    failure points judged so far.  Reported once with [completed = 0] when
    the stage starts, then after every failure point's verdict. *)
type progress = { completed : int; total : int }

type timings = {
  pre_exec : float;  (** pre-failure execution + tracing *)
  post_exec : float;  (** all post-failure executions + tracing, including
                          crash-image materialisation and boot *)
  pre_replay : float;  (** backend replay of the pre-failure trace *)
  post_replay : float;  (** backend replay of all post-failure traces *)
  snapshotting : float;  (** PM-image copies at failure points *)
}

type outcome = {
  program : string;
  failure_points : int;
  reports : Report.failure_report list;
  unique_bugs : Report.bug list;  (** deduplicated across failure points *)
  pre_events : int;
  post_events : int;  (** total over all post-failure runs *)
  timings : timings;  (** derived from [spans] via {!timings_of_spans} *)
  spans : Xfd_obs.Obs.Span.record list;
      (** this run's span tree: a root ["detect"] span with ["pre_exec"],
          ["pre_exec"] phase (with ["snapshot"] children), then one
          ["post_exec"], ["pre_replay"] and ["post_replay"] span per
          failure point, each carrying a [failure_point] meta field, and a
          final ["pre_replay"] over the rest of the pre-failure trace *)
  coverage : Xfd_forensics.Coverage.t;
      (** what this run exercised: failure points fired vs elided, RoI
          ordering points, bytes read-checked vs bytes written, per-class
          bug counts — counter deltas over the run *)
}

(** Exceptions escaping the post-failure program are recorded as
    [Post_failure_error] findings — except fatal runtime conditions
    ([Assert_failure], [Out_of_memory], [Stack_overflow]), which indicate a
    broken harness rather than a PM bug: those abort detection before any
    later failure point starts, release every device, snapshot delta and
    shadow page the run still holds, and re-raise the original
    exception. *)
val detect : ?config:Config.t -> ?on_progress:(progress -> unit) -> program -> outcome

(** When [on_progress] is given, it is invoked with live {!progress}
    counts as failure points are judged, in order and on the caller's
    domain.  Observation-only and verdict-neutral: the callback sees
    counts, never detection state, and anything it raises is
    swallowed. *)

(** [detect_at ~failure_point program] is the single-failure-point oracle
    entry: the pipeline runs exactly as {!detect} — failure points are
    numbered, elided and capped identically — but only the point with the
    given ordinal is snapshotted and post-executed, so the outcome carries
    at most one failure report (none when the ordinal is out of range).
    The fuzzer's shrinker and corpus replay use this to re-check one
    verdict without paying for the full sweep. *)
val detect_at : ?config:Config.t -> failure_point:int -> program -> outcome

(** Aggregate a span tree into the Figure 12 timing struct: phase totals
    by span name, with snapshot time carved out of [pre_exec].  [detect]
    builds [outcome.timings] with exactly this function, so the legacy
    struct cannot drift from the span tree. *)
val timings_of_spans : Xfd_obs.Obs.Span.record list -> timings

(** Aggregate wall-clock attributed to the pre-failure stage (execution +
    replay + snapshotting) and the post-failure stage, as broken down in the
    paper's Figure 12a. *)
val wall_breakdown : outcome -> float * float

val total_wall : outcome -> float

(** Count bugs by class: races, semantic, performance, post-failure
    errors. *)
val tally : outcome -> int * int * int * int

(** Run the program once (pre then post, no failure injection) with tracing
    but no detection — the paper's "Pure Pin" baseline.  Returns wall time. *)
val run_traced : program -> float

(** Run the program once with tracing disabled — the original program.
    Returns wall time. *)
val run_original : program -> float

val pp_outcome : Format.formatter -> outcome -> unit

(** JSON form of a whole outcome (per-failure-point reports, unique bugs,
    statistics), for machine consumption. *)
val outcome_to_json : outcome -> Xfd_util.Json.t

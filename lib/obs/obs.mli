(** Observability for the detection pipeline: metrics, spans and sinks.

    The paper's evaluation (Figures 12-13) is entirely about where the
    detector spends its time and events — pre- vs post-failure execution,
    replay, snapshotting.  This module gives every layer of the
    reproduction a process-global place to record that:

    - {b metrics} — named monotonic {!Counter}s, {!Gauge}s and log-scale
      {!Histogram}s, registered once by name and safe to update from any
      thread or domain (the detection service runs jobs concurrently);
    - {b spans} — nestable timed spans ({!Span.with_}) whose per-phase
      aggregation reproduces the Figure 12 wall-clock breakdown, replacing
      the engine's historical hand-rolled timing accumulation;
    - {b sinks} — JSONL streams ({!Sink}) that receive one record per
      finished span plus an end-of-run summary record.

    Metric updates honour a global enabled flag ({!set_enabled}): when
    disabled, every update is a load-and-branch no-op, so instrumented hot
    paths cost almost nothing.  Spans always measure time (two clock reads
    per span) because the engine derives its [timings] struct from them,
    but they are only streamed to sinks when a sink is installed. *)

(** {1 Global switch} *)

(** Whether metric updates are recorded (default: [true]). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Zero every registered counter, gauge and histogram; drop finished
    spans and span aggregates.  Registered metric handles stay valid. *)
val reset : unit -> unit

(** {1 Metrics}

    [make name] registers a metric under [name] the first time it is
    called and returns the same instance on every later call, so modules
    can declare their metrics at toplevel.  Registering the same name as
    two different metric kinds raises [Invalid_argument].  Names are
    dotted paths, e.g. ["pm.flushes"] or ["bugs.race"]. *)

module Counter : sig
  type t

  val make : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val name : t -> string
  val set : t -> float -> unit
  val value : t -> float
end

(** Log-scale (base-2) histograms of non-negative integer samples: bucket
    0 holds samples [= 0], bucket [i >= 1] holds samples in
    [[2^(i-1), 2^i - 1]].  Negative samples are rejected whole — nothing
    is recorded, and the drop is counted in the ["obs.observe_dropped"]
    counter — so [count]/[sum]/[max]/buckets always describe the same
    sample set. *)
module Histogram : sig
  type t

  val make : string -> t
  val name : t -> string
  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val max_value : t -> int

  (** [quantile t q] estimates the [q]-quantile ([q] clamped to [0,1]) by
      finding the bucket holding the target rank and interpolating
      linearly inside its value range, clamped to {!max_value} so the
      estimate never exceeds a real sample.  Empty histograms estimate 0.
      Resolution is the bucket width (a factor of 2), which is exactly
      the precision the log-scale buckets retain. *)
  val quantile : t -> float -> int

  (** [(q, quantile t q)] for the conventional p50/p95/p99. *)
  val quantiles : t -> (float * int) list

  (** Non-empty buckets as [(inclusive upper bound, count)], ascending. *)
  val buckets : t -> (int * int) list
end

(** Look up a registered metric's current value by name — handy for tests
    and CLI summaries that do not hold the handle. *)
val counter_value : string -> int option

val gauge_value : string -> float option

(** Every registered metric, sorted by name within each kind:
    [(counters, gauges, histograms)].  Counter and gauge values are read
    at call time; histogram handles are live (read them promptly).  This
    is the feed for pollers — the pulse layer's time-series sampler and
    OpenMetrics encoder. *)
val metrics_snapshot :
  unit -> (string * int) list * (string * float) list * (string * Histogram.t) list

(** {1 Spans} *)

module Span : sig
  (** A finished span.  [start] is an absolute Unix timestamp in seconds,
      [dur] the wall-clock duration.  [parent] is the id of the enclosing
      span on the same domain, if any: spans started on another domain
      are roots of their own subtree.  [tid] is the integer id of the
      domain the span ran on — the track key for trace export, one track
      per domain. *)
  type record = {
    id : int;
    parent : int option;
    name : string;
    tid : int;
    start : float;
    dur : float;
    meta : (string * Xfd_util.Json.t) list;
  }

  (** [with_ ~name f] times [f ()] as a span named [name].  Nesting is
      tracked per domain; the span is recorded (and streamed to any
      installed sink) when [f] returns or raises. *)
  val with_ : ?meta:(string * Xfd_util.Json.t) list -> name:string -> (unit -> 'a) -> 'a

  (** A position in the finished-span buffer, for scoped collection. *)
  type mark

  val mark : unit -> mark

  (** A mark preceding every span: draining from it empties the buffer. *)
  val genesis : mark

  (** All spans finished since [mark] that the bounded buffer retained, in
      completion order, removed from the buffer (spans finished before the
      mark are untouched).  The engine uses this to attach exactly its own
      span tree to an outcome while keeping the process-global buffer
      bounded. *)
  val records_since : mark -> record list

  (** Alias of {!records_since}: drain the spans finished since [mark]. *)
  val drain_spans : mark -> record list

  (** The finished-span buffer is a bounded ring (default 65536 records):
      beyond the capacity the oldest records are dropped and counted in
      the ["obs.spans_dropped"] counter, so unbounded span production
      (long fuzz sweeps) cannot leak memory.  [set_capacity] reallocates
      the ring, keeping the newest records. *)
  val capacity : unit -> int

  val set_capacity : int -> unit

  (** Aggregate a span list by name: [(name, (count, total seconds))]. *)
  val aggregate : record list -> (string * (int * float)) list

  (** Process-lifetime aggregate over every finished span (survives
      {!records_since} truncation), sorted by name. *)
  val aggregate_all : unit -> (string * (int * float)) list

  val record_to_json : record -> Xfd_util.Json.t
end

(** {1 Sinks} *)

module Sink : sig
  type t

  (** A sink writing one compact JSON value per line to a channel.  The
      channel is flushed, not closed, on {!uninstall}. *)
  val to_channel : out_channel -> t

  (** Like {!to_channel} for a freshly created file; {!uninstall} closes
      it. *)
  val to_file : string -> t

  (** A sink around arbitrary callbacks — e.g. an in-memory collector.
      [write] calls are serialized by the dispatch lock. *)
  val of_fn : write:(Xfd_util.Json.t -> unit) -> close:(unit -> unit) -> t

  (** Install globally.  Multiple sinks receive every record. *)
  val install : t -> unit

  (** Remove (and flush/close) one sink; unknown sinks are ignored. *)
  val uninstall : t -> unit

  (** Send one record to every installed sink. *)
  val emit : Xfd_util.Json.t -> unit

  (** Is at least one sink installed? *)
  val active : unit -> bool
end

(** {1 Summaries} *)

(** One record describing the current state of every registered metric
    plus the process-lifetime span aggregates:
    [{"type":"summary","counters":{..},"gauges":{..},
      "histograms":{name:{"count","sum","max","p50","p95","p99",
                          "buckets":[{"le","count"}..]}},
      "spans":{name:{"count","total_s"}}}]. *)
val summary_json : unit -> Xfd_util.Json.t

(** Emit {!summary_json} to the installed sinks. *)
val write_summary : unit -> unit

(** Human-readable dump of the same data (non-zero metrics only). *)
val pp_summary : Format.formatter -> unit -> unit

(** Detection configuration. *)

type t = {
  strategy : Xfd_sim.Ctx.strategy;
      (** where failure points go: before ordering points (the paper), or
          after every PM update (the naive ablation baseline) *)
  trust_library : bool;
      (** wrap PM-library internals in skip regions (paper default) *)
  max_failure_points : int;  (** safety cap on injected failure points *)
  inject_terminal_fp : bool;
      (** also test the state after the pre-failure stage completed *)
  faults : Xfd_sim.Faults.t;  (** seeded bugs for validation runs *)
  check_perf : bool;  (** report performance bugs *)
  crash_mode : [ `Full | `Strict ];
      (** PM image handed to the post-failure stage: [`Full] copies every
          architectural byte (the paper's footnote 3; the shadow PM decides
          what was persisted), [`Strict] drops non-persisted bytes (useful
          for cross-validation in tests) *)
  forensics : bool;
      (** record per-byte provenance history during replay and attach a
          provenance chain plus trace-timeline excerpts to every reported
          bug; off by default — the history ring costs a little memory and
          time per tracked byte *)
  engine : [ `Incremental | `Fresh ];
      (** pre-failure replay scheduling.  [`Incremental] (the default)
          advances one canonical shadow state across failure points and
          journals each post-failure divergence — O(delta) per point.
          [`Fresh] rebuilds the shadow from event 0 at every failure point:
          quadratic, but trivially correct, kept as the oracle the
          equivalence tests and [xfd_cli run --oracle] compare against *)
  domain : Xfd_trace.Domain_model.t;
      (** persistence-domain model the shadow FSM interprets events under.
          [Adr] (the default) is the paper's flush+fence contract and is
          byte-identical to the pre-parametric detector; [Eadr] makes
          stores durable at store; [Cxl_gpf] makes flushes durable on
          arrival and honours the GPF barrier event *)
}

val default : t

(** Reject configurations the engine cannot honour meaningfully.  Raises
    [Invalid_argument] when [max_failure_points <= 0] (which would silently
    elide every failure point and report nothing).
    {!Xfd.Engine.detect} validates its configuration on entry. *)
val validate : t -> unit

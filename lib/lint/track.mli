(** Shared per-byte bookkeeping of the static analyses.

    One pass over a trace, driving a base {!Xfd.Shadow_pm} with the same
    [write_byte]/[flush_line]/[fence]/[gpf] calls the dynamic detector
    makes, so the lint, the PMTest baseline and the detector run one
    persistence machine.  On top of it the tracker keeps only what the
    shadow does not: the instruction that captured each writeback-pending
    byte, and transaction and detection-framing context (RoI, skip
    regions, TX depth and logged ranges, fence-epoch counter).  The rules
    that {!Xfd_baselines.Pmtest} and {!Lint} have in common — unlogged
    writes inside a transaction, redundant writebacks, duplicated TX_ADDs
    — fire here, through the [on_hit] callback, so the baseline and the
    linter cannot drift apart: both consume the same transitions.

    Semantics are byte-granular with line-granular flushes, exactly as the
    dynamic detector models them: a flush captures every dirty byte of its
    64-byte line; a fence orders every captured byte in the program and
    opens a new epoch.  Hits fire only while {!checking} (inside the RoI
    and outside skip regions), matching both consumers' reporting scope. *)

(** The rules shared between the PMTest baseline and the linter. *)
type hit =
  | Tx_unlogged_write of { loc : Xfd_util.Loc.t; addr : Xfd_mem.Addr.t; size : int }
      (** store inside a transaction to a range never TX_ADDed *)
  | Redundant_flush of {
      loc : Xfd_util.Loc.t;
      line : Xfd_mem.Addr.t;
      already : [ `Pending | `Persisted ];
    }
      (** flush of a line with no dirty byte: [`Pending] when the line is
          captured and awaiting a fence (PMTest's "redundant writeback"),
          [`Persisted] when it is already durable *)
  | Duplicate_tx_add of { loc : Xfd_util.Loc.t; addr : Xfd_mem.Addr.t; size : int }
      (** TX_ADD overlapping a range already logged in this transaction
          (TX_XADD registrations never fire this, by design) *)

(** What the tracker knows about one written byte. *)
type info = {
  state : Abs.t;  (** [Dirty], [Pending] or [Persisted]; never [Bot]/[Top] *)
  writer : Xfd_util.Loc.t;  (** location of the last store *)
  flush : Xfd_util.Loc.t option;
      (** when [Pending], the flush that captured the byte (for a
          non-temporal store, the store itself); [None] otherwise *)
}

type t

(** [domain] selects the persistence-domain model of the shadow (default
    [Adr], the paper's semantics).  Under [Eadr] stores are durable at
    store so every flush of written data fires [Redundant_flush
    `Persisted]; under [Cxl_gpf] a flush is durable on arrival, fences are
    ordering-only, and the GPF barrier event persists every outstanding
    byte. *)
val create : ?domain:Xfd_trace.Domain_model.t -> ?on_hit:(hit -> unit) -> unit -> t

(** Return the tracker's shadow pages to the global
    [shadow.page_bytes_live] accounting.  Idempotent; call when the
    analysis is done with the tracker. *)
val release : t -> unit

(** Feed one trace event through the state machine (and fire hits). *)
val feed : t -> Xfd_trace.Event.t -> unit

(** Inside the RoI and outside every skip region — the scope in which
    shared rules report. *)
val checking : t -> bool

(** Fence epochs elapsed (a fence closes the current epoch). *)
val epoch : t -> int

val in_tx : t -> bool

(** Events fed so far. *)
val events : t -> int

(** Whether the byte is [Dirty] or [Pending]; allocates nothing. *)
val outstanding : t -> Xfd_mem.Addr.t -> bool

val info : t -> Xfd_mem.Addr.t -> info option

(** Bytes whose updates never reached PM: every byte still [Dirty] or
    [Pending], in decreasing address order.  PMTest's end-of-execution
    rule and the linter's unflushed/unfenced rules are both projections of
    this. *)
val unpersisted : t -> (Xfd_mem.Addr.t * info) list

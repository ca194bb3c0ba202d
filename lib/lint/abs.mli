(** Abstract persistence state: the lint lattice over the paper's Figure 9
    FSM.

    The concrete per-byte machine (see {!Xfd.Pstate}) moves
    modified → writeback-pending → persisted.  The lattice is flat: [Bot]
    (never written on this path), the three FSM states, and [Top] (states
    disagree across joined paths).  Straight-line traces never produce
    [Top]; it exists so joins (of a line's bytes, or of future merged
    paths) stay well defined.  The linter's tracker runs the concrete
    machine ({!Xfd.Shadow_pm}) and reports its states through
    {!of_pstate}. *)

type t = Bot | Dirty | Pending | Persisted | Top

(** Least upper bound of the flat lattice ([Bot] identity, [Top]
    absorbing, distinct middle elements join to [Top]). *)
val join : t -> t -> t

(** Partial order: [Bot] below everything, [Top] above everything, the
    middle elements pairwise incomparable. *)
val leq : t -> t -> bool

val equal : t -> t -> bool

(** The concrete FSM's states as lattice points: [Unmodified] is [Bot],
    [Modified] is [Dirty], [Writeback_pending] is [Pending]. *)
val of_pstate : Xfd.Pstate.t -> t

(** Transfer functions, per byte: {!Xfd.Pstate}'s table lifted, so the
    concrete and abstract machines cannot disagree.  On [Bot] and the
    middle elements each is the concrete transfer; on [Top] it is the
    concrete function's single image when that is constant (a store) and
    [Top] otherwise.  Stores are therefore strong updates, while flush,
    fence and GPF are weak and preserve [Top].  [on_*_in m] interprets the
    event under domain model [m] (see {!Xfd.Pstate.on_write_in}); the
    un-suffixed functions are the [Adr] ones.  All are monotone with
    respect to {!leq}. *)

val on_write_in : Xfd_trace.Domain_model.t -> t -> t
val on_nt_write_in : Xfd_trace.Domain_model.t -> t -> t
val on_flush_in : Xfd_trace.Domain_model.t -> t -> t
val on_fence_in : Xfd_trace.Domain_model.t -> t -> t
val on_gpf_in : Xfd_trace.Domain_model.t -> t -> t
val on_write : t -> t
val on_nt_write : t -> t
val on_flush : t -> t
val on_fence : t -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit

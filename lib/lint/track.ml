module Event = Xfd_trace.Event
module Addr = Xfd_mem.Addr
module Loc = Xfd_util.Loc
module Cold = Xfd_mem.Cold_pages
module Shadow = Xfd.Shadow_pm
module Pstate = Xfd.Pstate

type hit =
  | Tx_unlogged_write of { loc : Loc.t; addr : Addr.t; size : int }
  | Redundant_flush of {
      loc : Loc.t;
      line : Addr.t;
      already : [ `Pending | `Persisted ];
    }
  | Duplicate_tx_add of { loc : Loc.t; addr : Addr.t; size : int }

type info = { state : Abs.t; writer : Loc.t; flush : Loc.t option }

(* Persistence lives in a base {!Xfd.Shadow_pm}, driven by the same calls
   the detector makes.  The tracker adds only what the shadow does not
   keep: which instruction captured each writeback-pending byte (a flush,
   or the non-temporal store itself), read back only while the byte is
   still pending, plus the TX/RoI/skip context. *)
type t = {
  shadow : Shadow.t;
  captured : Loc.t array Cold.t;
  capture_loc : Loc.t ref; (* the flush [on_capture] is recording *)
  on_capture : Addr.t -> unit;
  mutable epoch : int;
  mutable in_roi : bool;
  mutable skip_depth : int;
  mutable tx_depth : int;
  mutable tx_ranges : (Addr.t * int) list;
  mutable events : int;
  on_hit : hit -> unit;
}

let create ?(domain = Xfd_trace.Domain_model.Adr) ?(on_hit = fun _ -> ()) () =
  let captured = Cold.create (fun n -> Array.make n Loc.unknown) in
  let capture_loc = ref Loc.unknown in
  {
    shadow = Shadow.create ~domain ();
    captured;
    capture_loc;
    on_capture = (fun a -> (Cold.own captured a).(Cold.offset a) <- !capture_loc);
    epoch = 0;
    in_roi = false;
    skip_depth = 0;
    tx_depth = 0;
    tx_ranges = [];
    events = 0;
    on_hit;
  }

let release t =
  Shadow.release t.shadow;
  Cold.reset t.captured

let checking t = t.in_roi && t.skip_depth = 0
let epoch t = t.epoch
let in_tx t = t.tx_depth > 0
let events t = t.events

let on_write t loc addr size ~nt =
  if checking t && t.tx_depth > 0 then begin
    let covered = List.exists (fun r -> Addr.overlap r (addr, size)) t.tx_ranges in
    if not covered then t.on_hit (Tx_unlogged_write { loc; addr; size })
  end;
  Addr.iter_bytes addr size (fun a ->
      Shadow.write_byte t.shadow a ~ts:t.epoch ~ev:t.events ~loc ~nt ~post:false);
  if nt then begin
    t.capture_loc := loc;
    Addr.iter_bytes addr size t.on_capture
  end

let on_flush t loc addr =
  let line = Addr.line_of addr in
  t.capture_loc := loc;
  match Shadow.flush_line ~on_capture:t.on_capture t.shadow line ~ev:t.events with
  | `Had_modified | `Clean -> ()
  | `Waste w ->
    if checking t then
      t.on_hit
        (Redundant_flush
           {
             loc;
             line;
             already =
               (match w with
               | Pstate.Double_flush -> `Pending
               | Pstate.Unnecessary_flush -> `Persisted);
           })

let feed t ev =
  t.events <- t.events + 1;
  let loc = ev.Event.loc in
  match ev.Event.kind with
  | Event.Write { addr; size } -> on_write t loc addr size ~nt:false
  | Event.Nt_write { addr; size } -> on_write t loc addr size ~nt:true
  | Event.Clwb { addr } | Event.Clflush { addr } | Event.Clflushopt { addr } ->
    on_flush t loc addr
  | Event.Sfence | Event.Mfence ->
    (* Fences order program points in every model, so the epoch always
       ticks; only ADR has writeback-pending bytes for the fence to
       persist. *)
    Shadow.fence t.shadow ~ev:t.events;
    t.epoch <- t.epoch + 1
  | Event.Gpf ->
    (* The global persistent flush barrier exists only under CXL-GPF;
       elsewhere the event is inert, as in the detector. *)
    if Xfd_trace.Domain_model.equal (Shadow.domain t.shadow) Xfd_trace.Domain_model.Cxl_gpf
    then begin
      Shadow.gpf t.shadow ~ev:t.events;
      t.epoch <- t.epoch + 1
    end
  | Event.Tx_begin ->
    t.tx_depth <- t.tx_depth + 1;
    if t.tx_depth = 1 then t.tx_ranges <- []
  | Event.Tx_add { addr; size } | Event.Tx_xadd { addr; size } ->
    if t.tx_depth > 0 then begin
      if
        checking t
        && List.exists (fun r -> Addr.overlap r (addr, size)) t.tx_ranges
        && (match ev.Event.kind with Event.Tx_add _ -> true | _ -> false)
      then t.on_hit (Duplicate_tx_add { loc; addr; size });
      t.tx_ranges <- (addr, size) :: t.tx_ranges
    end
  | Event.Tx_alloc { addr; size; _ } ->
    if t.tx_depth > 0 then t.tx_ranges <- (addr, size) :: t.tx_ranges
  | Event.Tx_commit | Event.Tx_abort ->
    t.tx_depth <- max 0 (t.tx_depth - 1);
    if t.tx_depth = 0 then t.tx_ranges <- []
  | Event.Tx_free _ -> ()
  | Event.Roi_begin -> t.in_roi <- true
  | Event.Roi_end -> t.in_roi <- false
  | Event.Skip_detection_begin -> t.skip_depth <- t.skip_depth + 1
  | Event.Skip_detection_end -> t.skip_depth <- max 0 (t.skip_depth - 1)
  | Event.Read _ | Event.Commit_var _ | Event.Commit_range _ | Event.Marker _ -> ()

let outstanding t a =
  match Shadow.pstate t.shadow a with
  | Pstate.Modified | Pstate.Writeback_pending -> true
  | Pstate.Unmodified | Pstate.Persisted -> false

let info t a =
  match Shadow.find t.shadow a with
  | None -> None
  | Some c ->
    let flush =
      match (c.Shadow.pstate, Cold.find t.captured a) with
      | Pstate.Writeback_pending, Some locs -> Some locs.(Cold.offset a)
      | _ -> None
    in
    Some { state = Abs.of_pstate c.Shadow.pstate; writer = c.Shadow.writer; flush }

let unpersisted t =
  List.fold_left
    (fun acc a -> match info t a with Some i -> (a, i) :: acc | None -> acc)
    [] (Shadow.outstanding t.shadow)

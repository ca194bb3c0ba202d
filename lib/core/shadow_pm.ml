module Addr = Xfd_mem.Addr
module Pages = Xfd_mem.Shadow_pages
module Cold = Xfd_mem.Cold_pages
module Obs = Xfd_obs.Obs
module History = Xfd_forensics.History
module Loc = Xfd_util.Loc

(* Per-byte FSM transition tallies (paper Figure 8): one increment per byte
   entering the named state during replay. *)
let c_to_modified = Obs.Counter.make "shadow.fsm.to_modified"
let c_to_writeback = Obs.Counter.make "shadow.fsm.to_writeback_pending"
let c_to_persisted = Obs.Counter.make "shadow.fsm.to_persisted"
let c_to_unmodified = Obs.Counter.make "shadow.fsm.to_unmodified"

(* Divergence journal unwinds: one per failure point the engine retires
   (plus the implicit unwind when the base layer resumes mutating). *)
let c_rewinds = Obs.Counter.make "shadow.divergence_rewinds"

type cell = {
  pstate : Pstate.t;
  tlast : int;
  writer : Loc.t;
  uninit : bool;
  post_written : bool;
  hist : History.t option;
}

(* Packed-byte layout on top of {!Xfd_mem.Shadow_pages}: bits 0-2 the
   Fig. 9 persistence state, [bit_tracked] for every byte the shadow has
   touched, [bit_pending] mirrors the old writeback-pending set (and the
   per-page bitmap the fence iterates), [bit_flag_a] =
   allocated-uninitialised, [bit_flag_b] = post-written, [bit_flag_c] =
   captured by the active divergence journal. *)
let st_unmodified = 0
let st_modified = 1
let st_writeback = 2
let st_persisted = 3

let encode_pstate = function
  | Pstate.Unmodified -> st_unmodified
  | Pstate.Modified -> st_modified
  | Pstate.Writeback_pending -> st_writeback
  | Pstate.Persisted -> st_persisted

let decode_pstate s =
  if s = st_modified then Pstate.Modified
  else if s = st_writeback then Pstate.Writeback_pending
  else if s = st_persisted then Pstate.Persisted
  else Pstate.Unmodified

let bit_uninit = Pages.bit_flag_a
let bit_post = Pages.bit_flag_b
let bit_journaled = Pages.bit_flag_c

(* Cold per-byte fields, one parallel page of them per touched 4 KiB page.
   [hist] rows exist only on forensic base layers. *)
type meta = {
  tlast : int array;
  writer : Loc.t array;
  hist : History.t option array option;
}

(* The delta journal of one post-failure divergence: for every byte the
   post-failure replay touches, the pre-divergence packed byte and cold
   fields, captured once ([bit_journaled] dedups).  [index] lets base
   reads resolve journaled bytes to their pre-divergence value while the
   divergence is live.  [pending_post] lists the bytes the divergence
   itself made writeback-pending — the only bytes its fences may promote
   (base-pending bytes belong to the canonical prefix). *)
type div = {
  mutable n : int;
  mutable j_addr : int array;
  mutable j_packed : int array;
  mutable j_tlast : int array;
  mutable j_writer : Loc.t array;
  index : (int, int) Hashtbl.t;
  mutable pending_post : int list;
}

type store = {
  pages : Pages.t;
  meta : meta Cold.t;
  record_hist : bool;
  domain : Xfd_trace.Domain_model.t;
  mutable active : div option;
}

type t = { store : store; div : div option }

let create ?(forensics = false) ?(domain = Xfd_trace.Domain_model.Adr) () =
  let fresh n =
    {
      tlast = Array.make n (-1);
      writer = Array.make n Loc.unknown;
      hist = (if forensics then Some (Array.make n None) else None);
    }
  in
  {
    store =
      {
        pages = Pages.create ();
        meta = Cold.create fresh;
        record_hist = forensics;
        domain;
        active = None;
      };
    div = None;
  }

let domain t = t.store.domain

let release t =
  Pages.release t.store.pages;
  Cold.reset t.store.meta;
  t.store.active <- None

let is_active store d = match store.active with Some d' -> d' == d | None -> false

let page_offset = Cold.offset
let meta_for store addr = Cold.find store.meta addr
let own_meta store addr = Cold.own store.meta addr

let tlast_of store addr =
  match meta_for store addr with None -> -1 | Some m -> m.tlast.(page_offset addr)

let writer_of store addr =
  match meta_for store addr with
  | None -> Loc.unknown
  | Some m -> m.writer.(page_offset addr)

let hist_of store addr =
  match meta_for store addr with
  | Some { hist = Some rows; _ } -> rows.(page_offset addr)
  | Some _ | None -> None

(* The provenance history a mutation of [addr] through [div] records into,
   created on first use.  Only base mutations of a forensic shadow record
   history; divergences read it by reference, exactly as the old overlay
   cells shared their parent's [hist]. *)
let hist_to_record div store addr =
  if (not store.record_hist) || Option.is_some div then None
  else
    let m = own_meta store addr in
    match m.hist with
    | None -> None
    | Some rows -> (
      let off = page_offset addr in
      match rows.(off) with
      | Some _ as h -> h
      | None ->
        let h = History.create () in
        rows.(off) <- Some h;
        Some h)

(* ------------------------------------------------------------------ *)
(* Divergence journal *)

let rewind_div store d =
  Obs.Counter.incr c_rewinds;
  for i = d.n - 1 downto 0 do
    let addr = d.j_addr.(i) in
    (* The captured byte predates the divergence, so it never carries
       [bit_journaled]; restoring it also heals the bitmaps and counts. *)
    Pages.set store.pages addr d.j_packed.(i);
    match meta_for store addr with
    | Some m ->
      let off = page_offset addr in
      m.tlast.(off) <- d.j_tlast.(i);
      m.writer.(off) <- d.j_writer.(i)
    | None -> ()
  done;
  d.n <- 0;
  Hashtbl.reset d.index;
  d.pending_post <- [];
  store.active <- None

(* Any base-layer mutation invalidates the outstanding divergence: the
   canonical prefix is moving on, so the journal is unwound first.  Base
   *reads* do not unwind — they resolve through the journal instead. *)
let ensure_base store =
  match store.active with Some d -> rewind_div store d | None -> ()

let grow_journal d =
  let cap = Array.length d.j_addr in
  if d.n = cap then begin
    let g a fill = Array.append a (Array.make cap fill) in
    d.j_addr <- g d.j_addr 0;
    d.j_packed <- g d.j_packed 0;
    d.j_tlast <- g d.j_tlast (-1);
    d.j_writer <- g d.j_writer Loc.unknown
  end

(* Capture [addr]'s pre-divergence value, once. *)
let journal d store addr packed =
  if not (Pages.has packed bit_journaled) then begin
    grow_journal d;
    d.j_addr.(d.n) <- addr;
    d.j_packed.(d.n) <- packed;
    d.j_tlast.(d.n) <- tlast_of store addr;
    d.j_writer.(d.n) <- writer_of store addr;
    Hashtbl.replace d.index addr d.n;
    d.n <- d.n + 1
  end

let overlay t =
  let store = t.store in
  ensure_base store;
  let d =
    {
      n = 0;
      j_addr = Array.make 64 0;
      j_packed = Array.make 64 0;
      j_tlast = Array.make 64 (-1);
      j_writer = Array.make 64 Loc.unknown;
      index = Hashtbl.create 64;
      pending_post = [];
    }
  in
  store.active <- Some d;
  { store; div = Some d }

let rewind t =
  match t.div with
  | None -> ()
  | Some d -> if is_active t.store d then rewind_div t.store d

(* Which journal should a mutation through this handle write to?  A base
   handle first unwinds any live divergence; an overlay handle must still
   own the store's single divergence slot. *)
let writing_div t =
  match t.div with
  | None ->
    ensure_base t.store;
    None
  | Some d ->
    if not (is_active t.store d) then
      invalid_arg "Shadow_pm: overlay used after its divergence was rewound";
    Some d

(* ------------------------------------------------------------------ *)
(* Reads *)

let cell_of store addr packed =
  {
    pstate = decode_pstate (Pages.state_of packed);
    tlast = tlast_of store addr;
    writer = writer_of store addr;
    uninit = Pages.has packed bit_uninit;
    post_written = Pages.has packed bit_post;
    hist = hist_of store addr;
  }

let find t addr =
  let store = t.store in
  let packed = Pages.get store.pages addr in
  match t.div with
  | Some _ ->
    (* Overlay reads see the divergence: its bytes were written in place. *)
    if packed = 0 then None else Some (cell_of store addr packed)
  | None -> (
    match store.active with
    | Some d when Pages.has packed bit_journaled -> (
      match Hashtbl.find_opt d.index addr with
      | Some i ->
        let old = d.j_packed.(i) in
        if old = 0 then None
        else
          Some
            {
              pstate = decode_pstate (Pages.state_of old);
              tlast = d.j_tlast.(i);
              writer = d.j_writer.(i);
              uninit = Pages.has old bit_uninit;
              post_written = Pages.has old bit_post;
              hist = hist_of store addr;
            }
      | None -> if packed = 0 then None else Some (cell_of store addr packed))
    | Some _ | None -> if packed = 0 then None else Some (cell_of store addr packed))

let pstate t addr =
  let store = t.store in
  let packed = Pages.get store.pages addr in
  let packed =
    match (t.div, store.active) with
    | None, Some d when Pages.has packed bit_journaled -> (
      match Hashtbl.find d.index addr with
      | i -> d.j_packed.(i)
      | exception Not_found -> packed)
    | _ -> packed
  in
  decode_pstate (Pages.state_of packed)

(* ------------------------------------------------------------------ *)
(* Writes *)

(* Store a packed byte, journaling the pre-image when a divergence owns
   the handle.  Divergence-written bytes carry [bit_journaled] so capture
   and base-read resolution stay O(1). *)
let put div store addr ~old packed =
  match div with
  | None -> Pages.set store.pages addr (packed land lnot bit_journaled)
  | Some d ->
    journal d store addr old;
    Pages.set store.pages addr (packed lor bit_journaled)

let write_byte t addr ~ts ~ev ~loc ~nt ~post =
  let store = t.store in
  let div = writing_div t in
  let old = Pages.get store.pages addr in
  let pst = decode_pstate (Pages.state_of old) in
  let pst' =
    if nt then Pstate.on_nt_write_in store.domain pst
    else Pstate.on_write_in store.domain pst
  in
  let pending = Pstate.equal pst' Pstate.Writeback_pending in
  Obs.Counter.incr
    (if pending then c_to_writeback
     else if Pstate.equal pst' Pstate.Persisted then c_to_persisted
     else c_to_modified);
  let packed =
    encode_pstate pst' lor Pages.bit_tracked
    lor (if pending then Pages.bit_pending else 0)
    lor (if post then bit_post else old land bit_post)
  in
  (match div with
  | Some d when pending && not (Pages.has old Pages.bit_pending) ->
    d.pending_post <- addr :: d.pending_post
  | _ -> ());
  put div store addr ~old packed;
  let m = own_meta store addr in
  let off = page_offset addr in
  m.tlast.(off) <- ts;
  m.writer.(off) <- loc;
  match hist_to_record div store addr with
  | Some h -> History.record_write h ~ev ~nt
  | None -> ()

let flush_line ?on_capture t line ~ev =
  let store = t.store in
  let div = writing_div t in
  let had_modified = ref false and had_pending = ref false and had_persisted = ref false in
  (* First pass: only observe, so a wasted flush journals nothing. *)
  Pages.iter_line store.pages line Addr.line_size (fun _ packed ->
      if packed <> 0 then
        let s = Pages.state_of packed in
        if s = st_modified then had_modified := true
        else if s = st_writeback then had_pending := true
        else if s = st_persisted then had_persisted := true);
  if !had_modified then begin
    (* Where a captured byte lands is the model's call: ADR parks it
       writeback-pending until a fence, CXL-GPF persists it on arrival at
       the device (eADR never has modified bytes to capture). *)
    let target = Pstate.on_flush_in store.domain Pstate.Modified in
    let pending = Pstate.equal target Pstate.Writeback_pending in
    Addr.iter_bytes line Addr.line_size (fun a ->
        let old = Pages.get store.pages a in
        if old <> 0 && Pages.state_of old = st_modified then begin
          Obs.Counter.incr (if pending then c_to_writeback else c_to_persisted);
          let packed =
            if pending then Pages.with_state old st_writeback lor Pages.bit_pending
            else Pages.with_state old (encode_pstate target) land lnot Pages.bit_pending
          in
          (match div with
          | Some d when pending && not (Pages.has old Pages.bit_pending) ->
            d.pending_post <- a :: d.pending_post
          | _ -> ());
          put div store a ~old packed;
          (match on_capture with Some f -> f a | None -> ());
          match hist_to_record div store a with
          | Some h -> History.record_flush h ~ev
          | None -> ()
        end);
    `Had_modified
  end
  else if !had_pending then `Waste Pstate.Double_flush
  else if !had_persisted then `Waste Pstate.Unnecessary_flush
  else `Clean

(* Promote one writeback-pending byte at an ordering point. *)
let promote_byte div store addr ~ev =
  let old = Pages.get store.pages addr in
  if Pages.has old Pages.bit_pending then begin
    if Pages.state_of old = st_writeback then begin
      Obs.Counter.incr c_to_persisted;
      match hist_to_record div store addr with
      | Some h -> History.record_fence h ~ev
      | None -> ()
    end;
    let pst' = Pstate.on_fence (decode_pstate (Pages.state_of old)) in
    let packed = Pages.with_state old (encode_pstate pst') land lnot Pages.bit_pending in
    put div store addr ~old packed
  end

let fence t ~ev =
  let store = t.store in
  match writing_div t with
  | None ->
    (* The base fence walks the per-page pending bitmaps: exactly the old
       pending set, without touching any other byte. *)
    List.iter (fun a -> promote_byte None store a ~ev) (Pages.pending_addrs store.pages)
  | Some d ->
    (* A divergence fence promotes only bytes it made pending itself;
       entries whose pending bit was since cleared by an overwrite are
       skipped, mirroring removal from the old per-layer pending set. *)
    let mine = List.rev d.pending_post in
    d.pending_post <- [];
    List.iter (fun a -> promote_byte (Some d) store a ~ev) mine

(* Collect before mutating: [iter_tracked] must not observe its own
   writes. *)
let outstanding t =
  let acc = ref [] in
  Pages.iter_tracked t.store.pages (fun a packed ->
      let s = Pages.state_of packed in
      if s = st_modified || s = st_writeback then acc := a :: !acc);
  List.rev !acc

let gpf t ~ev =
  let store = t.store in
  match writing_div t with
  | None ->
    (* The global persistent flush barrier persists every outstanding byte
       at once. *)
    List.iter
      (fun a ->
        let old = Pages.get store.pages a in
        Obs.Counter.incr c_to_persisted;
        let packed = Pages.with_state old st_persisted land lnot Pages.bit_pending in
        put None store a ~old packed;
        match hist_to_record None store a with
        | Some h -> History.record_fence h ~ev
        | None -> ())
      (outstanding t)
  | Some d ->
    (* A post-failure GPF may only promote what the post-failure run made
       pending itself: data the crash dropped stays dropped.  (Post-written
       bytes are readable regardless, so this is exactly the fence rule.) *)
    let mine = List.rev d.pending_post in
    d.pending_post <- [];
    List.iter (fun a -> promote_byte (Some d) store a ~ev) mine

let mark_alloc_raw t addr size ~ev =
  let store = t.store in
  let div = writing_div t in
  Addr.iter_bytes addr size (fun a ->
      let old = Pages.get store.pages a in
      Obs.Counter.incr c_to_unmodified;
      let packed = st_unmodified lor Pages.bit_tracked lor bit_uninit in
      put div store a ~old packed;
      match hist_to_record div store a with
      | Some h -> History.record_alloc h ~ev
      | None -> ())

let iter_tracked t f =
  Pages.iter_tracked t.store.pages (fun addr _packed ->
      match find t addr with Some c -> f addr c | None -> ())

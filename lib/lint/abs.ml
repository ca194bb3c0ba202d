type t = Bot | Dirty | Pending | Persisted | Top

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | x, y -> if x = y then x else Top

let leq a b =
  match (a, b) with Bot, _ | _, Top -> true | x, y -> x = y

let equal (a : t) b = a = b

(* The lattice's middle is the concrete FSM's image: [Bot] stands for a
   never-written byte, which the concrete machine calls [Unmodified]. *)
module P = Xfd.Pstate

let of_pstate = function
  | P.Unmodified -> Bot
  | P.Modified -> Dirty
  | P.Writeback_pending -> Pending
  | P.Persisted -> Persisted

(* [lift f] is the concrete transfer [f] on the flat lattice.  [Top] stands
   for any concrete state, so it goes to [f]'s single image when [f] is
   constant (a store) and stays [Top] otherwise.  Joining the images
   instead would send a CXL-GPF flush or GPF of [Top] to [Persisted],
   although [Bot] (an unwritten byte) stays [Bot] under both. *)
let lift f =
  let image = List.map f P.[ Unmodified; Modified; Writeback_pending; Persisted ] in
  let top =
    match image with
    | s :: rest when List.for_all (P.equal s) rest -> of_pstate s
    | _ -> Top
  in
  function
  | Bot -> of_pstate (f P.Unmodified)
  | Dirty -> of_pstate (f P.Modified)
  | Pending -> of_pstate (f P.Writeback_pending)
  | Persisted -> of_pstate (f P.Persisted)
  | Top -> top

(* One table, lifted (DESIGN.md decision 18): the transfers are
   {!Xfd.Pstate}'s. *)
let on_write_in m = lift (P.on_write_in m)
let on_nt_write_in m = lift (P.on_nt_write_in m)
let on_flush_in m = lift (P.on_flush_in m)
let on_fence_in m = lift (P.on_fence_in m)
let on_gpf_in m = lift (P.on_gpf_in m)
let on_write = on_write_in Xfd_trace.Domain_model.Adr
let on_nt_write = on_nt_write_in Xfd_trace.Domain_model.Adr
let on_flush = on_flush_in Xfd_trace.Domain_model.Adr
let on_fence = on_fence_in Xfd_trace.Domain_model.Adr

let to_string = function
  | Bot -> "unwritten"
  | Dirty -> "dirty"
  | Pending -> "flush-pending"
  | Persisted -> "fenced-persistent"
  | Top -> "unknown"

let pp ppf t = Format.pp_print_string ppf (to_string t)

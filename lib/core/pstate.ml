type t = Unmodified | Modified | Writeback_pending | Persisted

type flush_waste = Double_flush | Unnecessary_flush

let on_write _ = Modified
let on_nt_write _ = Writeback_pending

let on_flush = function
  | Modified -> Writeback_pending
  | (Unmodified | Writeback_pending | Persisted) as s -> s

let on_fence = function
  | Writeback_pending -> Persisted
  | (Unmodified | Modified | Persisted) as s -> s

(* Domain-parametric transfers: the one transfer table (DESIGN.md
   decision 18), which {!Xfd_lint.Abs} lifts to the lint lattice.  [Adr] is
   exactly the functions above. *)

module D = Xfd_trace.Domain_model

let on_write_in = function
  | D.Adr | D.Cxl_gpf -> on_write
  | D.Eadr -> fun _ -> Persisted

let on_nt_write_in = function
  | D.Adr -> on_nt_write
  | D.Eadr | D.Cxl_gpf -> fun _ -> Persisted

let on_flush_in = function
  | D.Adr -> on_flush
  | D.Eadr -> fun s -> s
  | D.Cxl_gpf -> (
    function Modified | Writeback_pending -> Persisted | (Unmodified | Persisted) as s -> s)

let on_fence_in = function
  | D.Adr -> on_fence
  | D.Eadr | D.Cxl_gpf -> fun s -> s

let on_gpf_in = function
  | D.Cxl_gpf -> (
    function Modified | Writeback_pending -> Persisted | (Unmodified | Persisted) as s -> s)
  | D.Adr | D.Eadr -> fun s -> s

let is_persisted = function Persisted -> true | Unmodified | Modified | Writeback_pending -> false
let equal (a : t) b = a = b

let to_string = function
  | Unmodified -> "U"
  | Modified -> "M"
  | Writeback_pending -> "W"
  | Persisted -> "P"

let pp ppf t = Format.pp_print_string ppf (to_string t)

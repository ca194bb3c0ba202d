(** Cold per-byte fields kept beside {!Shadow_pages}.

    A shadow keeps its hot per-byte state packed in {!Shadow_pages}; the
    fields read only when reporting (writers, timestamps, capture
    locations) live in one caller-built row per touched 4 KiB page.  Rows
    are found through a one-slot cache that hands back the cached value
    itself, so the common same-page lookup allocates nothing. *)

type 'a t

(** [create fresh]: [fresh n] builds the row of a newly touched page of
    [n] bytes. *)
val create : (int -> 'a) -> 'a t

(** The row of [addr]'s page, if one was ever made. *)
val find : 'a t -> Addr.t -> 'a option

(** The row of [addr]'s page, made on first use. *)
val own : 'a t -> Addr.t -> 'a

(** [addr]'s index within its page's row ([0 .. Shadow_pages.page_size - 1]). *)
val offset : Addr.t -> int

(** Drop every row. *)
val reset : 'a t -> unit

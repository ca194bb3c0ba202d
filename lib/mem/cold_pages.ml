type 'a t = {
  rows : (int, 'a) Hashtbl.t; (* page index = addr lsr page_bits *)
  fresh : int -> 'a;
  mutable last_idx : int;
  mutable last : 'a option; (* [Some] row of page [last_idx], or [None] *)
}

(* Rows line up with {!Shadow_pages}' pages; literal shifts keep the hot
   lookups free of a division. *)
let page_bits = 12
let () = assert (Shadow_pages.page_size = 1 lsl page_bits)
let page_index addr = addr lsr page_bits
let offset addr = addr land ((1 lsl page_bits) - 1)
let create fresh = { rows = Hashtbl.create 16; fresh; last_idx = -1; last = None }

let find t addr =
  let idx = page_index addr in
  if idx = t.last_idx then t.last
  else
    match Hashtbl.find_opt t.rows idx with
    | Some _ as r ->
      t.last_idx <- idx;
      t.last <- r;
      r
    | None -> None

let own t addr =
  match find t addr with
  | Some r -> r
  | None ->
    let r = t.fresh (1 lsl page_bits) in
    let idx = page_index addr in
    Hashtbl.replace t.rows idx r;
    t.last_idx <- idx;
    t.last <- Some r;
    r

let reset t =
  Hashtbl.reset t.rows;
  t.last_idx <- -1;
  t.last <- None

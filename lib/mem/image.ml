module Obs = Xfd_obs.Obs

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits (* 4 KiB, one page *)

(* Copy-on-write telemetry.  [pm.cow_faults]/[pm.cow_bytes] count lazy chunk
   copies triggered by writes to shared chunks; the gauges track the unique
   chunk payload bytes alive across every image in the process (shared
   chunks count once — this is the real memory footprint of all snapshots,
   crash images and live devices together). *)
let c_cow_faults = Obs.Counter.make "pm.cow_faults"
let c_cow_bytes = Obs.Counter.make "pm.cow_bytes"
let g_live = Obs.Gauge.make "pm.chunk_bytes_live"
let g_peak = Obs.Gauge.make "pm.chunk_bytes_peak"

let live_bytes_a = Atomic.make 0
let peak_bytes_a = Atomic.make 0

let rec store_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then store_max cell v

let account_alloc () =
  let live = Atomic.fetch_and_add live_bytes_a chunk_size + chunk_size in
  store_max peak_bytes_a live;
  Obs.Gauge.set g_live (float_of_int live);
  Obs.Gauge.set g_peak (float_of_int (Atomic.get peak_bytes_a))

let account_free () =
  let live = Atomic.fetch_and_add live_bytes_a (-chunk_size) - chunk_size in
  Obs.Gauge.set g_live (float_of_int live)

let live_bytes () = Atomic.get live_bytes_a
let peak_bytes () = Atomic.get peak_bytes_a

let reset_peak () =
  Atomic.set peak_bytes_a (Atomic.get live_bytes_a);
  Obs.Gauge.set g_peak (float_of_int (Atomic.get peak_bytes_a))

(* A chunk is a refcounted page.  [refs] counts the images whose table
   references it; a chunk with [refs > 1] is immutable (every writer must
   first take a private copy), so concurrent detections (xfd_serve runs
   jobs on system threads) only ever read shared payloads, and all
   ownership transitions go through the atomic refcount. *)
type chunk = { data : bytes; refs : int Atomic.t }

type t = { chunks : (int, chunk) Hashtbl.t; mutable footprint : int }

let create () = { chunks = Hashtbl.create 64; footprint = 0 }

let chunk_index addr = addr lsr chunk_bits
let chunk_offset addr = addr land (chunk_size - 1)

let release_chunk c = if Atomic.fetch_and_add c.refs (-1) = 1 then account_free ()

(* The chunk at [idx], exclusively owned so the caller may mutate it.  On a
   shared chunk this is the CoW fault: copy the payload, then drop our
   reference to the shared original.  The copy happens before the decrement,
   so a peer that observes [refs = 1] (and then writes in place) is ordered
   after our read of the shared bytes. *)
let writable_chunk t idx =
  match Hashtbl.find_opt t.chunks idx with
  | Some c when Atomic.get c.refs = 1 -> c.data
  | Some c ->
    let mine = { data = Bytes.copy c.data; refs = Atomic.make 1 } in
    Hashtbl.replace t.chunks idx mine;
    account_alloc ();
    Obs.Counter.incr c_cow_faults;
    Obs.Counter.add c_cow_bytes chunk_size;
    release_chunk c;
    mine.data
  | None ->
    let c = { data = Bytes.make chunk_size '\000'; refs = Atomic.make 1 } in
    Hashtbl.replace t.chunks idx c;
    t.footprint <- t.footprint + chunk_size;
    account_alloc ();
    c.data

let read_byte t addr =
  match Hashtbl.find_opt t.chunks (chunk_index addr) with
  | Some c -> Bytes.get c.data (chunk_offset addr)
  | None -> '\000'

let write_byte t addr v = Bytes.set (writable_chunk t (chunk_index addr)) (chunk_offset addr) v

let read t addr size =
  let out = Bytes.create size in
  let pos = ref 0 in
  while !pos < size do
    let a = addr + !pos in
    let off = chunk_offset a in
    let len = min (size - !pos) (chunk_size - off) in
    (match Hashtbl.find_opt t.chunks (chunk_index a) with
    | Some c -> Bytes.blit c.data off out !pos len
    | None -> Bytes.fill out !pos len '\000');
    pos := !pos + len
  done;
  out

let write t addr b =
  let size = Bytes.length b in
  let pos = ref 0 in
  while !pos < size do
    let a = addr + !pos in
    let off = chunk_offset a in
    let len = min (size - !pos) (chunk_size - off) in
    Bytes.blit b !pos (writable_chunk t (chunk_index a)) off len;
    pos := !pos + len
  done

let read_i64 t addr = Xfd_util.Bytesx.get_i64 (read t addr 8) 0
let write_i64 t addr v = write t addr (Xfd_util.Bytesx.i64_to_bytes v)

let snapshot t =
  let chunks = Hashtbl.create (max 16 (Hashtbl.length t.chunks)) in
  Hashtbl.iter
    (fun idx c ->
      Atomic.incr c.refs;
      Hashtbl.replace chunks idx c)
    t.chunks;
  { chunks; footprint = t.footprint }

let deep_copy t =
  let chunks = Hashtbl.create (max 16 (Hashtbl.length t.chunks)) in
  Hashtbl.iter
    (fun idx c ->
      Hashtbl.replace chunks idx { data = Bytes.copy c.data; refs = Atomic.make 1 };
      account_alloc ())
    t.chunks;
  { chunks; footprint = t.footprint }

let release t =
  Hashtbl.iter (fun _ c -> release_chunk c) t.chunks;
  Hashtbl.reset t.chunks;
  t.footprint <- 0

let shared_bytes t =
  Hashtbl.fold
    (fun _ c acc -> if Atomic.get c.refs > 1 then acc + chunk_size else acc)
    t.chunks 0

let copy_range ~src ~dst addr size = write dst addr (read src addr size)
let footprint t = t.footprint
let equal_range a b addr size = Bytes.equal (read a addr size) (read b addr size)

let iter_chunks t f =
  let idxs = Hashtbl.fold (fun idx _ acc -> idx :: acc) t.chunks [] in
  List.iter
    (fun idx -> f (idx lsl chunk_bits) (Hashtbl.find t.chunks idx).data)
    (List.sort Int.compare idxs)

(* An in-process time-series database over the Obs registry.

   Post-mortem telemetry (JSONL sinks, the flight ring) answers "what did
   the run do"; a long detection campaign needs "what is it doing *now*,
   and how has that changed over the last minute".  [sample] snapshots
   every registered counter and gauge, plus each histogram's count / sum /
   max and p50/p95/p99 quantile estimates, into one fixed-capacity ring
   per series.  A background sampler ({!start}, one [Ticker] thread)
   makes that a rolling window at a configurable interval.

   Memory is bounded by construction: [capacity] points per series, the
   oldest overwritten and counted in ["pulse.points_dropped"] — the same
   drop-newest-never-grow discipline as the span and flight rings.  The
   sampler only *reads* metric state (atomics, under the registry lock),
   so sampling can never perturb detection. *)

module Obs = Xfd_obs.Obs
module Json = Xfd_util.Json

type point = { at : float; value : float }

type ring = {
  ts : float array;
  vs : float array;
  mutable head : int; (* next write position *)
  mutable len : int;
}

type t = {
  capacity : int;
  series : (string, ring) Hashtbl.t;
  mutex : Mutex.t;
  mutable samples : int;
  mutable ticker : Ticker.t option;
  mutable interval : float option;
}

let c_samples = Obs.Counter.make "pulse.samples"
let c_points_dropped = Obs.Counter.make "pulse.points_dropped"

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Tsdb.create: capacity must be positive";
  {
    capacity;
    series = Hashtbl.create 64;
    mutex = Mutex.create ();
    samples = 0;
    ticker = None;
    interval = None;
  }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
    Mutex.unlock t.mutex;
    v
  | exception e ->
    Mutex.unlock t.mutex;
    raise e

let push_locked t name ~at ~value =
  let r =
    match Hashtbl.find_opt t.series name with
    | Some r -> r
    | None ->
      let r =
        { ts = Array.make t.capacity 0.0; vs = Array.make t.capacity 0.0; head = 0; len = 0 }
      in
      Hashtbl.replace t.series name r;
      r
  in
  if r.len = t.capacity then Obs.Counter.incr c_points_dropped else r.len <- r.len + 1;
  r.ts.(r.head) <- at;
  r.vs.(r.head) <- value;
  r.head <- (r.head + 1) mod t.capacity

(* The derived series of one histogram: enough to drive a dashboard
   (throughput numerators, tail latencies) without retaining buckets. *)
let hist_series name h =
  [
    (name ^ ".count", float_of_int (Obs.Histogram.count h));
    (name ^ ".sum", float_of_int (Obs.Histogram.sum h));
    (name ^ ".max", float_of_int (Obs.Histogram.max_value h));
    (name ^ ".p50", float_of_int (Obs.Histogram.quantile h 0.50));
    (name ^ ".p95", float_of_int (Obs.Histogram.quantile h 0.95));
    (name ^ ".p99", float_of_int (Obs.Histogram.quantile h 0.99));
  ]

let sample t =
  (* Snapshot outside our lock: [metrics_snapshot] takes the registry
     lock, and nesting the two invites an ordering accident later. *)
  let counters, gauges, hists = Obs.metrics_snapshot () in
  let at = Unix.gettimeofday () in
  with_lock t (fun () ->
      List.iter (fun (n, v) -> push_locked t n ~at ~value:(float_of_int v)) counters;
      List.iter (fun (n, v) -> push_locked t n ~at ~value:v) gauges;
      List.iter
        (fun (n, h) -> List.iter (fun (n, v) -> push_locked t n ~at ~value:v) (hist_series n h))
        hists;
      t.samples <- t.samples + 1);
  Obs.Counter.incr c_samples

let samples t = with_lock t (fun () -> t.samples)
let interval t = t.interval
let running t = t.ticker <> None

let stop t =
  match t.ticker with
  | None -> ()
  | Some tk ->
    t.ticker <- None;
    Ticker.stop tk

let start t ~interval =
  stop t;
  t.interval <- Some interval;
  t.ticker <- Some (Ticker.start ~interval (fun () -> sample t))

let names t =
  with_lock t (fun () -> Hashtbl.fold (fun n _ acc -> n :: acc) t.series [])
  |> List.sort String.compare

let window_locked t ?last name =
  match Hashtbl.find_opt t.series name with
  | None -> None
  | Some r ->
    let keep = match last with Some k when k >= 0 -> min k r.len | _ -> r.len in
    let acc = ref [] in
    for i = 1 to keep do
      let j = (r.head - i + (2 * t.capacity)) mod t.capacity in
      acc := { at = r.ts.(j); value = r.vs.(j) } :: !acc
    done;
    Some !acc

let window t ?last name = with_lock t (fun () -> window_locked t ?last name)

(* ---- export ---- *)

let points_json pts =
  Json.Arr (List.map (fun p -> Json.Arr [ Json.Float p.at; Json.Float p.value ]) pts)

let series_json t ?last name =
  match window t ?last name with
  | None -> None
  | Some pts ->
    Some
      (Json.Obj
         [
           ("type", Json.Str "tsdb");
           ("name", Json.Str name);
           ( "interval_s",
             match t.interval with Some i -> Json.Float i | None -> Json.Null );
           ("points", points_json pts);
         ])

let write_jsonl t path =
  let ns = names t in
  Xfd_util.Atomic_file.write path (fun oc ->
      List.iter
        (fun n ->
          match series_json t n with
          | None -> ()
          | Some j ->
            output_string oc (Json.to_string j);
            output_char oc '\n')
        ns);
  List.length ns

let write_csv t path =
  let ns = names t in
  let rows = ref 0 in
  Xfd_util.Atomic_file.write path (fun oc ->
      output_string oc "series,unix_s,value\n";
      List.iter
        (fun n ->
          match window t n with
          | None -> ()
          | Some pts ->
            List.iter
              (fun p ->
                (* Series names are dotted metric paths — no commas, quotes
                   or newlines to escape (enforced at Obs registration by
                   usage). *)
                Printf.fprintf oc "%s,%.6f,%.17g\n" n p.at p.value;
                incr rows)
              pts)
        ns);
  !rows

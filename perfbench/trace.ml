(* The traced run's in-memory telemetry: a sink that folds span events
   into per-name call counts, total and self time as they are flushed out
   of the flight-recorder ring, plus counter deltas between registry
   snapshots.  Self time is a span's duration minus the time its child
   spans cover, the same rule [Report] applies to a JSONL trace.

   Everything runs on one domain, so a single span stack suffices. *)

type stat = { mutable calls : int; mutable total_s : float; mutable self_s : float }

type frame = { f_name : string; mutable child_s : float }

type t = {
  stats : (string, stat) Hashtbl.t;
  mutable stack : frame list;
  mutable dropped : int;
  mutable flushed : int;  (* ring events recorded as of the last flush *)
}

let ring_capacity = 1 lsl 16

let stat t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
    let s = { calls = 0; total_s = 0.; self_s = 0. } in
    Hashtbl.replace t.stats name s;
    s

let emit t = function
  | Telemetry.Sink.Span_start { name; _ } -> t.stack <- { f_name = name; child_s = 0. } :: t.stack
  | Telemetry.Sink.Span_end { name; elapsed_ms; _ } -> (
    let d = elapsed_ms /. 1e3 in
    match t.stack with
    | f :: rest when String.equal f.f_name name ->
      let s = stat t name in
      s.calls <- s.calls + 1;
      s.total_s <- s.total_s +. d;
      s.self_s <- s.self_s +. (d -. f.child_s);
      t.stack <- rest;
      (match rest with p :: _ -> p.child_s <- p.child_s +. d | [] -> ())
    | _ -> (* start lost to a ring overwrite: counted by [dropped] *) ())
  | Telemetry.Sink.Point { name = "telemetry.ring.dropped"; attrs; _ } -> (
    match List.assoc_opt "count" attrs with
    | Some (Telemetry.Int n) -> t.dropped <- t.dropped + n
    | _ -> t.dropped <- t.dropped + 1)
  | Telemetry.Sink.Point _ | Telemetry.Sink.Metric _ -> ()

let recorded () = List.fold_left (fun acc (_, n) -> acc + n) 0 (Telemetry.ring_stats ())

(* Start tracing into a fresh fold.  The ring is sized once, on the first
   call of the process, and drained by [maybe_flush] long before it
   could wrap. *)
let start () =
  let t = { stats = Hashtbl.create 32; stack = []; dropped = 0; flushed = 0 } in
  Telemetry.configure
    ~sink:(Telemetry.Sink.make ~emit:(emit t) ~flush:ignore)
    ~ring_capacity ();
  t.flushed <- recorded ();
  t

let flush t =
  Telemetry.flush ();
  t.flushed <- recorded ()

(* Drain the ring once it is a quarter full; called between operations,
   never inside a measured call. *)
let maybe_flush t = if recorded () - t.flushed > ring_capacity / 4 then flush t

let stop t =
  flush t;
  Telemetry.shutdown ()

let calls t name = match Hashtbl.find_opt t.stats name with Some s -> s.calls | None -> 0
let total_s t name = match Hashtbl.find_opt t.stats name with Some s -> s.total_s | None -> 0.
let self_s t name = match Hashtbl.find_opt t.stats name with Some s -> s.self_s | None -> 0.

(* Counter deltas between two registry snapshots. *)
let counters () = (Telemetry.snapshot ()).Telemetry.counters

let delta before after name =
  let v l = Option.value ~default:0 (List.assoc_opt name l) in
  v after - v before

(* Open-loop load driver for the admission engine.

   Request i is due at [start + i / rate] whatever the engine is doing,
   as independent users would send it.  One process on one domain plays
   both sides, the way the daemon gulps stdin: whenever the engine is
   free, every line that has fallen due is handed over in one
   [handle_batch] call.  Latency runs from the moment a line was due, not
   from the moment it was handed over, so a stall is charged to every
   request queued behind it.

   The clock is a parameter so the tests can drive a fake engine on
   virtual time. *)

type clock = { now : unit -> float; wait_until : float -> unit }

(* Sleep through long gaps, spin through the last two milliseconds:
   sleeping alone wakes up late by the scheduler's granularity, and that
   lateness would be measured as latency.  [idle] runs first in every gap
   longer than 3 ms, so it must return within about a millisecond. *)
let real_clock_with ~idle =
  let now = Clock.now in
  let rec wait_until t =
    let d = t -. now () in
    if d > 0.003 then begin
      idle ();
      let d = t -. now () in
      if d > 0.003 then Unix.sleepf (d -. 0.002);
      wait_until t
    end
    else if d > 0. then wait_until t
  in
  { now; wait_until }

let real_clock = real_clock_with ~idle:ignore

type run = {
  rate : float;  (** offered rate, lines/s *)
  latency_ms : float array;  (** due -> response returned, per line *)
  wait_ms : float array;  (** due -> handed to the engine, per line *)
  late_ms : float array;
      (** handed over later than [max due (engine free)]: lateness of the
          generator itself, not explained by the engine being busy *)
  service_ms : float array;  (** the line's share of its batch's call *)
  batches : int;
  busy_s : float;  (** time inside [handle_batch] *)
  alloc_words : float;  (** minor-heap words allocated inside it *)
  wall_s : float;
  responses : string array;  (** in request order; [""] if none came back *)
}

let run ~clock ~handle ~rate lines =
  let n = Array.length lines in
  let latency_ms = Array.make n 0. and wait_ms = Array.make n 0. in
  let late_ms = Array.make n 0. and service_ms = Array.make n 0. in
  let responses = Array.make n "" in
  let start = clock.now () in
  let due i = start +. (float_of_int i /. rate) in
  let i = ref 0 and free_at = ref start and batches = ref 0 and busy = ref 0. in
  let alloc = ref 0. in
  while !i < n do
    let t = clock.now () in
    if due !i > t then clock.wait_until (due !i)
    else begin
      let j = ref !i in
      while !j < n && due !j <= t do
        incr j
      done;
      let lo = !i and k = !j - !i in
      let batch = Array.to_list (Array.sub lines lo k) in
      let w0 = Gc.minor_words () in
      let t = clock.now () in
      let out = handle batch in
      let fin = clock.now () in
      alloc := !alloc +. (Gc.minor_words () -. w0);
      List.iteri (fun m r -> if m < k then responses.(lo + m) <- r) out;
      let per_line = (fin -. t) /. float_of_int k in
      for idx = lo to !j - 1 do
        let d = due idx in
        latency_ms.(idx) <- (fin -. d) *. 1e3;
        wait_ms.(idx) <- (t -. d) *. 1e3;
        late_ms.(idx) <- (t -. Float.max d !free_at) *. 1e3;
        service_ms.(idx) <- per_line *. 1e3
      done;
      busy := !busy +. (fin -. t);
      incr batches;
      free_at := fin;
      i := !j
    end
  done;
  {
    rate;
    latency_ms;
    wait_ms;
    late_ms;
    service_ms;
    batches = !batches;
    busy_s = !busy;
    alloc_words = !alloc;
    wall_s = clock.now () -. start;
    responses;
  }

(* The queue wait grows when the median wait over the last quarter of the
   run is more than twice the first quarter's and above it by more than a
   tenth of the latency limit: a stable queue keeps both near its steady
   state, an overloaded one adds (1 - capacity/rate) of every second it
   runs. *)
let growing ~limit_ms r =
  let n = Array.length r.wait_ms in
  let q = n / 4 in
  q > 0
  &&
  let first = Stats.median (Array.sub r.wait_ms 0 q)
  and last = Stats.median (Array.sub r.wait_ms (n - q) q) in
  last > 2. *. first && last -. first > limit_ms /. 10.

(* A rate meets the limit when the p99 latency does, counting each line
   in [missed] as beyond any limit, and the queue wait does not grow.
   With [windows] > 1 the p99 is the median of the run's contiguous
   windows' p99s, so a stall of the machine in one window does not
   decide the rate; a growing queue still shows in every later window. *)
let meets ?(windows = 1) ~limit_ms ~missed r =
  let lat = Array.mapi (fun i l -> if missed i then Float.infinity else l) r.latency_ms in
  Stats.windowed (Stats.split windows lat) 99. <= limit_ms && not (growing ~limit_ms r)

(* Highest rate in [lo, hi] that passes [probe]: step up from [lo] by
   [factor] until a probe fails (or [hi] passes), then bisect on a log
   scale between the last pass and the first failure ([steps] halvings).
   [lo] is taken to pass.  Stepping up keeps every probe but one below
   capacity, where probes are cheap and their verdicts steady. *)
let max_rate ~probe ~lo ~hi ~factor ~steps =
  let rec up r =
    let r' = Float.min hi (r *. factor) in
    if probe r' then if r' >= hi then None else up r' else Some (r, r')
  in
  match up lo with
  | None -> hi
  | Some (pass, fail) ->
    let lo = ref pass and hi = ref fail in
    for _ = 1 to steps do
      let mid = Float.sqrt (!lo *. !hi) in
      if probe mid then lo := mid else hi := mid
    done;
    !lo

(* admit-hot and admit-churn: Serve.Engine.handle_batch under an open
   loop at a fixed offered rate, fed every line that fell due since the
   previous call. *)

module P = Serve.Protocol

type kind = Hot | Churn

(* One engine configuration for both workloads.  The cache is smaller
   than churn's stream of distinct shapes, so churn inserts and evicts,
   and larger than hot's 64 shapes, so hot only reads. *)
let config = { Serve.Engine.default_config with Serve.Engine.cache_entries = 256 }

let nominal_rate = function Hot -> 40_000. | Churn -> 150.
let limit_ms = function Hot -> 1. | Churn -> 50.

type shape = { h : int; u0 : float; uc : float; sched : string; deadline : float }

type item = Shape of shape | Malformed of int  (** loadgen's kind, 0..4 *)

(* loadgen's five malformed lines and the error code each must get *)
let malformed_line = function
  | 0 -> ("{\"op\":\"admit\",\"h\":5", "parse-error")
  | 1 -> ("{\"op\":\"nonsense\"}", "invalid-request")
  | 2 -> ("{\"op\":\"admit\",\"h\":\"five\",\"u0\":0.1,\"uc\":0.1,\"deadline\":50}", "invalid-request")
  | 3 -> ("{\"op\":\"admit\",\"h\":5,\"u0\":1e999,\"uc\":0.1,\"deadline\":50}", "invalid-request")
  | _ -> ("not json at all", "parse-error")

(* Values go through their own decimal text, so the reference sees the
   same floats the engine parses. *)
let round6 x = float_of_string (Printf.sprintf "%.6f" x)
let round3 x = float_of_string (Printf.sprintf "%.3f" x)

let scheds = [| "fifo"; "bmux"; "sp"; "edf" |]

let text i = function
  | Malformed k -> fst (malformed_line k)
  | Shape s ->
    Printf.sprintf
      "{\"op\":\"admit\",\"id\":\"r%d\",\"h\":%d,\"u0\":%.6f,\"uc\":%.6f,\"deadline\":%.3f,\"sched\":\"%s\"}"
      i s.h s.u0 s.uc s.deadline s.sched

(* Deadlines are log-uniform per hop over a range that brackets the
   bounds of this shape distribution, so about half are admitted. *)
let random_shape rng ~h_max =
  let h = 2 + Random.State.int rng (h_max - 1) in
  let u0 = round6 (0.05 +. Random.State.float rng 0.25) in
  let uc = round6 (0.05 +. Random.State.float rng 0.5) in
  let sched = scheds.(Random.State.int rng 4) in
  let deadline = float_of_int h *. Float.exp (Random.State.float rng (Float.log 200.)) in
  { h; u0; uc; sched; deadline = round3 deadline }

(* 1% of lines are malformed, spread over loadgen's five kinds. *)
let with_malformed rng f = if Random.State.float rng 1. < 0.01 then Malformed (Random.State.int rng 5) else f ()

(* Hot: 64 shapes, drawn with Zipf(1.0) popularity.  The scheduler goes
   by popularity rank (FIFO, BMUX, SP, EDF, FIFO, ...), so the mix of
   cache-key kinds the traffic sees does not depend on the seed. *)
let hot_shapes rng =
  Array.init 64 (fun k ->
      { (random_shape rng ~h_max:10) with sched = scheds.(k mod 4) })

let zipf_sampler rng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  fun () ->
    let x = Random.State.float rng !acc in
    let rec find k = if k >= n - 1 || x < cdf.(k) then k else find (k + 1) in
    find 0

type stream = { items : item array; lines : string array }

let stream items = { items; lines = Array.mapi text items }

let hot_stream rng shapes n =
  let pick = zipf_sampler rng (Array.length shapes) in
  stream (Array.init n (fun _ -> with_malformed rng (fun () -> Shape shapes.(pick ()))))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Churn draws its shapes from random_shape's distribution (H up to 16),
   stratified so that the mix does not hang on the seed: every block of
   60 lines holds each (H, scheduler) pair once, and u0, uc and the
   deadline each take one value from every sixtieth of their range.  One
   line in a hundred is malformed, the kinds in turn.  The order is
   shuffled. *)
let churn_stream rng n =
  let block = 60 in
  let strata () =
    let p = Array.init block Fun.id in
    shuffle rng p;
    fun i -> (float_of_int p.(i) +. Random.State.float rng 1.) /. float_of_int block
  in
  let items = Array.make n (Malformed 0) in
  for b = 0 to ((n + block - 1) / block) - 1 do
    let (u0, uc, d) = (strata (), strata (), strata ()) in
    for i = 0 to Stdlib.min block (n - (b * block)) - 1 do
      let h = 2 + (i mod 15) in
      items.((b * block) + i) <-
        Shape
          {
            h;
            u0 = round6 (0.05 +. (0.25 *. u0 i));
            uc = round6 (0.05 +. (0.5 *. uc i));
            sched = scheds.(i / 15);
            deadline = round3 (float_of_int h *. Float.exp (d i *. Float.log 200.));
          }
    done
  done;
  Array.iteri (fun i _ -> if i mod 100 = 50 then items.(i) <- Malformed (i / 100 mod 5)) items;
  shuffle rng items;
  stream items

(* ---------------- the untimed reference ---------------- *)

let two_class s =
  match s.sched with
  | "fifo" -> Scheduler.Classes.Fifo
  | "bmux" -> Scheduler.Classes.Bmux
  | "sp" -> Scheduler.Classes.Sp_through_high
  | _ ->
    (* serve's EDF: d*_0 = deadline / H, default ratio 10, gap held fixed *)
    let d0 = s.deadline /. float_of_int s.h in
    Scheduler.Classes.Edf_gap (d0 *. (1. -. 10.))

let reference s =
  let base = Deltanet.Scenario.of_utilization ~h:s.h ~u_through:s.u0 ~u_cross:s.uc in
  let d =
    Deltanet.Admission.decide ~s_points:config.Serve.Engine.s_points
      { Deltanet.Admission.base; guarantee = { deadline = s.deadline; epsilon = 1e-9 } }
      ~scheduler:(two_class s)
  in
  (d.Deltanet.Admission.bound, Deltanet.Diag.ok d.Deltanet.Admission.diag)

let references () =
  let memo = Hashtbl.create 64 in
  fun s ->
    match Hashtbl.find_opt memo s with
    | Some r -> r
    | None ->
      let r = reference s in
      Hashtbl.replace memo s r;
      r

let expect refs = function
  | Malformed k -> Oracle.Malformed (snd (malformed_line k))
  | Shape s ->
    let (reference, converged) = refs s in
    Oracle.Valid { deadline = s.deadline; reference; converged }

(* ---------------- runs ---------------- *)

(* Hot warms its own 64 shapes; churn warms 8 shapes of its distribution
   drawn from a fixed stream, so its set-up does the same work for every
   seed, and the timed stream never repeats them. *)
let warm_lines kind shapes =
  match kind with
  | Hot -> Array.mapi (fun i s -> text i (Shape s)) shapes
  | Churn ->
    let rng = Random.State.make [| 0 |] in
    Array.init 8 (fun i -> text i (Shape (random_shape rng ~h_max:16)))

(* Set-up: the process-wide pool (jobs = 1), a fresh engine and its
   warm-up, one line per call so every warm-up shape gets an exact bound
   memoized. *)
let setup warm () =
  Parallel.Default.set_jobs 1;
  ignore (Parallel.Default.get ());
  let engine = Serve.Engine.create config in
  Array.iter (fun l -> ignore (Serve.Engine.handle_batch engine [ l ])) warm;
  engine

(* Lines for the timed phases.  Hot cycles through one Zipf-drawn pool
   (every shape is cached either way); churn hands out each generated
   line once, so every request is a fresh shape. *)
type source = { s : stream; mutable cursor : int }

let take src n =
  let len = Array.length src.s.items in
  let idx = Array.init n (fun k -> (src.cursor + k) mod len) in
  src.cursor <- src.cursor + n;
  (Array.map (fun i -> src.s.items.(i)) idx, Array.map (fun i -> src.s.lines.(i)) idx)

type fields = {
  f_id : string option;
  f_trace : string option;
  admitted : bool;
  bound_ms : float;
  deadline_ms : float;
  elapsed_ms : float;
  mode : P.mode;
  hit : bool;
}

(* The fields of an ok admit response. *)
let admit_fields resp =
  let module J = Serve.Sjson in
  match J.parse resp with
  | Error _ -> None
  | Ok j -> (
    let f k = Option.bind (J.member k j) J.to_float in
    let s k = Option.bind (J.member k j) J.to_string in
    match (s "status", Option.bind (J.member "admit" j) J.to_bool, f "bound_ms", f "deadline_ms") with
    | (Some "ok", Some admitted, Some bound_ms, Some deadline_ms) ->
      Some
        {
          f_id = s "id";
          f_trace = s "trace";
          admitted;
          bound_ms;
          deadline_ms;
          elapsed_ms = Option.value ~default:0. (f "elapsed_ms");
          mode = (match s "mode" with Some "approx" -> P.Approx | _ -> P.Exact);
          hit = Option.equal String.equal (s "cache") (Some "hit");
        }
    | _ -> None)

let render f =
  P.render_admit ?id:f.f_id ?trace:f.f_trace ~admitted:f.admitted ~bound_ms:f.bound_ms
    ~deadline_ms:f.deadline_ms ~mode:f.mode ~cache_hit:f.hit ~elapsed_ms:f.elapsed_ms ()

let handle engine = Serve.Engine.handle_batch engine

type phase = {
  runs : Openloop.run list;
  spans : (float * float) list;  (** when each run started and ended *)
  verdicts : Oracle.verdict array;
  miss : bool array;  (** per response, when kept: an ok admit that missed the cache *)
  approx : bool array;  (** per response, when kept: an ok admit in approx mode *)
  answered : int;  (** ok admits, when kept *)
  ok : fields array;  (** the first segment's ok admits, when kept *)
  lines : string array;  (** the first segment's lines, when kept *)
}

(* [segments] open-loop runs of [per_segment] lines at [rate], each
   checked (untimed) before the next starts, so responses do not pile
   up; [between] runs after each.  [keep] also keeps every response's
   cache and mode tags, and the first segment's lines and ok admits. *)
let phase ?(keep = false) ?(between = ignore) ?(clock = Openloop.real_clock) handle src ~rate ~refs
    ~segments ~per_segment =
  let runs = ref [] and spans = ref [] and verdicts = ref [] and lines = ref [||] and ok = ref [||] in
  let miss = ref [] and approx = ref [] and answered = ref 0 in
  for seg = 1 to segments do
    let (its, ls) = take src per_segment in
    let t0 = Clock.now () in
    let r = Openloop.run ~clock ~handle ~rate ls in
    spans := (t0, Clock.now ()) :: !spans;
    let resp = r.Openloop.responses in
    runs := { r with Openloop.responses = [||] } :: !runs;
    verdicts := Array.mapi (fun i x -> Oracle.admit_response (expect refs its.(i)) x) resp :: !verdicts;
    if keep then begin
      let fields = Array.map admit_fields resp in
      Array.iter (fun f -> if Option.is_some f then incr answered) fields;
      let tag p = Array.map (function Some f -> p f | None -> false) fields in
      miss := tag (fun f -> not f.hit) :: !miss;
      approx := tag (fun f -> match f.mode with P.Approx -> true | P.Exact -> false) :: !approx;
      if seg = 1 then begin
        lines := ls;
        ok := Array.of_list (List.filter_map Fun.id (Array.to_list fields))
      end
    end;
    between ()
  done;
  let cat l = Array.concat (List.rev l) in
  {
    runs = List.rev !runs;
    spans = List.rev !spans;
    verdicts = cat !verdicts;
    miss = cat !miss;
    approx = cat !approx;
    answered = !answered;
    ok = !ok;
    lines = !lines;
  }

let cat f runs = Array.concat (List.map f runs)

type search = {
  hi : float;  (** highest rate tried *)
  factor : float;  (** step-up factor *)
  steps : int;  (** bisection steps after the first failure *)
  probe_s : float;  (** offered duration of a probe... *)
  probe_cap : int;  (** ...up to this many lines *)
}

type plan = {
  segments : int;  (** nominal phase: open-loop runs of [segment_s] each *)
  per_segment : int;
  windows : int;  (** percentile windows per segment and per probe *)
  tail : float;  (** the percentile reported as op_tail_ms *)
  search : search option;  (** the admit_max_rate search, hot only *)
}

let segment_s = function Hot -> 0.5 | Churn -> 2.

(* The plan of hot's measured run and of both traced runs.  The nominal
   phase fills the run, in segments with reference-kernel samples between
   them.  Hot's measured run then runs one admit_max_rate search,
   printed as a note: step up from the nominal rate by 1.25x to the
   first failure and bisect, up to 40x the nominal rate (the serve
   target of 500k decisions/s is more than 10x today's capacity).  Its
   result is one of a few dozen grid rates and swings by a grid step
   between runs, so it is not gated; hot's throughput_per_s is its
   service capacity instead, as churn's is.

   Hot's percentiles are taken per 100 ms window.  The p99 of either
   workload swung by 25-50% between runs on a shared machine, so hot
   reports p95 as its tail and churn p90.  Hot's service time has two
   modes, about 6.5 and 10 us, and the slower one's share moved between
   12% and 25% from one segment to the next; a p75-p90 lands on either
   mode, p95 always on the slower one.  It is still printed with its limit, and
   the rate search checks the limit on it.  Churn has no rate search:
   near capacity a probe's p99 hinges on a handful of slow shapes
   landing together (36 to 240 ms at one rate), so the searched rate did
   not repeat. *)
let plan kind ~seconds =
  let rate = nominal_rate kind in
  let seg = segment_s kind in
  let (nominal_s, windows, tail, search) =
    match kind with
    | Hot ->
      ( Float.max seg (seconds -. 2.),
        5,
        95.,
        Some { hi = 40. *. rate; factor = 1.25; steps = 3; probe_s = 0.2; probe_cap = 30_000 } )
    | Churn -> (seconds, 1, 90., None)
  in
  {
    segments = Stdlib.max 1 (int_of_float (nominal_s /. seg));
    per_segment = int_of_float (rate *. seg);
    windows;
    tail;
    search;
  }

let sources kind rng =
  match kind with
  | Hot ->
    let shapes = hot_shapes rng in
    (warm_lines Hot shapes, { s = hot_stream rng shapes 16_384; cursor = 0 })
  | Churn ->
    (* enough distinct lines for both halves of the traced run *)
    (warm_lines Churn [||], { s = churn_stream rng 8_000; cursor = 0 })

(* Kernel samples after each segment: ten, about 10 ms *)
let sample_speed speed () =
  for _ = 1 to 10 do
    Speed.sample speed
  done

let measure_hot ~seed ~seconds =
  let kind = Hot in
  let rng = Random.State.make [| seed; 1 |] in
  let (warm, src) = sources kind rng in
  let speed = Speed.create () in
  let (setup_s, engine) = Metrics.setups ~speed 5 (setup warm) in
  let p = plan kind ~seconds in
  let rate = nominal_rate kind and limit_ms = limit_ms kind in
  (* the reference bound is memoized per shape: hot's 64 are solved once *)
  let refs = references () in
  let nom =
    phase (handle engine) src ~rate ~refs ~segments:p.segments ~per_segment:p.per_segment
      ~between:(sample_speed speed)
  in
  let probes = ref [] in
  let probe sp r =
    let n = Stdlib.min sp.probe_cap (Stdlib.max 1 (int_of_float (r *. sp.probe_s))) in
    let ph = phase (handle engine) src ~rate:r ~refs ~segments:1 ~per_segment:n in
    probes := ph :: !probes;
    let missed i = match ph.verdicts.(i) with Oracle.Pass -> false | _ -> true in
    Openloop.meets ~windows:p.windows ~limit_ms ~missed (List.hd ph.runs)
  in
  let factors = List.map (fun (t0, t1) -> Speed.factor speed ~t0 ~t1) nom.spans in
  (* Every window and segment carries the same traffic mix, so like the
     other workloads' repeats each figure is read from the fastest ones:
     the lower decile over windows of each window's percentile, the
     upper decile over segments of each segment's capacity. *)
  let capacity ~scale =
    Stats.percentile
      (Stats.sorted
         (Array.of_list
            (List.map2
               (fun r k ->
                 float_of_int (Array.length r.Openloop.latency_ms) /. (r.Openloop.busy_s *. if scale then k else 1.))
               nom.runs factors)))
      90.
  in
  let raw_capacity = capacity ~scale:false and capacity = capacity ~scale:true in
  let search_note =
    match p.search with
    | None -> []
    | Some sp ->
      let best = Openloop.max_rate ~probe:(probe sp) ~lo:rate ~hi:sp.hi ~factor:sp.factor ~steps:sp.steps in
      [
        ( "admit_max_rate",
          Printf.sprintf "%.1f 1/s measured (one search, %d probes; p99 limit %g ms)" best
            (List.length !probes) limit_ms );
      ]
  in
  (* Percentiles per window; [scale] takes latencies to reference
     speed. *)
  let windows ~scale =
    List.concat
      (List.map2
         (fun r k ->
           Stats.split p.windows
             (Array.map (fun l -> if scale then l *. k else l) r.Openloop.latency_ms))
         nom.runs factors)
  in
  let raw = windows ~scale:false and wins = windows ~scale:true in
  let per_window = Array.length (List.hd wins) in
  let fastest_windows ws q = Stats.windowed ~over:10. ws q in
  let p50 = fastest_windows wins 50. and p99 = fastest_windows wins 99. in
  let tail = fastest_windows wins p.tail in
  let (a0, f0, w0) = Metrics.tally nom.verdicts in
  (* in a probe, a shed or timeout is a latency miss, not a failure;
     wrong answers still count *)
  let (a1, _, w1) = Metrics.tally (Array.concat (List.map (fun ph -> ph.verdicts) !probes)) in
  let attempted = a0 + a1 and failed = f0 + w1 and wrong = w0 + w1 in
  let window_note q v =
    Printf.sprintf "%.4f ms (measured %.4f) at %.0f/s (lower decile of %d windows of n=%d, %d beyond)" v
      (fastest_windows raw q) rate (List.length wins) per_window (Stats.beyond ~n:per_window q)
  in
  {
    Metrics.attempted;
    failed;
    wrong;
    metrics =
      [
        ("setup_s", setup_s);
        ("op_p50_ms", p50);
        ("op_tail_ms", tail);
        ("throughput_per_s", capacity);
      ];
    notes =
      [
        Speed.note (Array.of_list factors);
        ("admit_p50_ms", window_note 50. p50);
        (Printf.sprintf "admit_p%g_ms" p.tail, window_note p.tail tail);
        ("admit_p99_ms", window_note 99. p99 ^ Printf.sprintf "; limit %g ms" limit_ms);
        ( "admit_capacity_per_s",
          Printf.sprintf "%.1f 1/s (measured %.1f; lines per second in handle_batch, upper decile of %d segments)"
            capacity raw_capacity (List.length nom.runs) );
      ]
      @ search_note
      @ [
          ( "fail_share",
            Printf.sprintf "%.4f (%d of %d; %d wrong)" (Metrics.ratio (float failed) (float attempted))
              failed attempted wrong );
          ("top_heap_mb", Printf.sprintf "%.1f MB" (Metrics.top_heap_mb ()));
        ];
  }

(* Churn replays one stream of [churn_lines] fresh shapes, each replay
   on a fresh engine, so every line misses the cache every time.  Each
   line's latency and service time is its fastest replay: the replays
   run the same requests on the same schedule, so they differ only in
   what the machine did meanwhile. *)
let churn_lines = 900

let measure_churn ~seed ~seconds =
  let rng = Random.State.make [| seed; 2 |] in
  let warm = warm_lines Churn [||] in
  let src = { s = churn_stream rng churn_lines; cursor = 0 } in
  let speed = Speed.create () in
  let (setup_s, _) = Metrics.setups ~speed 5 (setup warm) in
  let rate = nominal_rate Churn and limit_ms = limit_ms Churn in
  let per_segment = int_of_float (rate *. segment_s Churn) in
  let segments = Stdlib.max 1 (churn_lines / per_segment) in
  let refs = references () in
  (* every reference solved once, before the first replay *)
  Array.iter (function Shape sh -> ignore (refs sh) | Malformed _ -> ()) src.s.items;
  (* the kernel runs in the gaps between lines, every 50 ms *)
  let clock = Openloop.real_clock_with ~idle:(fun () -> Speed.tick speed) in
  let t0 = Clock.now () in
  let rec replays acc =
    let engine = setup warm () in
    src.cursor <- 0;
    let t = Clock.now () in
    let ph =
      phase (handle engine) src ~rate ~refs ~segments ~per_segment ~clock ~between:(sample_speed speed)
    in
    let acc = ph :: acc in
    let dt = Clock.now () -. t in
    if List.length acc < 2 || Clock.now () -. t0 +. dt <= seconds then replays acc else List.rev acc
  in
  let phases = replays [] in
  (* per line of a phase, its speed factor: a line falls due at i / rate
     into its segment *)
  let factors ph =
    Array.concat
      (List.map2
         (fun r (t0, _) ->
           Array.mapi
             (fun i l ->
               let due = t0 +. (float_of_int i /. rate) in
               Speed.factor speed ~t0:due ~t1:(due +. (l /. 1e3)))
             r.Openloop.latency_ms)
         ph.runs ph.spans)
  in
  let factors = List.map (fun ph -> (ph, factors ph)) phases in
  (* per line, its fastest replay; [scale] takes times to reference speed *)
  let per_line ~scale f =
    let cols =
      List.map
        (fun (ph, k) ->
          Array.mapi (fun i x -> if scale then x *. k.(i) else x) (cat f ph.runs))
        factors
    in
    Array.init (segments * per_segment) (fun i ->
        List.fold_left (fun m a -> Float.min m a.(i)) Float.infinity cols)
  in
  let latency r = r.Openloop.latency_ms and service r = r.Openloop.service_ms in
  let lat = Stats.sorted (per_line ~scale:true latency) in
  let raw = Stats.sorted (per_line ~scale:false latency) in
  let sum a = Array.fold_left ( +. ) 0. a /. 1e3 in
  let n = Array.length lat and nr = List.length phases in
  let capacity = float_of_int n /. sum (per_line ~scale:true service) in
  let raw_capacity = float_of_int n /. sum (per_line ~scale:false service) in
  let p50 = Stats.percentile lat 50. and p90 = Stats.percentile lat 90. and p99 = Stats.percentile lat 99. in
  let (attempted, failed, wrong) = Metrics.tally (Array.concat (List.map (fun ph -> ph.verdicts) phases)) in
  let line_note q v =
    Printf.sprintf "%.4f ms (measured %.4f) at %.0f/s (n=%d lines, fastest of %d replays, %d beyond)" v
      (Stats.percentile raw q) rate n nr (Stats.beyond ~n q)
  in
  {
    Metrics.attempted;
    failed;
    wrong;
    metrics =
      [
        ("setup_s", setup_s);
        ("op_p50_ms", p50);
        ("op_tail_ms", p90);
        ("throughput_per_s", capacity);
      ];
    notes =
      [
        Speed.note (Array.concat (List.map snd factors));
        ("admit_p50_ms", line_note 50. p50);
        ("admit_p90_ms", line_note 90. p90);
        ("admit_p99_ms", line_note 99. p99 ^ Printf.sprintf "; limit %g ms" limit_ms);
        ( "admit_capacity_per_s",
          Printf.sprintf "%.1f 1/s (measured %.1f; lines per second in handle_batch)" capacity
            raw_capacity );
        ( "fail_share",
          Printf.sprintf "%.4f (%d of %d; %d wrong)" (Metrics.ratio (float failed) (float attempted))
            failed attempted wrong );
        ("top_heap_mb", Printf.sprintf "%.1f MB" (Metrics.top_heap_mb ()));
      ];
  }

let measure kind ~seed ~seconds =
  match kind with Hot -> measure_hot ~seed ~seconds | Churn -> measure_churn ~seed ~seconds

(* Mean microseconds per call of [f] over [xs], repeated until at least
   50 ms of calls have run. *)
let us_per_call f xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let t0 = Clock.now () and calls = ref 0 in
    while Clock.now () -. t0 < 0.05 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      calls := !calls + n
    done;
    (Clock.now () -. t0) *. 1e6 /. float_of_int !calls
  end

(* The traced run: the nominal phase untraced, then a second nominal
   phase with telemetry on and a benchmark span around every
   handle_batch (churn draws fresh shapes for it, hot replays its pool).
   Open-loop figures (queue wait, batch size, service, lateness,
   allocation) come from the untraced half; counters and spans from the
   traced half. *)
let traced kind ~seed ~seconds =
  let rng = Random.State.make [| seed; (match kind with Hot -> 1 | Churn -> 2) |] in
  let (warm, src) = sources kind rng in
  let engine = setup warm () in
  let p = plan kind ~seconds:(seconds /. 2.) in
  let rate = nominal_rate kind in
  let refs = references () in
  let run_phase ?keep handle =
    phase ?keep handle src ~rate ~refs ~segments:p.segments ~per_segment:p.per_segment
  in
  let plain = run_phase ~keep:true (handle engine) in
  (* hot replays the same lines in the traced half *)
  (match kind with Hot -> src.cursor <- 0 | Churn -> ());
  (* solve the traced half's references now: solved inside the traced
     window they would add their own spans and counts to the trace *)
  let (items, _) = (* on a copy, so the cursor stays *)
    take { src with cursor = src.cursor } (p.segments * p.per_segment) in
  Array.iter (function Shape sh -> ignore (refs sh) | Malformed _ -> ()) items;
  let before = Trace.counters () in
  let tr = Trace.start () in
  let traced =
    run_phase (fun batch ->
        let r = Telemetry.span "serve.engine.handle_batch" (fun () -> handle engine batch) in
        Trace.maybe_flush tr;
        r)
  in
  Trace.stop tr;
  let after = Trace.counters () in
  let (attempted, failed, wrong) = Metrics.tally (Array.append plain.verdicts traced.verdicts) in
  let sum f runs = List.fold_left (fun a r -> a +. f r) 0. runs in
  let lines_of ph = float_of_int (Array.length ph.verdicts) in
  let busy ph = sum (fun r -> r.Openloop.busy_s) ph.runs in
  let miss_service =
    let svc = cat (fun r -> r.Openloop.service_ms) plain.runs in
    Array.of_list (List.filteri (fun i _ -> plain.miss.(i)) (Array.to_list svc))
  in
  let count a = float_of_int (Array.fold_left (fun n b -> if b then n + 1 else n) 0 a) in
  let sample k a = Array.sub a 0 (Stdlib.min k (Array.length a)) in
  let parse line = P.parse ~debug_ops:false line in
  {
    Metrics.attempted;
    failed;
    wrong;
    metrics =
      Metrics.from_trace tr ~before ~after
      @ [
          ("serve.protocol.parse_us", us_per_call parse (sample 20_000 plain.lines));
          ("serve.protocol.render_admit_us", us_per_call render (sample 20_000 plain.ok));
          ("serve.engine.us_per_req", 1e6 *. busy plain /. lines_of plain);
          ( "serve.batch_size_mean",
            lines_of plain /. sum (fun r -> float_of_int r.Openloop.batches) plain.runs );
          ( "serve.queue_wait_p99_ms",
            Stats.percentile (Stats.sorted (cat (fun r -> r.Openloop.wait_ms) plain.runs)) 99. );
          ( "serve.miss.service_ms_p50",
            if Array.length miss_service = 0 then 0. else Stats.median miss_service );
          ("serve.mode.approx_share", Metrics.ratio (count plain.approx) (float plain.answered));
          ("serve.alloc_words_per_req", sum (fun r -> r.Openloop.alloc_words) plain.runs /. lines_of plain);
          ( "bench.gen_late_p99_ms",
            Stats.percentile (Stats.sorted (cat (fun r -> r.Openloop.late_ms) plain.runs)) 99. );
          ("telemetry.overhead_ratio", busy traced /. lines_of traced /. (busy plain /. lines_of plain));
          ("bench.wall_s", sum (fun r -> r.Openloop.wall_s) plain.runs);
          ("bench.fail_share", Metrics.ratio (float failed) (float attempted));
          ("bench.top_heap_mb", Metrics.top_heap_mb ());
        ];
    notes = [];
  }

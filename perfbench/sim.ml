(* sim-tandem: Netsim.Tandem.run, one closed-loop caller, each engine on
   the traffic it is meant for.  The slotted default runs the paper's
   Markov model (dense: every slot carries data); the event engine runs
   sparse CBR through-traffic on a long path, where it skips idle slots.
   The seed only sets the PRNG streams. *)

module T = Netsim.Tandem

type job = {
  engine : T.engine;
  cfg : T.config;  (** seed left at 0; each run derives its own *)
  bound : float option;
      (** Markov configs: the Scenario delay bound at epsilon = 1e-3 plus
          one slot of store-and-forward per hop *)
}

(* Run lengths: a round of the ten jobs takes about 0.3 s, so in a 24 s
   run each distinct run repeats six to eight times. *)
let markov_slots = 3_000
let cbr_slots = 1_000_000

(* Through load is the paper's U0 = 15% (100 flows); cross traffic makes
   up the rest of U.  EDF deadlines are 10 ms (through) and 100 ms
   (cross), i.e. Edf_gap (-90) in the analysis. *)
let markov ~h ~u ~edf =
  let n_through = 100 in
  let mean = Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source in
  let n_cross = int_of_float (Float.round ((u -. 0.15) *. 100. /. mean)) in
  let scheduler = if edf then Scheduler.Classes.Edf_gap (-90.) else Scheduler.Classes.Fifo in
  let cfg =
    {
      T.default_config with
      T.h;
      n_through;
      n_cross;
      slots = markov_slots;
      drain_limit = markov_slots / 2;
      scheduler;
      through_deadline = 10.;
      cross_deadline = 100.;
    }
  in
  let sc =
    {
      (Deltanet.Scenario.paper_defaults ~h ~n_through:(float_of_int n_through)
         ~n_cross:(float_of_int n_cross))
      with
      Deltanet.Scenario.epsilon = 1e-3;
    }
  in
  let bound = Deltanet.Scenario.delay_bound ~s_points:16 ~scheduler sc +. float_of_int (h - 1) in
  {
    engine = T.Slotted;
    cfg;
    bound = Some bound;
  }

(* bench/main.ml's desim section config: H = 10, 50 kb every 200 slots,
   no cross traffic *)
let cbr () =
  {
    engine = T.Event;
    cfg =
      {
        T.default_config with
        T.h = 10;
        slots = cbr_slots;
        drain_limit = 2_000;
        through_kind = T.Cbr { period = 200; burst = 50. };
        n_cross = 0;
      };
    bound = None;
  }

(* Eight dense Markov jobs and the sparse job twice, so the event engine
   runs two of the ten runs of every round. *)
let jobs () =
  List.concat_map
    (fun h ->
      List.concat_map (fun u -> [ markov ~h ~u ~edf:false; markov ~h ~u ~edf:true ]) [ 0.5; 0.9 ])
    [ 5; 10 ]
  @ [ cbr (); cbr () ]
  |> Array.of_list

let with_seed job seed = { job.cfg with T.seed = seed }

(* Untimed parity check: both engines on a short prefix of the config
   must produce the same delay samples. *)
let parity job ~seed =
  let cfg = { (with_seed job seed) with T.slots = 1_000; drain_limit = 500 } in
  let samples engine = Desim.Stats.Sample.to_sorted_array (T.run ~engine cfg).T.delays in
  Oracle.engines_agree (samples T.Slotted) (samples T.Event)

(* Rounds cycle through [seed_sets] sets of per-run seeds, so each
   distinct run (set, job) repeats every [seed_sets] rounds and its time
   can be taken as its fastest repeat. *)
let seed_sets = 10

(* Per-run PRNG seed of round [r], job [j]: a fixed function of the
   benchmark seed. *)
let seed_of ~seed r j = Int64.of_int ((seed * 1_000_003) + (r mod seed_sets * 97) + j)

type run = {
  job : int;
  t0 : float;  (** when the run started *)
  wall_s : float;
  samples : int;
  events : int;
  alloc_words : float;
  within_bound : bool;
}

let run_one ?(wrap = fun _ f -> f ()) ~seed r j job =
  let cfg = with_seed job (seed_of ~seed r j) in
  let span = match job.engine with T.Slotted -> "netsim.run.slotted" | T.Event -> "desim.run.event" in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let res = wrap span (fun () -> T.run ~engine:job.engine cfg) in
  let wall_s = Clock.now () -. t0 in
  let alloc_words = Gc.minor_words () -. w0 in
  let within_bound =
    match job.bound with
    | None -> true
    | Some bound -> Oracle.quantile_within ~quantile:(T.delay_quantile res 0.999) ~bound
  in
  {
    job = j;
    t0;
    wall_s;
    samples = Desim.Stats.Sample.count res.T.delays;
    events = res.T.events_processed;
    alloc_words;
    within_bound;
  }

(* Rounds over every job, while the next round still fits in [seconds]
   (at least one), or exactly [rounds] of them; [between] runs after
   each job, outside its timing. *)
let rounds ?wrap ?(between = ignore) ~seed ~jobs limit =
  let t0 = Clock.now () in
  let one r j job =
    let x = run_one ?wrap ~seed r j job in
    between ();
    x
  in
  let rec go r acc =
    let t_round = Clock.now () in
    let acc = List.rev_append (List.mapi (one r) (Array.to_list jobs)) acc in
    let dt = Clock.now () -. t_round in
    let more =
      match limit with
      | `Seconds s -> Clock.now () -. t0 +. dt <= s
      | `Rounds n -> r + 1 < n
    in
    if more then go (r + 1) acc else (r + 1, List.rev acc)
  in
  go 0 []

let setup jobs () =
  Parallel.Default.set_jobs 1;
  ignore (Parallel.Default.get ());
  (* warm-up: a short run of every job, so lazy initialisation is not
     charged to the first timed runs *)
  Array.iter
    (fun job ->
      ignore
        (Sys.opaque_identity
           (T.run ~engine:job.engine { job.cfg with T.slots = 500; drain_limit = 100 })))
    jobs

(* Verdicts: a run fails when its Markov quantile exceeds the bound, or
   when its job failed the engine-parity check. *)
let verdicts ~seed jobs runs =
  let parity_ok = Array.mapi (fun j job -> parity job ~seed:(seed_of ~seed 0 j)) jobs in
  Array.of_list
    (List.map
       (fun r -> if r.within_bound && parity_ok.(r.job) then Oracle.Pass else Oracle.Wrong)
       runs)

let pkts runs = List.fold_left (fun n r -> n + r.samples) 0 runs
let wall runs = List.fold_left (fun s r -> s +. r.wall_s) 0. runs

(* The fastest repeat of each distinct run (seed set, job), its time
   scaled by [f]: repeats are the same simulation, so they differ only in
   what the machine did meanwhile. *)
let fastest ?(f = fun _ -> 1.) ~jobs runs =
  let best = Hashtbl.create 128 in
  List.iteri
    (fun i r ->
      let key = ((i / Array.length jobs) mod seed_sets, r.job) in
      let r = { r with wall_s = r.wall_s *. f r } in
      match Hashtbl.find_opt best key with
      | Some b when b.wall_s <= r.wall_s -> ()
      | _ -> Hashtbl.replace best key r)
    runs;
  Hashtbl.fold (fun _ r acc -> r :: acc) best []

let measure ~seed ~seconds =
  let jobs = jobs () in
  let speed = Speed.create () in
  let (setup_s, ()) = Metrics.setups ~speed 5 (setup jobs) in
  let (n_rounds, runs) = rounds ~seed ~jobs (`Seconds seconds) ~between:(fun () -> Speed.tick speed) in
  let at_ref r = Speed.factor speed ~t0:r.t0 ~t1:(r.t0 +. r.wall_s) in
  let measured = fastest ~jobs runs and best = fastest ~f:at_ref ~jobs runs in
  let ms runs = Stats.sorted (Array.of_list (List.map (fun r -> r.wall_s *. 1e3) runs)) in
  let raw = ms measured and lat = ms best in
  let (attempted, failed, wrong) = Metrics.tally (verdicts ~seed jobs runs) in
  let n = Array.length lat in
  (* through delay samples per second of Tandem.run wall, each distinct
     run at its fastest *)
  let pps = float_of_int (pkts best) /. wall best in
  let raw_pps = float_of_int (pkts measured) /. wall measured in
  let repeats = float_of_int (List.length runs) /. float_of_int n in
  {
    Metrics.attempted;
    failed;
    wrong;
    metrics =
      [
        ("setup_s", setup_s);
        ("op_p50_ms", Stats.percentile lat 50.);
        ("op_tail_ms", Stats.percentile lat 90.);
        ("throughput_per_s", pps);
      ];
    notes =
      [
        Speed.note (Array.of_list (List.map at_ref runs));
        ( "sim_pkts_per_s",
          Printf.sprintf "%.1f 1/s (measured %.1f; %d distinct runs, fastest of %.1f repeats, %d rounds)"
            pps raw_pps n repeats n_rounds );
        ( "run_p50_ms",
          Printf.sprintf "%.4f ms (measured %.4f; n=%d)" (Stats.percentile lat 50.)
            (Stats.percentile raw 50.) n );
        ( "run_p90_ms",
          Printf.sprintf "%.4f ms (measured %.4f; n=%d, %d beyond)" (Stats.percentile lat 90.)
            (Stats.percentile raw 90.) n (Stats.beyond ~n 90.) );
        ( "fail_share",
          Printf.sprintf "%.4f (%d of %d; %d wrong)" (Metrics.ratio (float failed) (float attempted))
            failed attempted wrong );
        ("top_heap_mb", Printf.sprintf "%.1f MB" (Metrics.top_heap_mb ()));
      ];
  }

let traced ~seed ~seconds =
  let jobs = jobs () in
  setup jobs ();
  let (n_rounds, plain) = rounds ~seed ~jobs (`Seconds (seconds /. 2.)) in
  let before = Trace.counters () in
  let tr = Trace.start () in
  let (_, traced) =
    rounds ~seed ~jobs (`Rounds n_rounds) ~wrap:(fun name f ->
        let r = Telemetry.span name f in
        Trace.maybe_flush tr;
        r)
  in
  Trace.stop tr;
  let after = Trace.counters () in
  let (attempted, failed, wrong) = Metrics.tally (verdicts ~seed jobs (plain @ traced)) in
  (* times from the untraced half; event counts are engine results *)
  let is_event r = match jobs.(r.job).engine with T.Event -> true | T.Slotted -> false in
  let (event, slotted) = List.partition is_event plain in
  let events = float_of_int (List.fold_left (fun n r -> n + r.events) 0 event) in
  let alloc = List.fold_left (fun s r -> s +. r.alloc_words) 0. plain in
  {
    Metrics.attempted;
    failed;
    wrong;
    metrics =
      Metrics.from_trace tr ~before ~after
      @ [
          ("netsim.slotted.ns_per_pkt", 1e9 *. wall slotted /. float_of_int (pkts slotted));
          ("desim.event.ns_per_pkt", 1e9 *. wall event /. float_of_int (pkts event));
          ("desim.events_per_pkt", events /. float_of_int (pkts event));
          ("desim.ns_per_event", 1e9 *. wall event /. events);
          ("netsim.alloc_words_per_pkt", alloc /. float_of_int (pkts plain));
          ("telemetry.overhead_ratio", wall traced /. wall plain);
          ("bench.wall_s", wall plain);
          ("bench.fail_share", Metrics.ratio (float failed) (float attempted));
          ("bench.top_heap_mb", Metrics.top_heap_mb ());
        ];
    notes = [ ("traced_rounds", string_of_int n_rounds) ];
  }

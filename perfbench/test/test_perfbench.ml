(* Tests of the benchmark's own machinery: percentiles, the open-loop
   driver and rate search on a fake engine, the correctness oracles on
   seeded wrong answers, and the metric table against BENCHMARK.json. *)

open Perfbench

let close = Alcotest.float 1e-9

(* ---------------- percentiles ---------------- *)

let test_nearest_rank () =
  let a = Stats.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check close "p50" 50. (Stats.percentile a 50.);
  Alcotest.check close "p95" 95. (Stats.percentile a 95.);
  Alcotest.check close "p99" 99. (Stats.percentile a 99.);
  Alcotest.check close "p100" 100. (Stats.percentile a 100.);
  Alcotest.check close "p0 is the minimum" 1. (Stats.percentile a 0.);
  (* no interpolation: p50 of two samples is the lower one *)
  Alcotest.check close "p50 of 2" 1. (Stats.percentile [| 1.; 2. |] 50.);
  Alcotest.check close "median" 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 50.))

(* Every tail the workloads report keeps at least ten samples beyond it
   at the sample sizes a run produces. *)
let test_beyond_rule () =
  Alcotest.(check int) "1000 @ p99" 10 (Stats.beyond ~n:1000 99.);
  Alcotest.(check int) "999 @ p99 falls short" 9 (Stats.beyond ~n:999 99.);
  let at_least_ten (what, n, p) =
    Alcotest.(check bool) what true (Stats.beyond ~n p >= 10)
  in
  List.iter at_least_ten
    [
      ("paper-figs: p95 of 345 bounds", 345, 95.);
      ("admit-hot: p95 of a 100 ms window", 4000, 95.);
      ("admit-churn: p90 of the replayed lines", Admit.churn_lines, 90.);
      ("sim-tandem: p90 of the distinct runs", Sim.seed_sets * Array.length (Sim.jobs ()), 90.);
    ];
  let n = Array.length (Figs.grid ()) in
  Alcotest.(check int) "the figure grid" 345 n;
  Alcotest.(check int) "17 beyond its p95" 17 (Stats.beyond ~n 95.)

(* ---------------- open loop on a fake engine ---------------- *)

(* Virtual time: waiting jumps the clock, and the engine costs [service]
   seconds per line of a batch. *)
let fake ~service =
  let v = ref 0. in
  let clock = { Openloop.now = (fun () -> !v); wait_until = (fun t -> v := Float.max !v t) } in
  let handle batch =
    v := !v +. (service *. float_of_int (List.length batch));
    List.map (fun _ -> "ok") batch
  in
  (clock, handle)

let lines n = Array.make n "line"

let test_below_capacity () =
  let (clock, handle) = fake ~service:0.001 in
  let r = Openloop.run ~clock ~handle ~rate:500. (lines 1000) in
  Array.iter (fun l -> Alcotest.check close "latency = service" 1. l) r.Openloop.latency_ms;
  Array.iter (fun w -> Alcotest.check close "no queue wait" 0. w) r.Openloop.wait_ms;
  Array.iter (fun w -> Alcotest.check close "generator on time" 0. w) r.Openloop.late_ms;
  Alcotest.(check int) "one line per batch" 1000 r.Openloop.batches;
  Alcotest.(check bool) "growing" false (Openloop.growing ~limit_ms:5. r);
  Alcotest.(check bool) "meets 5 ms" true (Openloop.meets ~limit_ms:5. ~missed:(fun _ -> false) r);
  (* a failed request misses any limit *)
  Alcotest.(check bool) "failures count as misses" false
    (Openloop.meets ~limit_ms:5. ~missed:(fun i -> i mod 50 = 0) r)

let test_above_capacity () =
  let (clock, handle) = fake ~service:0.001 in
  let r = Openloop.run ~clock ~handle ~rate:2000. (lines 1000) in
  let last_ms = r.Openloop.latency_ms.(999) in
  (* 1000 lines offered in 0.5 s take 1 s to serve *)
  Alcotest.(check bool) (Printf.sprintf "backlog builds (%.1f ms)" last_ms) true (last_ms > 100.);
  Alcotest.(check bool) "growing" true (Openloop.growing ~limit_ms:5. r);
  Alcotest.(check bool) "rejected" false (Openloop.meets ~limit_ms:5. ~missed:(fun _ -> false) r);
  (* lateness of the generator stays zero: every delay is the engine's *)
  Array.iter (fun l -> Alcotest.check close "generator on time" 0. l) r.Openloop.late_ms;
  (* 5% over capacity: the p99 still fits a 120 ms limit, but the queue
     wait grows through the run, so the rate is rejected all the same *)
  let (clock, handle) = fake ~service:0.001 in
  let r = Openloop.run ~clock ~handle ~rate:1050. (lines 1000) in
  let p99 = Stats.percentile (Stats.sorted r.Openloop.latency_ms) 99. in
  Alcotest.(check bool) (Printf.sprintf "p99 %.1f ms within limit" p99) true (p99 <= 120.);
  Alcotest.(check bool) "growth rejects" false (Openloop.meets ~limit_ms:120. ~missed:(fun _ -> false) r)

let test_max_rate () =
  let probes = ref [] in
  let probe rate =
    let (clock, handle) = fake ~service:0.001 in
    let r = Openloop.run ~clock ~handle ~rate (lines 1000) in
    let ok = Openloop.meets ~limit_ms:5. ~missed:(fun _ -> false) r in
    probes := (rate, ok) :: !probes;
    ok
  in
  let best = Openloop.max_rate ~probe ~lo:100. ~hi:10_000. ~factor:1.25 ~steps:8 in
  (* capacity is 1000 lines/s *)
  Alcotest.(check bool) (Printf.sprintf "max rate %.1f near capacity" best) true
    (best > 950. && best <= 1010.);
  Alcotest.(check bool) "2x capacity rejected" false (probe 2000.);
  (* every probe above capacity failed, every one below passed *)
  List.iter
    (fun (r, ok) -> if r > 1010. && ok then Alcotest.failf "%.1f/s passed above capacity" r)
    !probes;
  (* a probe that passes at [hi] ends the search there *)
  Alcotest.check close "hi passes" 500.
    (Openloop.max_rate ~probe ~lo:100. ~hi:500. ~factor:1.25 ~steps:8)

(* ---------------- reference speed ---------------- *)

(* Samples at 0.1 s steps; the kernel took 2 ms, except for a stall at
   0.5 s and a slow stretch from 2 s on. *)
let samples () =
  let at = Array.init 40 (fun i -> 0.1 *. float_of_int (i + 1)) in
  let took = Array.map (fun t -> if t >= 2. then 3e-3 else if Float.abs (t -. 0.5) < 0.01 then 9e-3 else 2e-3) at in
  { Speed.at; took; samples = 40; last = 4. }

let test_speed () =
  let s = samples () in
  (* a unit at 1 s reads the fastest sample within reach: 2 ms *)
  Alcotest.check close "steady" (Speed.nominal_s /. 2e-3) (Speed.factor s ~t0:1. ~t1:1.01);
  (* the stall at 0.5 s is one sample among several in reach *)
  Alcotest.check close "stall ignored" (Speed.nominal_s /. 2e-3) (Speed.factor s ~t0:0.5 ~t1:0.51);
  (* in the slow stretch every sample in reach is slow *)
  Alcotest.check close "slow stretch" (Speed.nominal_s /. 3e-3) (Speed.factor s ~t0:3. ~t1:3.2);
  (* with no sample in reach the run's fastest is used *)
  Alcotest.check close "none in reach" (Speed.nominal_s /. 2e-3) (Speed.factor s ~t0:10. ~t1:11.);
  Alcotest.check close "no samples" 1. (Speed.factor (Speed.create ()) ~t0:0. ~t1:1.);
  (* the kernel runs and is timed *)
  let live = Speed.create () in
  Speed.sample live;
  Speed.tick live;
  Alcotest.(check int) "tick waits its turn" 1 live.Speed.samples;
  Alcotest.(check bool) "kernel timed" true (live.Speed.took.(0) > 0.)

(* ---------------- workload inputs ---------------- *)

(* Churn's stream holds every (H, scheduler) pair about once per 60
   shapes and one malformed line per hundred, in the same numbers
   whatever the seed. *)
let test_churn_mix () =
  let mix seed =
    let st = Admit.churn_stream (Random.State.make [| seed |]) 600 in
    let shapes =
      List.filter_map
        (function Admit.Shape s -> Some s | Admit.Malformed _ -> None)
        (Array.to_list st.Admit.items)
    in
    Alcotest.(check int) "malformed lines" 6 (600 - List.length shapes);
    List.iter
      (fun s ->
        if s.Admit.u0 < 0.05 || s.Admit.u0 > 0.3 || s.Admit.uc < 0.05 || s.Admit.uc > 0.55 then
          Alcotest.failf "seed %d: utilization out of range" seed)
      shapes;
    List.concat_map
      (fun h ->
        List.map
          (fun sched -> List.length (List.filter (fun s -> s.Admit.h = h && s.Admit.sched = sched) shapes))
          (Array.to_list Admit.scheds))
      (List.init 15 (fun i -> i + 2))
  in
  let m1 = mix 1 in
  List.iter (fun c -> if c < 8 then Alcotest.failf "a pair drawn %d times" c) m1;
  Alcotest.(check (list int)) "seed 2" m1 (mix 2);
  Alcotest.(check (list int)) "seed 3" m1 (mix 3)

(* A distinct sim run's time is its fastest repeat. *)
let test_sim_fastest () =
  let jobs = Sim.jobs () in
  let nj = Array.length jobs in
  let run i wall_s =
    { Sim.job = i mod nj; t0 = 0.; wall_s; samples = 10; events = 0; alloc_words = 0.; within_bound = true }
  in
  (* round r + seed_sets repeats round r *)
  let runs =
    List.init (2 * Sim.seed_sets * nj) (fun i -> run i (if i < Sim.seed_sets * nj then 2. else 1.))
  in
  let best = Sim.fastest ~jobs runs in
  Alcotest.(check int) "distinct runs" (Sim.seed_sets * nj) (List.length best);
  List.iter (fun r -> Alcotest.check close "fastest repeat" 1. r.Sim.wall_s) best;
  let scaled = Sim.fastest ~f:(fun _ -> 0.5) ~jobs runs in
  List.iter (fun r -> Alcotest.check close "at reference speed" 0.5 r.Sim.wall_s) scaled

(* ---------------- oracles on seeded wrong answers ---------------- *)

let converged v = { Oracle.value = v; status = Deltanet.Diag.Converged; gap = 0. }

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with Oracle.Pass -> "pass" | Oracle.Flagged -> "flagged" | Oracle.Wrong -> "wrong"))
    ( = )

let test_figs_oracle () =
  let reproduces = Fun.const 30. in
  let cell ?(recompute = reproduces) bmux fifo edf =
    Oracle.figs_cell ~recompute
      [ (Oracle.Bmux, bmux); (Oracle.Fifo, fifo); (Oracle.Edf 10., edf); (Oracle.Additive, converged 99.) ]
  in
  let pass = Oracle.[ Pass; Pass; Pass; Pass ] in
  Alcotest.(check (list verdict)) "ordered cell" pass (cell (converged 50.) (converged 40.) (converged 30.));
  Alcotest.(check (list verdict)) "diverged EDF"
    Oracle.[ Pass; Pass; Flagged; Pass ]
    (cell (converged 50.) (converged 40.) { (converged 30.) with Oracle.status = Deltanet.Diag.Diverged });
  Alcotest.(check (list verdict)) "FIFO above BMUX"
    Oracle.[ Pass; Wrong; Pass; Pass ]
    (cell (converged 50.) (converged 51.) (converged 30.));
  Alcotest.(check (list verdict)) "EDF above FIFO"
    Oracle.[ Pass; Pass; Wrong; Pass ]
    (cell ~recompute:(Fun.const 45.) (converged 50.) (converged 40.) (converged 45.));
  Alcotest.(check (list verdict)) "EDF not a fixed point"
    Oracle.[ Pass; Pass; Wrong; Pass ]
    (cell ~recompute:(Fun.const 30.1) (converged 50.) (converged 40.) (converged 30.));
  Alcotest.(check (list verdict)) "within 1e-9 is ordered" pass
    (cell (converged 50.) (converged (50. *. (1. +. 1e-12))) (converged 30.));
  Alcotest.(check (list verdict)) "converged nan" Oracle.[ Wrong; Pass; Pass; Pass ]
    (cell (converged Float.nan) (converged 40.) (converged 30.));
  (* EDF with ratio < 1 favours cross traffic: no ordering against FIFO *)
  Alcotest.(check (list verdict)) "EDF ratio 1/2 may exceed FIFO" Oracle.[ Pass; Pass ]
    (Oracle.figs_cell ~recompute:(Fun.const 60.) [ (Oracle.Fifo, converged 40.); (Oracle.Edf 0.5, converged 60.) ])

let response ?(mode = Serve.Protocol.Exact) ~admitted ~bound () =
  Serve.Protocol.render_admit ~id:"r1" ~trace:"t-1" ~admitted ~bound_ms:bound ~deadline_ms:50. ~mode
    ~cache_hit:true ~elapsed_ms:0.01 ()

let test_admit_oracle () =
  let valid = Oracle.Valid { deadline = 50.; reference = 40.; converged = true } in
  let check name want expect resp = Alcotest.check verdict name want (Oracle.admit_response expect resp) in
  check "exact match" Oracle.Pass valid (response ~admitted:true ~bound:40. ());
  check "exact differs" Oracle.Wrong valid (response ~admitted:true ~bound:40.000001 ());
  check "approx looser" Oracle.Pass valid (response ~mode:Serve.Protocol.Approx ~admitted:true ~bound:45. ());
  check "approx below reference" Oracle.Wrong valid
    (response ~mode:Serve.Protocol.Approx ~admitted:true ~bound:39. ());
  check "admit disagrees" Oracle.Wrong valid (response ~admitted:false ~bound:40. ());
  check "not json" Oracle.Wrong valid "{\"status\":\"ok\"";
  check "shed" Oracle.Flagged valid (Serve.Protocol.render_shed ~retry_after_ms:5. ());
  check "timeout" Oracle.Flagged valid (Serve.Protocol.render_timeout ~elapsed_ms:300. ~budget_ms:250. ());
  check "reference unconverged" Oracle.Flagged
    (Oracle.Valid { deadline = 50.; reference = 40.; converged = false })
    (response ~admitted:false ~bound:40. ());
  check "admit over the deadline" Oracle.Wrong
    (Oracle.Valid { deadline = 39.; reference = 40.; converged = true })
    (response ~admitted:true ~bound:40. ());
  let err kind = Serve.Protocol.render_error ~kind ~detail:"x" () in
  check "typed parse error" Oracle.Pass (Oracle.Malformed "parse-error") (err Serve.Protocol.Parse_error);
  check "wrong error code" Oracle.Wrong (Oracle.Malformed "parse-error")
    (err Serve.Protocol.Invalid_request);
  check "malformed answered ok" Oracle.Wrong (Oracle.Malformed "invalid-request")
    (response ~admitted:true ~bound:40. ())

(* The engine's own answers pass against the benchmark's reference, and
   loadgen's malformed lines get the codes the workload expects. *)
let test_admit_oracle_engine () =
  let engine = Serve.Engine.create Admit.config in
  let shape = { Admit.h = 4; u0 = 0.15; uc = 0.3; sched = "edf"; deadline = 40. } in
  let refs = Admit.references () in
  List.iter
    (fun item ->
      let resp = Serve.Engine.handle_line engine (Admit.text 0 item) in
      Alcotest.check verdict resp Oracle.Pass (Oracle.admit_response (Admit.expect refs item) resp))
    (Admit.Shape shape :: Admit.Shape shape :: List.init 5 (fun k -> Admit.Malformed k))

let test_sim_oracles () =
  Alcotest.(check bool) "same samples" true (Oracle.engines_agree [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "one sample off" false (Oracle.engines_agree [| 1.; 2. |] [| 1.; 2.0000001 |]);
  Alcotest.(check bool) "one sample missing" false (Oracle.engines_agree [| 1.; 2. |] [| 1. |]);
  Alcotest.(check bool) "quantile under bound" true (Oracle.quantile_within ~quantile:9. ~bound:10.);
  Alcotest.(check bool) "quantile over bound" false (Oracle.quantile_within ~quantile:11. ~bound:10.)

(* ---------------- BENCHMARK.json ---------------- *)

let test_benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = match Serve.Sjson.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let table key =
    match Serve.Sjson.member key j with
    | Some (Serve.Sjson.Arr rows) ->
      List.map
        (fun r ->
          let s k = Option.get (Option.bind (Serve.Sjson.member k r) Serve.Sjson.to_string) in
          (s "name", s "unit"))
        rows
    | _ -> Alcotest.failf "no %s list" key
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Metrics.end_to_end (table "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Metrics.per_layer (table "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten beyond" `Quick test_beyond_rule;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "churn mix" `Quick test_churn_mix;
          Alcotest.test_case "sim fastest" `Quick test_sim_fastest;
        ] );
      ("speed", [ Alcotest.test_case "reference speed" `Quick test_speed ]);
      ( "openloop",
        [
          Alcotest.test_case "below capacity" `Quick test_below_capacity;
          Alcotest.test_case "above capacity" `Quick test_above_capacity;
          Alcotest.test_case "max rate" `Quick test_max_rate;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "figs" `Quick test_figs_oracle;
          Alcotest.test_case "admit" `Quick test_admit_oracle;
          Alcotest.test_case "admit vs engine" `Quick test_admit_oracle_engine;
          Alcotest.test_case "sim" `Quick test_sim_oracles;
        ] );
      ("metrics", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
    ]

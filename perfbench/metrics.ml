(* The benchmark's metric names and units; BENCHMARK.json lists the same
   names (a test keeps the two in step).  End-to-end metrics come from
   untraced runs, per-layer metrics from the traced run. *)

(* One operation is one bound on paper-figs, one request line at the
   nominal rate on admit-*, and one Tandem.run on sim-tandem. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("throughput_per_s", "1/s");
  ]

let per_layer =
  [
    ("core.bound.bmux_s", "s");
    ("core.bound.fifo_s", "s");
    ("core.bound.edf_s", "s");
    ("core.bound.additive_s", "s");
    ("core.edf.iterations_per_bound", "count");
    ("core.edf.nonconverged", "count");
    ("core.s_grid.evals", "count");
    ("core.s_grid.self_s", "s");
    ("core.gamma.evals_per_search", "count");
    ("core.gamma_search.self_s", "s");
    ("core.eq38.evals", "count");
    ("core.eq38.ns_per_eval", "ns");
    ("core.additive.node_steps", "count");
    ("core.additive.self_s", "s");
    ("core.alloc_words_per_bound", "words");
    ("parallel.tasks", "count");
    ("parallel.chunks", "count");
    ("serve.protocol.parse_us", "us");
    ("serve.protocol.render_admit_us", "us");
    ("serve.engine.us_per_req", "us");
    ("serve.batch_size_mean", "count");
    ("serve.queue_wait_p99_ms", "ms");
    ("serve.miss.service_ms_p50", "ms");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.cache.evictions", "count");
    ("serve.mode.approx_share", "ratio");
    ("serve.shed", "count");
    ("serve.timeout", "count");
    ("serve.errors", "count");
    ("serve.alloc_words_per_req", "words");
    ("netsim.slotted.ns_per_pkt", "ns");
    ("netsim.node.slots", "count");
    ("netsim.node.offers", "count");
    ("desim.event.ns_per_pkt", "ns");
    ("desim.events_per_pkt", "count");
    ("desim.ns_per_event", "ns");
    ("netsim.alloc_words_per_pkt", "words");
    ("telemetry.overhead_ratio", "ratio");
    ("telemetry.ring.dropped", "count");
    ("bench.gen_late_p99_ms", "ms");
    ("bench.wall_s", "s");
    ("bench.fail_share", "ratio");
    ("bench.top_heap_mb", "MB");
  ]

type outcome = {
  attempted : int;
  failed : int;  (** operations failed, flagged by the program or wrong *)
  wrong : int;  (** of those, outputs the program presented as valid *)
  metrics : (string * float) list;
  notes : (string * string) list;
      (** human-readable lines printed above the result: the figure-level
          metric names (figs_wall_s, admit_p99_ms, ...) with sample counts *)
}

(* Count verdicts into (attempted, failed, wrong). *)
let tally verdicts =
  Array.fold_left
    (fun (a, f, w) v ->
      match v with
      | Oracle.Pass -> (a + 1, f, w)
      | Oracle.Flagged -> (a + 1, f + 1, w)
      | Oracle.Wrong -> (a + 1, f + 1, w + 1))
    (0, 0, 0) verdicts

let ratio a b = if b > 0. then a /. b else 0.

(* Median time of [k] fresh set-ups at reference speed, and the last
   one's state; the kernel is sampled around each set-up. *)
let setups ~speed k f =
  let times = Array.make k 0. in
  let last = ref None in
  for i = 0 to k - 1 do
    Speed.sample speed;
    let t0 = Clock.now () in
    let v = f () in
    let t1 = Clock.now () in
    Speed.sample speed;
    times.(i) <- (t1 -. t0) *. Speed.factor speed ~t0 ~t1;
    last := Some v
  done;
  (Stats.median times, Option.get !last)

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Per-layer values shared by every workload's traced run: counter deltas
   and span self times read from the program's own telemetry. *)
let from_trace tr ~before ~after =
  let d name = float_of_int (Trace.delta before after name) in
  let gamma_calls = float_of_int (Trace.calls tr "e2e.gamma_search") in
  let gamma_self = Trace.self_s tr "e2e.gamma_search" in
  let eq38 = d "e2e.eq38.objective_evals" in
  [
    ("core.s_grid.evals", d "scenario.s_grid.evals");
    ("core.s_grid.self_s", Trace.self_s tr "scenario.s_grid");
    ("core.gamma.evals_per_search", ratio (d "e2e.gamma.evals") gamma_calls);
    ("core.gamma_search.self_s", gamma_self);
    ("core.eq38.evals", eq38);
    ("core.eq38.ns_per_eval", 1e9 *. ratio gamma_self eq38);
    ("core.additive.node_steps", d "additive.node_steps");
    ( "core.additive.self_s",
      Trace.self_s tr "additive.gamma_search" +. Trace.self_s tr "additive.s_grid" );
    ("parallel.tasks", d "parallel.pool.tasks");
    ("parallel.chunks", d "parallel.pool.chunks");
    ("serve.cache.evictions", d "serve.cache.evictions");
    ( "serve.cache.hit_ratio",
      ratio (d "serve.cache.hits") (d "serve.cache.hits" +. d "serve.cache.misses") );
    ("serve.shed", d "serve.shed");
    ("serve.timeout", d "serve.timeout");
    ("serve.errors", d "serve.errors");
    ("netsim.node.slots", d "netsim.node.slots");
    ("netsim.node.offers", d "netsim.node.offers");
    ("telemetry.ring.dropped", float_of_int tr.Trace.dropped);
  ]

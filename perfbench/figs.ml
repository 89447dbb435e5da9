(* paper-figs: every bound of Figs. 2-4 on the paper's own grid, one
   closed-loop caller.  The grid does not depend on the seed; the H = 10
   cells, where the EDF fixed point diverges today, stay in. *)

module Sc = Deltanet.Scenario
module Classes = Scheduler.Classes

let s_points = 16

type op = { cell : int; sc : Sc.t; col : Oracle.column }

(* Figs. 2-4 exactly as the paper (and bench/main.ml) lays them out:
   fig2 H in {2,5,10} x U in {20..95%} at U0 = 15%, columns BMUX, FIFO,
   EDF(ratio 10); fig3 H in {2,5,10} x Uc/U in {10..90%} at U = 50%,
   columns BMUX, FIFO, EDF(ratio 2), EDF(ratio 1/2); fig4 U in
   {10,50,90%} x H in {1..30} at U0 = Uc, columns BMUX, FIFO, EDF(ratio
   10), additive. *)
let grid () =
  let cells = ref [] in
  let add sc cols = cells := (sc, cols) :: !cells in
  List.iter
    (fun h ->
      List.iter
        (fun u_pct ->
          let u = float_of_int u_pct /. 100. in
          add
            (Sc.of_utilization ~h ~u_through:0.15 ~u_cross:(u -. 0.15))
            [ Oracle.Bmux; Fifo; Edf 10. ])
        [ 20; 30; 40; 50; 60; 70; 80; 90; 95 ])
    [ 2; 5; 10 ];
  List.iter
    (fun h ->
      List.iter
        (fun mix_pct ->
          let u_cross = 0.5 *. float_of_int mix_pct /. 100. in
          add
            (Sc.of_utilization ~h ~u_through:(0.5 -. u_cross) ~u_cross)
            [ Oracle.Bmux; Fifo; Edf 2.; Edf 0.5 ])
        [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ])
    [ 2; 5; 10 ];
  List.iter
    (fun u_pct ->
      let u = float_of_int u_pct /. 200. in
      List.iter
        (fun h ->
          add (Sc.of_utilization ~h ~u_through:u ~u_cross:u) [ Oracle.Bmux; Fifo; Edf 10.; Additive ])
        [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 15; 20; 25; 30 ])
    [ 10; 50; 90 ];
  List.rev !cells
  |> List.mapi (fun cell (sc, cols) -> List.map (fun col -> { cell; sc; col }) cols)
  |> List.concat |> Array.of_list

let column_name = function
  | Oracle.Bmux -> "bmux"
  | Oracle.Fifo -> "fifo"
  | Oracle.Edf _ -> "edf"
  | Oracle.Additive -> "additive"

let of_outcome (o : float Deltanet.Diag.outcome) =
  { Oracle.value = o.Deltanet.Diag.value; status = o.Deltanet.Diag.diag.Deltanet.Diag.status; gap = 0. }

(* One public call per bound: the unit of work timed and checked. *)
let compute op =
  match op.col with
  | Oracle.Bmux -> of_outcome (Sc.delay_bound_checked ~s_points ~scheduler:Classes.Bmux op.sc)
  | Oracle.Fifo -> of_outcome (Sc.delay_bound_checked ~s_points ~scheduler:Classes.Fifo op.sc)
  | Oracle.Edf ratio ->
    let o = Sc.delay_bound_edf_checked ~s_points ~spec:{ Sc.cross_over_through = ratio } op.sc in
    let r = o.Deltanet.Diag.value in
    {
      Oracle.value = r.Sc.bound;
      status = o.Deltanet.Diag.diag.Deltanet.Diag.status;
      gap = r.Sc.d_through -. r.Sc.d_cross;
    }
  | Oracle.Additive ->
    let v = Deltanet.Additive.delay_bound_scenario ~s_points op.sc in
    { Oracle.value = v; status = Deltanet.Diag.Guard.status_of_value v; gap = 0. }

(* Verdict per op, cell by cell; the EDF recomputation runs untimed. *)
let check ops (results : Oracle.bound array) =
  let verdicts = Array.make (Array.length ops) Oracle.Pass in
  let i = ref 0 in
  while !i < Array.length ops do
    let cell = ops.(!i).cell in
    let j = ref !i in
    while !j < Array.length ops && ops.(!j).cell = cell do
      incr j
    done;
    let idx = List.init (!j - !i) (fun k -> !i + k) in
    let sc = ops.(!i).sc in
    let recompute gap = Sc.delay_bound ~s_points ~scheduler:(Classes.Edf_gap gap) sc in
    let vs = Oracle.figs_cell ~recompute (List.map (fun k -> (ops.(k).col, results.(k))) idx) in
    List.iter2 (fun k v -> verdicts.(k) <- v) idx vs;
    i := !j
  done;
  verdicts

type pass = {
  wall_s : float;
  op_ms : float array;
  op_t0 : float array;  (** when each call started *)
  alloc_words : float;  (** minor-heap words allocated by the bound calls *)
  results : Oracle.bound array;
}

(* One pass over every bound.  [wrap] lets the traced run put a span
   around each call; it is the identity otherwise.  [between] runs
   after each call, outside its timing. *)
let pass ?(wrap = fun _ f -> f ()) ?(between = ignore) ops =
  let n = Array.length ops in
  let span_names = Array.map (fun op -> "core.bound." ^ column_name op.col) ops in
  let op_ms = Array.make n 0. and op_t0 = Array.make n 0. in
  let alloc = ref 0. in
  let t_start = Clock.now () in
  let results =
    Array.mapi
      (fun i op ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now () in
        let r = wrap span_names.(i) (fun () -> compute op) in
        op_ms.(i) <- (Clock.now () -. t0) *. 1e3;
        op_t0.(i) <- t0;
        alloc := !alloc +. (Gc.minor_words () -. w0);
        between ();
        r)
      ops
  in
  { wall_s = Clock.now () -. t_start; op_ms; op_t0; alloc_words = !alloc; results }

(* Set-up: the process-wide pool (jobs = 1) and a warm-up through every
   column of the last fig4 cell, so lazy initialisation is not charged to
   the first timed calls. *)
let setup ops () =
  Parallel.Default.set_jobs 1;
  ignore (Parallel.Default.get ());
  let last = ops.(Array.length ops - 1).cell in
  Array.iter (fun op -> if op.cell = last then ignore (Sys.opaque_identity (compute op))) ops

let verdict_counts ops passes =
  List.fold_left
    (fun (a, f, w) p ->
      let (a', f', w') = Metrics.tally (check ops p.results) in
      (a + a', f + f', w + w'))
    (0, 0, 0) passes

(* The untraced run: whole passes while the next one still fits in
   [seconds], and at least three.  Each bound's time is its fastest pass:
   a neighbour on a shared machine only ever adds time, and the passes
   lie seconds apart, so a bound slowed in one pass is rarely slowed in
   all.  Times are reported at reference speed ([Speed]). *)
let measure ~seconds =
  let ops = grid () in
  let speed = Speed.create () in
  let (setup_s, ()) = Metrics.setups ~speed 5 (setup ops) in
  let between () = Speed.tick speed in
  let t0 = Clock.now () in
  let rec go acc =
    let p = pass ~between ops in
    let acc = p :: acc in
    if List.length acc < 3 || Clock.now () -. t0 +. p.wall_s <= seconds then go acc else List.rev acc
  in
  let passes = go [] in
  let at_ref p i = Speed.factor speed ~t0:p.op_t0.(i) ~t1:(p.op_t0.(i) +. (p.op_ms.(i) /. 1e3)) in
  let factors = Array.concat (List.map (fun p -> Array.mapi (fun i _ -> at_ref p i) ops) passes) in
  let fastest f =
    Array.init (Array.length ops) (fun i ->
        List.fold_left (fun m p -> Float.min m (p.op_ms.(i) *. f p i)) Float.infinity passes)
  in
  let raw = Stats.sorted (fastest (fun _ _ -> 1.)) in
  let best = fastest at_ref in
  let lat = Stats.sorted best in
  let fastest_pass_s = Array.fold_left ( +. ) 0. raw /. 1e3 in
  let best_pass_s = Array.fold_left ( +. ) 0. best /. 1e3 in
  let wall = Stats.median (Array.of_list (List.map (fun p -> p.wall_s) passes)) in
  let (attempted, failed, wrong) = verdict_counts ops passes in
  let n = Array.length lat and np = List.length passes in
  {
    Metrics.attempted;
    failed;
    wrong;
    metrics =
      [
        ("setup_s", setup_s);
        ("op_p50_ms", Stats.percentile lat 50.);
        ("op_tail_ms", Stats.percentile lat 95.);
        ("throughput_per_s", float_of_int n /. best_pass_s);
      ];
    notes =
      [
        Speed.note factors;
        ( "figs_wall_s",
          Printf.sprintf "%.4f s at reference speed (measured: %.4f s summed fastest, median pass %.4f s of %d)"
            best_pass_s fastest_pass_s wall np );
        ( "bound_p50_ms",
          Printf.sprintf "%.4f ms (measured %.4f; n=%d, fastest of %d passes)" (Stats.percentile lat 50.)
            (Stats.percentile raw 50.) n np );
        ( "bound_p95_ms",
          Printf.sprintf "%.4f ms (measured %.4f; n=%d, %d beyond)" (Stats.percentile lat 95.)
            (Stats.percentile raw 95.) n (Stats.beyond ~n 95.) );
        ( "fail_share",
          Printf.sprintf "%.4f (%d of %d; %d wrong)" (Metrics.ratio (float failed) (float attempted))
            failed attempted wrong );
        ("top_heap_mb", Printf.sprintf "%.1f MB" (Metrics.top_heap_mb ()));
      ];
  }

(* The traced run: one untraced pass, then the same pass with telemetry
   on and a benchmark span around every call. *)
let traced () =
  let ops = grid () in
  setup ops ();
  let plain = pass ops in
  let before = Trace.counters () in
  let tr = Trace.start () in
  let traced =
    pass ops ~wrap:(fun name f ->
        let r = Telemetry.span name f in
        Trace.maybe_flush tr;
        r)
  in
  Trace.stop tr;
  let after = Trace.counters () in
  let (attempted, failed, wrong) = verdict_counts ops [ plain; traced ] in
  let n_edf = Array.fold_left (fun n op -> match op.col with Oracle.Edf _ -> n + 1 | _ -> n) 0 ops in
  let nonconverged =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i op ->
           match (op.col, plain.results.(i).Oracle.status) with
           | (Oracle.Edf _, Deltanet.Diag.Converged) -> 0
           | (Oracle.Edf _, _) -> 1
           | _ -> 0)
         ops)
  in
  {
    Metrics.attempted;
    failed;
    wrong;
    metrics =
      Metrics.from_trace tr ~before ~after
      @ [
          ("core.bound.bmux_s", Trace.total_s tr "core.bound.bmux");
          ("core.bound.fifo_s", Trace.total_s tr "core.bound.fifo");
          ("core.bound.edf_s", Trace.total_s tr "core.bound.edf");
          ("core.bound.additive_s", Trace.total_s tr "core.bound.additive");
          ( "core.edf.iterations_per_bound",
            Metrics.ratio
              (float_of_int (Trace.delta before after "scenario.edf.iterations"))
              (float_of_int n_edf) );
          ("core.edf.nonconverged", float_of_int nonconverged);
          ( "core.alloc_words_per_bound",
            plain.alloc_words /. float_of_int (Array.length ops) );
          ("telemetry.overhead_ratio", traced.wall_s /. plain.wall_s);
          ("bench.wall_s", plain.wall_s);
          ("bench.fail_share", Metrics.ratio (float failed) (float attempted));
          ("bench.top_heap_mb", Metrics.top_heap_mb ());
        ];
    notes = [ ("traced_pass_s", Printf.sprintf "%.4f s (untraced %.4f s)" traced.wall_s plain.wall_s) ];
  }

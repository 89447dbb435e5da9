(* The paper's numerical setup and the outer optimizations over s and gamma. *)

type t = {
  capacity : float;
  source : Envelope.Mmpp.t;
  n_through : float;
  n_cross : float;
  h : int;
  epsilon : float;
}

let paper_defaults ~h ~n_through ~n_cross =
  if h < 1 then invalid_arg "Scenario.paper_defaults: path length h must be >= 1";
  let check_count ~what n =
    if not (Float.is_finite n) || n < 0. then
      invalid_arg (Printf.sprintf "Scenario.paper_defaults: %s flow count %g must be finite and >= 0" what n)
  in
  check_count ~what:"through" n_through;
  check_count ~what:"cross" n_cross;
  {
    capacity = 100.;
    source = Envelope.Mmpp.paper_source;
    n_through;
    n_cross;
    h;
    epsilon = 1e-9;
  }

let of_utilization ~h ~u_through ~u_cross =
  let check_u ~what u =
    if Float.is_nan u || u < 0. || u >= 1. then
      invalid_arg
        (Printf.sprintf "Scenario.of_utilization: %s utilization %g must be in [0, 1)" what u)
  in
  check_u ~what:"through" u_through;
  check_u ~what:"cross" u_cross;
  if u_through +. u_cross >= 1. then
    invalid_arg
      (Printf.sprintf
         "Scenario.of_utilization: total utilization %g >= 1 — the path is unstable and \
          admits no finite bound"
         (u_through +. u_cross));
  let mean = Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source in
  paper_defaults ~h
    ~n_through:(u_through *. 100. /. mean)
    ~n_cross:(u_cross *. 100. /. mean)

let utilization t =
  (t.n_through +. t.n_cross) *. Envelope.Mmpp.mean_rate t.source /. t.capacity

let path_at t ~s ~delta =
  let through = Envelope.Mmpp.ebb t.source ~n:t.n_through ~s in
  let cross = Envelope.Mmpp.ebb t.source ~n:t.n_cross ~s in
  E2e.homogeneous ~h:t.h ~capacity:t.capacity ~cross ~delta ~through

let s_stable t s =
  let eb = Envelope.Mmpp.effective_bandwidth t.source ~s in
  ((t.n_through +. t.n_cross) *. eb) < t.capacity *. 0.9999

(* Upper end of the stable-s bracket: double s from 1e-6 until the path
   (with head room for gamma) turns unstable, at most 60 times. *)
let s_bracket t =
  if not (s_stable t 1e-6) then None
  else begin
    let rec grow hi tries =
      if tries = 0 then hi else if s_stable t hi then grow (2. *. hi) (tries - 1) else hi
    in
    Some (grow 1e-6 60)
  end

(* Largest s keeping the path stable: total effective bandwidth is
   increasing in s, so bisect inside the bracket. *)
let s_stable_max t =
  Option.map
    (fun hi ->
      let rec bisect lo hi n =
        if n = 0 then lo
        else
          let mid = sqrt (lo *. hi) in
          if s_stable t mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      in
      bisect 1e-6 hi 60)
    (s_bracket t)

(* Minimize [f s] over the stable range of the effective-bandwidth
   parameter: log grid plus a local geometric refinement.  Returns the
   minimum with a typed diagnostic: [Unstable] when no stable [s] exists
   (or every grid point is infeasible in gamma), [Non_finite] when a NaN
   leaks out of the inner optimization. *)
let c_s_evals = Telemetry.Counter.make "scenario.s_grid.evals"
let c_edf_iters = Telemetry.Counter.make "scenario.edf.iterations"

let minimize_over_s_checked ~s_points t f =
  Telemetry.span "scenario.s_grid"
    ~attrs:[ ("h", Telemetry.Int t.h); ("s_points", Telemetry.Int s_points) ]
  @@ fun () ->
  match s_stable_max t with
  | None -> Diag.outcome Diag.Unstable Float.infinity
  | Some s_max ->
    (* Grid points are evaluated on the default pool, so eval counting and
       NaN detection read the evaluated grids afterwards instead of
       mutating shared refs from worker domains.  The totals are identical
       to the old per-call counting: one eval per grid point. *)
    let lo = s_max *. 1e-4 and hi = s_max *. 0.999 in
    (* each s-point runs a full inner gamma search (~40 grid + golden
       evaluations, each ~E2e.eval_cost node-steps): the per-point
       [?work] hint lets tiny scenarios (H = 2, few points) skip domain
       fan-out, and the blocked scan hands the pool tasks of 4 s-points
       so its hint is the true per-chunk cost.  Blocks preserve index
       order, so the argmins below do not depend on the jobs setting. *)
    let s_work = 120 * ((3 * t.h * t.h) + (8 * t.h) + 50) in
    let eval_grid g =
      Parallel.Grid.values_blocked ~work:s_work ~block:4 (Array.map f) g
    in
    let coarse = Parallel.Grid.log_scan ~lo ~hi ~points:s_points eval_grid in
    let center = coarse.xs.(coarse.best) in
    let a = Float.max lo (center /. coarse.ratio)
    and b = Float.min hi (center *. coarse.ratio) in
    let refine_points = 12 in
    let fine = Parallel.Grid.log_scan ~lo:a ~hi:b ~points:refine_points eval_grid in
    let coarse_best = coarse.values.(coarse.best) in
    let fine_best = fine.values.(fine.best) in
    let sbest = if fine_best < coarse_best then fine_best else coarse_best in
    let evals = s_points + refine_points in
    let nan_seen =
      Array.exists Float.is_nan coarse.values
      || Array.exists Float.is_nan fine.values
    in
    let status =
      if nan_seen || Float.is_nan sbest then Diag.Non_finite
      else if Float.is_finite sbest then Diag.Converged
      else Diag.Unstable
    in
    Telemetry.Counter.add c_s_evals evals;
    Telemetry.event "scenario.s_grid.result"
      ~attrs:
        [
          ("evals", Telemetry.Int evals);
          ("status", Telemetry.Str (Diag.status_to_string status));
          ("best", Telemetry.Float sbest);
        ];
    Diag.outcome ~iterations:evals status sbest

let delay_bound_checked ?(s_points = 32) ~scheduler t =
  let delta = Scheduler.Classes.delta_through_cross scheduler in
  minimize_over_s_checked ~s_points t (fun s ->
      E2e.delay_bound ~epsilon:t.epsilon (path_at t ~s ~delta))

let backlog_bound_checked ?(s_points = 32) ~scheduler t =
  let delta = Scheduler.Classes.delta_through_cross scheduler in
  minimize_over_s_checked ~s_points t (fun s ->
      E2e.backlog_bound ~epsilon:t.epsilon (path_at t ~s ~delta))

let delay_bound ?s_points ~scheduler t =
  (delay_bound_checked ?s_points ~scheduler t).Diag.value

let backlog_bound ?s_points ~scheduler t =
  (backlog_bound_checked ?s_points ~scheduler t).Diag.value

type edf_spec = { cross_over_through : float }

type edf_result = {
  bound : float;
  d_through : float;
  d_cross : float;
  iterations : int;
}

let edf_tolerance = 1e-9

(* One evaluation of g(d) = F(d) - d inside the EDF root finder: either a
   residual to keep searching with, or the solver's final status. *)
type edf_step = Residual of float | Done of Diag.status

let delay_bound_edf_checked ?(s_points = 32) ?(max_iter = 60) ~spec t =
  if spec.cross_over_through <= 0. || Float.is_nan spec.cross_over_through then
    invalid_arg "Scenario.delay_bound_edf: non-positive deadline ratio";
  Telemetry.span "scenario.edf_fixed_point"
    ~attrs:
      [ ("h", Telemetry.Int t.h); ("ratio", Telemetry.Float spec.cross_over_through) ]
  @@ fun () ->
  let hf = float_of_int t.h in
  let result bound iterations =
    let d_through = bound /. hf in
    { bound; d_through; d_cross = spec.cross_over_through *. d_through; iterations }
  in
  let bound_for gap = delay_bound ~s_points t ~scheduler:(Scheduler.Classes.Edf_gap gap) in
  let seed = delay_bound ~s_points t ~scheduler:Scheduler.Classes.Fifo in
  if Float.is_nan seed then
    Diag.outcome Diag.Non_finite
      { bound = Float.nan; d_through = Float.nan; d_cross = Float.nan; iterations = 0 }
  else if not (Float.is_finite seed) then
    (* no stable operating point even under FIFO: the fixed point has no
       finite seed and the scenario is unstable, not merely slow to settle *)
    Diag.outcome Diag.Unstable
      { bound = Float.infinity; d_through = Float.infinity; d_cross = Float.infinity; iterations = 0 }
  else begin
    (* F(d) is the bound at the deadlines d implies (d*_0 = d / H).  It is
       decreasing for ratio > 1 (slope near -4 at H = 10) and increasing
       for ratio < 1, so plain iteration d <- F d can oscillate forever;
       solve g(d) = F(d) - d for its root instead.  [best] holds F at the
       evaluated point of smallest relative residual |g(d)| / d. *)
    let evals = ref 0 and best = ref (seed, Float.infinity) in
    let g d =
      if !evals >= max_iter then Done Diag.Diverged
      else begin
        let f = bound_for (d /. hf *. (1. -. spec.cross_over_through)) in
        incr evals;
        if !Telemetry.on then Telemetry.Counter.incr c_edf_iters;
        Telemetry.event "scenario.edf.iter"
          ~attrs:[ ("n", Telemetry.Int !evals); ("bound", Telemetry.Float f) ];
        if Float.is_nan f then (best := (f, Float.infinity); Done Diag.Non_finite)
        else if not (Float.is_finite f) then (best := (f, Float.infinity); Done Diag.Unstable)
        else begin
          let res = Float.abs (f -. d) in
          if res <= edf_tolerance *. f then (best := (f, res /. d); Done Diag.Converged)
          else begin
            if res /. d < snd !best then best := (f, res /. d);
            Residual (f -. d)
          end
        end
      end
    in
    let straddle ga gb = (ga < 0.) <> (gb < 0.) in
    (* Secant steps until g changes sign ([d0, F d0] need not bracket the
       root when F is increasing); a step that leaves (0, inf) falls back
       to d <- F d. *)
    let rec secant d0 g0 d1 =
      match g d1 with
      | Done s -> s
      | Residual g1 when straddle g0 g1 -> illinois d0 g0 d1 g1
      | Residual g1 ->
        let d2 = d1 -. (g1 *. (d1 -. d0) /. (g1 -. g0)) in
        secant d1 g1 (if Float.is_finite d2 && d2 > 0. then d2 else d1 +. g1)
    (* Illinois regula falsi on the bracket [a, b], [b] the newest point:
       halving the retained end's residual stops it going stale. *)
    and illinois a ga b gb =
      let c = ((a *. gb) -. (b *. ga)) /. (gb -. ga) in
      match g c with
      | Done s -> s
      | Residual gc when straddle gb gc -> illinois b gb c gc
      | Residual gc -> illinois a (ga /. 2.) c gc
    in
    let status =
      match g seed with Done s -> s | Residual g0 -> secant seed g0 (seed +. g0)
    in
    let bound, tolerance = !best in
    Diag.outcome ~iterations:!evals ~tolerance status (result bound !evals)
  end

let delay_bound_edf ?s_points ?max_iter ~spec t =
  (delay_bound_edf_checked ?s_points ?max_iter ~spec t).Diag.value

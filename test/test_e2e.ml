(* Tests for the Section-IV end-to-end analysis: closed forms, the
   K-procedure, scaling shapes, the scenario layer, and the additive
   baseline. *)

module E2e = Deltanet.E2e
module Scenario = Deltanet.Scenario
module Additive = Deltanet.Additive
module Delta = Scheduler.Delta
module Classes = Scheduler.Classes
module Ebb = Envelope.Ebb
module Exp = Envelope.Exponential

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    (Float.equal expected Float.infinity && Float.equal got Float.infinity)
    || Float.abs (expected -. got)
       <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let mk_path ~h ~delta =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Ebb.v ~m:1. ~rho:35. ~alpha:0.8 in
  E2e.homogeneous ~h ~capacity:100. ~cross ~delta ~through

(* ---------------- bounding function (Eq. 34) ---------------- *)

let test_total_bound_matches_eq34 () =
  (* Homogeneous case with m = 1: the closed form of Eq. (34). *)
  let h = 4 in
  let p = mk_path ~h ~delta:(Delta.Fin 0.) in
  let gamma = 1.2 in
  let alpha = 0.8 in
  let b = E2e.total_bound p ~gamma in
  let hf = float_of_int h in
  let q = exp (-.alpha *. gamma) in
  let expected_rate = alpha /. (hf +. 1.) in
  let expected_m = (hf +. 1.) *. ((1. -. q) ** (-2. *. hf /. (hf +. 1.))) in
  check_float ~tol:1e-9 "rate alpha/(H+1)" expected_rate b.Exp.a;
  check_float ~tol:1e-9 "prefactor M(H+1)(1-q)^{-2H/(H+1)}" expected_m b.Exp.m

let test_sigma_roundtrip () =
  let p = mk_path ~h:3 ~delta:Delta.Pos_inf in
  let gamma = 1. in
  let sigma = E2e.sigma_for p ~gamma ~epsilon:1e-9 in
  let b = E2e.total_bound p ~gamma in
  check_float ~tol:1e-9 "roundtrip" 1e-9 (Exp.eval_uncapped b sigma)

(* ---------------- closed forms (Eq. 43 / 44) ---------------- *)

let test_bmux_matches_eq43 () =
  List.iter
    (fun h ->
      let p = mk_path ~h ~delta:Delta.Pos_inf in
      let gamma = 0.8 and sigma = 300. in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let closed = E2e.bmux_closed_form p ~gamma ~sigma in
      check_float ~tol:1e-9 (Fmt.str "H=%d" h) closed exact)
    [ 1; 2; 5; 10; 20 ]

let test_fifo_matches_eq44 () =
  List.iter
    (fun h ->
      let p = mk_path ~h ~delta:(Delta.Fin 0.) in
      let gamma = 0.8 and sigma = 300. in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let closed = E2e.fifo_closed_form p ~gamma ~sigma in
      (* the closed form uses the paper's K choice, which is near-optimal:
         the exact optimum can only be (weakly) better *)
      Alcotest.(check bool)
        (Fmt.str "H=%d exact %.9g <= closed %.9g" h exact closed)
        true
        (exact <= closed +. 1e-9 *. closed);
      check_float ~tol:1e-6 (Fmt.str "H=%d near-optimal" h) closed exact)
    [ 1; 2; 5; 10; 20 ]

let test_k_procedure_upper_bounds_exact () =
  List.iter
    (fun (h, delta) ->
      let p = mk_path ~h ~delta in
      let gamma = 0.5 and sigma = 250. in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let kproc = E2e.k_procedure p ~gamma ~sigma in
      Alcotest.(check bool)
        (Fmt.str "H=%d delta=%a exact %.6g <= kproc %.6g" h Delta.pp delta exact kproc)
        true
        (exact <= kproc +. 1e-6 *. (1. +. kproc));
      (* and the explicit procedure should be close to optimal *)
      Alcotest.(check bool)
        (Fmt.str "H=%d delta=%a kproc near-optimal" h Delta.pp delta)
        true
        (kproc <= exact *. 1.2 +. 1e-6))
    [
      (2, Delta.Fin 0.);
      (5, Delta.Fin 0.);
      (2, Delta.Fin (-5.));
      (5, Delta.Fin (-5.));
      (10, Delta.Fin (-20.));
      (5, Delta.Fin 3.);
      (5, Delta.Pos_inf);
      (5, Delta.Neg_inf);
    ]

let test_h1_theta_equals_d () =
  (* For H = 1 the paper notes the optimal theta is d itself (X = 0) and
     the result coincides with the single-node analysis of Section III-B:
     the classic FIFO bound d = sigma / C (cross traffic arriving after the
     tagged bit cannot delay it under FIFO). *)
  let p = mk_path ~h:1 ~delta:(Delta.Fin 0.) in
  let gamma = 1. and sigma = 200. in
  let d = E2e.delay_given p ~gamma ~sigma in
  check_float ~tol:1e-9 "single node FIFO" (sigma /. 100.) d;
  (* whereas BMUX at H = 1 pays the full leftover-rate price *)
  let pb = mk_path ~h:1 ~delta:Delta.Pos_inf in
  check_float ~tol:1e-9 "single node BMUX"
    (sigma /. (100. -. 35. -. gamma))
    (E2e.delay_given pb ~gamma ~sigma)

(* ---------------- structural properties ---------------- *)

let test_scheduler_ordering_e2e () =
  let gamma = 0.6 and sigma = 400. in
  List.iter
    (fun h ->
      let d_of delta = E2e.delay_given (mk_path ~h ~delta) ~gamma ~sigma in
      let sp = d_of Delta.Neg_inf in
      let edf_loose = d_of (Delta.Fin (-10.)) in
      let fifo = d_of (Delta.Fin 0.) in
      let edf_tight = d_of (Delta.Fin 10.) in
      let bmux = d_of Delta.Pos_inf in
      Alcotest.(check bool)
        (Fmt.str "H=%d: %.4g <= %.4g <= %.4g <= %.4g <= %.4g" h sp edf_loose fifo
           edf_tight bmux)
        true
        (sp <= edf_loose +. 1e-9
        && edf_loose <= fifo +. 1e-9
        && fifo <= edf_tight +. 1e-9
        && edf_tight <= bmux +. 1e-9))
    [ 1; 3; 8 ]

let test_delay_monotone_in_h () =
  let epsilon = 1e-9 in
  let prev = ref 0. in
  List.iter
    (fun h ->
      let d = E2e.delay_bound ~epsilon (mk_path ~h ~delta:(Delta.Fin 0.)) in
      Alcotest.(check bool) (Fmt.str "H=%d: %g >= %g" h d !prev) true (d >= !prev -. 1e-9);
      prev := d)
    [ 1; 2; 4; 8; 16 ]

let test_delay_monotone_in_epsilon () =
  let p = mk_path ~h:5 ~delta:(Delta.Fin 0.) in
  let d9 = E2e.delay_bound ~epsilon:1e-9 p in
  let d6 = E2e.delay_bound ~epsilon:1e-6 p in
  let d3 = E2e.delay_bound ~epsilon:1e-3 p in
  Alcotest.(check bool) (Fmt.str "%g >= %g >= %g" d9 d6 d3) true (d9 >= d6 && d6 >= d3)

let test_overload_infinite () =
  let through = Ebb.v ~m:1. ~rho:60. ~alpha:1. in
  let cross = Ebb.v ~m:1. ~rho:60. ~alpha:1. in
  let p = E2e.homogeneous ~h:3 ~capacity:100. ~cross ~delta:(Delta.Fin 0.) ~through in
  check_float "overloaded path" Float.infinity (E2e.delay_bound ~epsilon:1e-9 p);
  Alcotest.(check bool) "gamma_max non-positive" true (E2e.gamma_max p <= 0.)

let test_fifo_approaches_bmux_low_cross () =
  (* The paper's observation: for small cross utilization or long paths the
     FIFO bound approaches the BMUX bound. *)
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Ebb.v ~m:1. ~rho:5. ~alpha:0.8 in
  let d delta h =
    E2e.delay_bound ~epsilon:1e-9
      (E2e.homogeneous ~h ~capacity:100. ~cross ~delta ~through)
  in
  let ratio_h1 = d (Delta.Fin 0.) 1 /. d Delta.Pos_inf 1 in
  let ratio_h10 = d (Delta.Fin 0.) 10 /. d Delta.Pos_inf 10 in
  Alcotest.(check bool)
    (Fmt.str "ratio H=10 (%.4f) closer to 1 than H=1 (%.4f)" ratio_h10 ratio_h1)
    true
    (ratio_h10 > ratio_h1 && ratio_h10 > 0.97)

let test_heterogeneous_path () =
  (* Per-node capacities and deltas; the bound must still be finite and
     dominated by the weakest node's homogeneous bound. *)
  let through = Ebb.v ~m:1. ~rho:10. ~alpha:1. in
  let mk capacity rho delta = { E2e.capacity; cross = [| { E2e.rho; m = 1.; delta } |] } in
  let p =
    E2e.v
      ~nodes:
        [| mk 100. 30. (Delta.Fin 0.); mk 80. 20. Delta.Pos_inf; mk 120. 50. (Delta.Fin (-3.)) |]
      ~through
  in
  let d = E2e.delay_bound ~epsilon:1e-9 p in
  Alcotest.(check bool) (Fmt.str "finite heterogeneous bound %g" d) true (Float.is_finite d);
  (* worst node everywhere can only be worse *)
  let worst =
    E2e.homogeneous ~h:3 ~capacity:80. ~cross:(Ebb.v ~m:1. ~rho:50. ~alpha:1.)
      ~delta:Delta.Pos_inf ~through
  in
  let d_worst = E2e.delay_bound ~epsilon:1e-9 worst in
  Alcotest.(check bool) (Fmt.str "%g <= %g" d d_worst) true (d <= d_worst +. 1e-9)

(* ---------------- explicit network service curve ---------------- *)

let test_curve_agrees_with_optimizer () =
  (* The horizontal deviation against the materialized Eq.-30 curve at the
     optimal thetas must equal the Eq.-38 optimum. *)
  List.iter
    (fun (h, delta) ->
      let p = mk_path ~h ~delta in
      let gamma = 0.7 and sigma = 280. in
      let d_opt = E2e.delay_given p ~gamma ~sigma in
      let (thetas, _x) = E2e.optimal_thetas p ~gamma ~sigma in
      let d_curve = E2e.delay_via_curve p ~gamma ~sigma ~thetas in
      check_float ~tol:1e-6 (Fmt.str "H=%d delta=%a" h Delta.pp delta) d_opt d_curve)
    [
      (1, Delta.Fin 0.);
      (4, Delta.Fin 0.);
      (4, Delta.Pos_inf);
      (4, Delta.Fin (-8.));
      (4, Delta.Fin 4.);
      (7, Delta.Neg_inf);
    ]

let test_curve_shape () =
  let p = mk_path ~h:3 ~delta:Delta.Pos_inf in
  let thetas = [| 1.; 2.; 0.5 |] in
  let s = E2e.network_service_curve p ~gamma:0.5 ~thetas in
  let module Curve = Minplus.Curve in
  check_float "gated until sum of thetas" 0. (Curve.eval s 3.);
  Alcotest.(check bool) "positive after gate" true (Curve.eval s 4. > 0.);
  (* ultimate rate = min_h (C_h - rho_c - gamma) = C - 2 gamma - rho_c - gamma *)
  check_float ~tol:1e-9 "ultimate rate" (100. -. 1. -. 35. -. 0.5) (Curve.ultimate_rate s)

let test_backlog_properties () =
  let p = mk_path ~h:4 ~delta:(Delta.Fin 0.) in
  let b9 = E2e.backlog_bound ~epsilon:1e-9 p in
  let b3 = E2e.backlog_bound ~epsilon:1e-3 p in
  Alcotest.(check bool) (Fmt.str "finite backlog %g" b9) true (Float.is_finite b9);
  Alcotest.(check bool) (Fmt.str "monotone in eps: %g >= %g" b9 b3) true (b9 >= b3);
  (* backlog grows with path length *)
  let b9_short = E2e.backlog_bound ~epsilon:1e-9 (mk_path ~h:2 ~delta:(Delta.Fin 0.)) in
  Alcotest.(check bool) (Fmt.str "grows with H: %g >= %g" b9 b9_short) true (b9 >= b9_short)

let test_backlog_vs_delay_little () =
  (* Sanity a la Little: backlog bound <= (through envelope rate) x delay
     bound + sigma slack is not an identity, but backlog should be within
     a small factor of rate x delay for these affine envelopes. *)
  let p = mk_path ~h:4 ~delta:Delta.Pos_inf in
  let gamma = 0.7 in
  let sigma = E2e.sigma_for p ~gamma ~epsilon:1e-9 in
  let d = E2e.delay_given p ~gamma ~sigma in
  let b = E2e.backlog_given p ~gamma ~sigma in
  Alcotest.(check bool)
    (Fmt.str "b=%g within [sigma=%g, rate*d=%g]" b sigma ((15. +. gamma) *. d +. sigma))
    true
    (b >= sigma -. 1e-9 && b <= ((15. +. gamma) *. d) +. sigma +. 1e-6)

(* ---------------- scenario layer ---------------- *)

let test_scenario_flow_counts () =
  let sc = Scenario.of_utilization ~h:2 ~u_through:0.15 ~u_cross:0.35 in
  check_float ~tol:1e-6 "N0 ~ 100"
    (0.15 *. 100. /. Envelope.Mmpp.mean_rate Envelope.Mmpp.paper_source)
    sc.Scenario.n_through;
  check_float ~tol:1e-9 "utilization" 0.5 (Scenario.utilization sc)

let test_scenario_fifo_between_sp_and_bmux () =
  let sc = Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.3 in
  let d s = Scenario.delay_bound ~s_points:16 ~scheduler:s sc in
  let sp = d Classes.Sp_through_high in
  let fifo = d Classes.Fifo in
  let bmux = d Classes.Bmux in
  Alcotest.(check bool)
    (Fmt.str "%g <= %g <= %g" sp fifo bmux)
    true
    (sp <= fifo +. 1e-9 && fifo <= bmux +. 1e-9)

let test_scenario_increasing_in_utilization () =
  let d u =
    Scenario.delay_bound ~s_points:16 ~scheduler:Classes.Fifo
      (Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:(u -. 0.15))
  in
  let d30 = d 0.30 and d60 = d 0.60 and d90 = d 0.90 in
  Alcotest.(check bool) (Fmt.str "%g < %g < %g" d30 d60 d90) true (d30 < d60 && d60 < d90)

(* The EDF bound at the deadlines a candidate bound [d] implies:
   F(d), with d*_0 = d / H and d*_c = ratio * d*_0. *)
let edf_map ~ratio sc d =
  let d0 = d /. float_of_int sc.Scenario.h in
  Scenario.delay_bound ~s_points:16 ~scheduler:(Classes.Edf_gap (d0 *. (1. -. ratio))) sc

(* Run the checked solver, insist on Converged, and return the bound d
   with F(d) recomputed independently at the returned deadlines. *)
let edf_solved ~ratio sc =
  let o =
    Scenario.delay_bound_edf_checked ~s_points:16 sc
      ~spec:{ Scenario.cross_over_through = ratio }
  in
  Alcotest.(check string) "status" "converged"
    (Deltanet.Diag.status_to_string o.Deltanet.Diag.diag.Deltanet.Diag.status);
  let r = o.Deltanet.Diag.value in
  let gap = r.Scenario.d_through -. r.Scenario.d_cross in
  (r.Scenario.bound, Scenario.delay_bound ~s_points:16 ~scheduler:(Classes.Edf_gap gap) sc)

let test_scenario_edf_fixed_point () =
  let sc = Scenario.of_utilization ~h:5 ~u_through:0.15 ~u_cross:0.35 in
  let bound, again = edf_solved ~ratio:10. sc in
  let fifo = Scenario.delay_bound ~s_points:16 ~scheduler:Classes.Fifo sc in
  Alcotest.(check bool) (Fmt.str "EDF %g < FIFO %g" bound fifo) true (bound < fifo);
  (* self-consistency of the fixed point: recomputing at the returned gap
     reproduces the bound *)
  check_float ~tol:1e-6 "fixed point" bound again

(* Both monotone shapes of F, each at a cell plain iteration could not
   settle or settled slowly: a genuine root of F(d) - d to 1e-8, and F
   decreasing (ratio > 1) or increasing (ratio < 1) across it.  The
   values themselves are pinned in test_golden. *)
let test_scenario_edf_root () =
  List.iter
    (fun (name, ratio, sc, decreasing) ->
      let d, f = edf_solved ~ratio sc in
      Alcotest.(check bool)
        (Fmt.str "%s: |F(d) - d| = %g <= 1e-8 d" name (Float.abs (f -. d)))
        true
        (Float.abs (f -. d) <= 1e-8 *. d);
      let below = edf_map ~ratio sc (0.9 *. d) and above = edf_map ~ratio sc (1.1 *. d) in
      Alcotest.(check bool)
        (Fmt.str "%s: F(0.9 d) = %g vs F(1.1 d) = %g" name below above)
        decreasing (below > above))
    [
      ("fig2 H=10 U=80% EDF", 10., Scenario.of_utilization ~h:10 ~u_through:0.15 ~u_cross:0.65,
       true);
      ("fig4 H=10 U=50% EDF", 10., Scenario.of_utilization ~h:10 ~u_through:0.25 ~u_cross:0.25,
       true);
      ("fig3 H=2 mix=90% EDF+", 0.5, Scenario.of_utilization ~h:2 ~u_through:0.05 ~u_cross:0.45,
       false);
    ]

let test_scenario_edf_tight_deadlines_above_fifo () =
  (* d*_0 = 2 d*_c makes the cross traffic more urgent: bound above FIFO,
     below BMUX. *)
  let sc = Scenario.of_utilization ~h:2 ~u_through:0.15 ~u_cross:0.35 in
  let bound, _ = edf_solved ~ratio:0.5 sc in
  let fifo = Scenario.delay_bound ~s_points:16 ~scheduler:Classes.Fifo sc in
  let bmux = Scenario.delay_bound ~s_points:16 ~scheduler:Classes.Bmux sc in
  Alcotest.(check bool)
    (Fmt.str "FIFO %g <= EDF-tight %g <= BMUX %g" fifo bound bmux)
    true
    (fifo <= bound +. 1e-6 && bound <= bmux +. 1e-6)

let test_scenario_backlog () =
  let sc = Scenario.of_utilization ~h:3 ~u_through:0.15 ~u_cross:0.35 in
  let b_fifo = Scenario.backlog_bound ~s_points:16 ~scheduler:Classes.Fifo sc in
  let b_bmux = Scenario.backlog_bound ~s_points:16 ~scheduler:Classes.Bmux sc in
  Alcotest.(check bool) (Fmt.str "finite backlog %g" b_fifo) true (Float.is_finite b_fifo);
  Alcotest.(check bool)
    (Fmt.str "fifo %g <= bmux %g" b_fifo b_bmux)
    true (b_fifo <= b_bmux +. 1e-6)

(* ---------------- kernel vs reference (bit-for-bit) ---------------- *)

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ∆ = 0 and the ±4 pair recur, so several-class nodes see duplicate ∆s *)
let delta_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Delta.Neg_inf);
        (1, return Delta.Pos_inf);
        (1, return (Delta.Fin 0.));
        (1, oneofl [ Delta.Fin 4.; Delta.Fin (-4.) ]);
        (2, map (fun d -> Delta.Fin d) (float_range (-30.) 30.));
      ])

(* One node with 1 class (two draws in three) or 2–4 classes whose
   rates sum to at most 40. *)
let node_gen =
  QCheck.Gen.(
    frequency [ (2, return 1); (1, int_range 2 4) ] >>= fun k ->
    let class_gen =
      map
        (fun (rho, m, delta) -> { E2e.rho; m; delta })
        (triple (float_range 0.5 (40. /. float_of_int k)) (float_range 0.5 3.) delta_gen)
    in
    map (fun (capacity, cross) -> { E2e.capacity; cross })
      (pair (float_range 60. 150.) (array_repeat k class_gen)))

let print_node (nd : E2e.node) =
  Fmt.str "{C=%g %s}" nd.E2e.capacity
    (String.concat " "
       (Array.to_list
          (Array.map
             (fun (k : E2e.cross_class) ->
               Fmt.str "(rho=%g m=%g d=%a)" k.E2e.rho k.E2e.m Delta.pp k.E2e.delta)
             nd.E2e.cross)))

let print_nodes p = String.concat "; " (Array.to_list (Array.map print_node p.E2e.nodes))

(* A random heterogeneous path (mixed SP/FIFO/EDF/BMUX deltas, one to
   four classes per node, H in 1..20) plus a gamma fraction and a sigma
   offset.  The generator keeps [C -. sum rho_k -. rho >= 5] at every
   node, so [gamma_max > 0] always. *)
let path_arb =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun h ->
      array_repeat h node_gen >>= fun nodes ->
      pair (float_range 1e-4 0.9) (float_range 0. 500.)
      >>= fun (u, extra) -> return (E2e.v ~nodes ~through, u, extra))
  in
  let print (p, u, extra) =
    Fmt.str "H=%d u=%g extra=%g nodes=[%s]" (E2e.hop_count p) u extra (print_nodes p)
  in
  QCheck.make ~print gen

(* A random mixed-∆ path (one to four classes per node) plus a sequence
   of (γ fraction, σ offset) points, unsorted in both coordinates: one kernel is reused across the
   whole sequence, so [set] must fully overwrite whatever the previous,
   arbitrarily different point left in the scratch arrays. *)
let kernel_arb =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun h ->
      array_repeat h node_gen >>= fun nodes ->
      list_size (int_range 1 6) (pair (float_range 1e-4 0.95) (float_range 0. 500.))
      >>= fun pts -> return (E2e.v ~nodes ~through, pts))
  in
  let print (p, pts) =
    Fmt.str "H=%d points=[%s] nodes=[%s]" (E2e.hop_count p)
      (String.concat "; " (List.map (fun (u, x) -> Fmt.str "(%g, %g)" u x) pts))
      (print_nodes p)
  in
  QCheck.make ~print gen

(* The evaluator's contract: the compiled zero-allocation kernel replays
   the list-based oracle float-for-float — sigma_for, delay, the public
   delay_given, delay_at_gamma and run_gammas are bit-identical, and the
   list-form optimal_thetas witness sums to the kernel's delay, for
   every scheduler mix, every class count and every H, with one kernel
   driven through a non-monotone (γ, σ) sequence. *)
let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = reference bit-for-bit (Eq. 38)" ~count:(Qc.count 400)
    kernel_arb
    (fun (p, pts) ->
      let epsilon = 1e-9 in
      let gmax = E2e.gamma_max p in
      let k = E2e.Kernel.make p in
      let fail_if_ne what i a b =
        if not (bit_eq a b) then
          QCheck.Test.fail_reportf "point %d %s: oracle %.17g kernel %.17g" i what a b
      in
      List.iteri
        (fun i (u, extra) ->
          let gamma = gmax *. u in
          let sref = Oracle.sigma_for p ~gamma ~epsilon in
          fail_if_ne "sigma_for" i sref (E2e.Kernel.sigma_for k ~gamma ~epsilon);
          let sigma = sref +. extra in
          let dref = Oracle.delay_given p ~gamma ~sigma in
          E2e.Kernel.set k ~gamma ~sigma;
          fail_if_ne "delay" i dref (E2e.Kernel.delay k);
          fail_if_ne "delay_given" i dref (E2e.delay_given p ~gamma ~sigma);
          let (thetas, x) = E2e.optimal_thetas p ~gamma ~sigma in
          if Array.length thetas <> E2e.hop_count p then
            QCheck.Test.fail_reportf "theta arity: %d" (Array.length thetas);
          fail_if_ne "witness X + thetas" i (Array.fold_left ( +. ) x thetas) (E2e.Kernel.delay k);
          fail_if_ne "delay_at_gamma" i
            (Oracle.delay_given p ~gamma ~sigma:sref)
            (E2e.Kernel.delay_at_gamma k ~gamma ~epsilon))
        pts;
      let gammas = Array.of_list (List.map (fun (u, _) -> gmax *. u) pts) in
      let out = Array.make (Array.length gammas) Float.nan in
      E2e.Kernel.run_gammas k ~epsilon ~gammas ~out;
      Array.iteri
        (fun i gamma ->
          let sigma = Oracle.sigma_for p ~gamma ~epsilon in
          fail_if_ne "run_gammas" i (Oracle.delay_given p ~gamma ~sigma) out.(i))
        gammas;
      E2e.Kernel.run_gammas k ~epsilon ~gammas:[||] ~out:[||];
      (match E2e.Kernel.run_gammas k ~epsilon ~gammas ~out:[||] with
      | () -> QCheck.Test.fail_report "run_gammas accepted a short output buffer"
      | exception Invalid_argument _ -> ());
      true)

(* Homogeneous path + (gamma, sigma) for the K-procedure properties. *)
let homog_arb =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun h ->
      quad (float_range 60. 150.) (float_range 0.5 40.) (float_range 0.5 3.) delta_gen
      >>= fun (capacity, rho_c, m_c, delta) ->
      pair (float_range 1e-4 0.9) (float_range 0. 500.)
      >>= fun (u, extra) ->
      let cross = Ebb.v ~m:m_c ~rho:rho_c ~alpha:0.8 in
      return (E2e.homogeneous ~h ~capacity ~cross ~delta ~through, u, extra))
  in
  let print (p, u, extra) =
    Fmt.str "H=%d u=%g extra=%g node=%s" (E2e.hop_count p) u extra
      (print_node p.E2e.nodes.(0))
  in
  QCheck.make ~print gen

(* Eq. 40–44 dispatch: the paper's explicit K-procedure equals the
   candidate-enumeration minimum (to ~1e-9 relative) for SP, BMUX and
   FIFO deltas, and upper-bounds it for every homogeneous delta. *)
let prop_k_procedure_vs_enumeration =
  QCheck.Test.make ~name:"k_procedure vs candidate enumeration (homogeneous)"
    ~count:(Qc.count 400) homog_arb
    (fun (p, u, extra) ->
      let gamma = E2e.gamma_max p *. u in
      let sigma = Oracle.sigma_for p ~gamma ~epsilon:1e-9 +. extra in
      let exact = E2e.delay_given p ~gamma ~sigma in
      let kproc = E2e.k_procedure p ~gamma ~sigma in
      let fast = E2e.delay_given_fast p ~gamma ~sigma in
      if not (bit_eq fast kproc) then
        QCheck.Test.fail_reportf "delay_given_fast %.17g <> k_procedure %.17g" fast
          kproc;
      (* always a valid upper bound *)
      if not (exact <= kproc +. 1e-9 *. (1. +. Float.abs kproc)) then
        QCheck.Test.fail_reportf "k_procedure %.17g below exact %.17g" kproc exact;
      (* exact (not just an upper bound) for the three named disciplines *)
      let must_be_exact =
        match p.E2e.nodes.(0).E2e.cross.(0).E2e.delta with
        | Delta.Neg_inf | Delta.Pos_inf -> true
        | Delta.Fin d -> Float.equal d 0.
      in
      if must_be_exact then begin
        let agree =
          (Float.equal exact Float.infinity && Float.equal kproc Float.infinity)
          || Float.abs (exact -. kproc)
             <= 1e-9 *. (1. +. Float.max (Float.abs exact) (Float.abs kproc))
        in
        if not agree then
          QCheck.Test.fail_reportf "SP/BMUX/FIFO: k_procedure %.17g <> exact %.17g"
            kproc exact
      end;
      true)

(* The same node on every hop, carrying two to four classes: homogeneous
   in shape, but not one class per node. *)
let homog_classes_arb =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let gen =
    QCheck.Gen.(
      int_range 1 20 >>= fun h ->
      node_gen >>= fun nd ->
      pair (float_range 1e-4 0.9) (float_range 0. 500.) >>= fun (u, extra) ->
      return (E2e.v ~nodes:(Array.make h nd) ~through, u, extra))
  in
  QCheck.make ~print:(fun (p, u, extra) ->
      Fmt.str "H=%d u=%g extra=%g node=%s" (E2e.hop_count p) u extra
        (print_node p.E2e.nodes.(0)))
    gen

(* On genuinely heterogeneous paths, and on paths with a several-class
   node, the fast path must fall back to the kernel and reproduce
   delay_given bit-for-bit. *)
let prop_fast_path_heterogeneous_bitwise =
  QCheck.Test.make ~name:"delay_given_fast = delay_given on heterogeneous paths"
    ~count:(Qc.count 200)
    (QCheck.choose [ path_arb; homog_classes_arb ])
    (fun (p, u, extra) ->
      QCheck.assume (not (E2e.is_homogeneous p));
      let gamma = E2e.gamma_max p *. u in
      let sigma = Oracle.sigma_for p ~gamma ~epsilon:1e-9 +. extra in
      bit_eq (E2e.delay_given_fast p ~gamma ~sigma) (E2e.delay_given p ~gamma ~sigma))

(* Several classes per node against the bisection-based solver kept in
   test/oracle: the same homogeneous path built through both. *)
let classes_arb =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun h ->
      int_range 2 4 >>= fun k ->
      list_repeat k
        (triple (float_range 0.5 (50. /. float_of_int k)) (float_range 0.5 3.) delta_gen)
      >>= fun classes ->
      pair (float_range 1e-3 0.9) (float_range 0. 300.) >>= fun (u, extra) ->
      return (h, classes, u, extra))
  in
  let print (h, classes, u, extra) =
    Fmt.str "H=%d u=%g extra=%g classes=[%s]" h u extra
      (String.concat "; "
         (List.map
            (fun (rho, m, delta) -> Fmt.str "(rho=%g m=%g d=%a)" rho m Delta.pp delta)
            classes))
  in
  QCheck.make ~print gen

(* The kernel's exact kinks against the oracle's bisected ones.  The
   oracle's theta on a segment past its last positive ∆ comes from a
   finite-difference slope (step 1e-9 (1 + theta)), whose rounding error
   reaches ~1e-5 relative; E2e's exact objective at the oracle's own best
   scan point is never below the kernel's value, so those gaps are the
   oracle's.  Hence [loose] against the oracle — against its bound and
   a dense X scan of its theta sum — and [tight] against a dense scan of
   E2e's list-form objective, which checks that no kink is missing. *)
let prop_classes_match_oracle =
  let module Mc = Oracle.Multiclass in
  let tight = 1e-9 and loose = 1e-4 in
  QCheck.Test.make ~name:"several classes per node = Multiclass oracle" ~count:(Qc.count 200)
    classes_arb
    (fun (h, classes, u, extra) ->
      let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
      let p =
        E2e.homogeneous_classes ~h ~capacity:100. ~through
          ~classes:(List.map (fun (rho, m, delta) -> { E2e.rho; m; delta }) classes)
      in
      let pm =
        Mc.v ~h ~capacity:100. ~through
          ~cross:(List.map (fun (rho, m, delta) -> { Mc.rho; m; delta }) classes)
      in
      let gamma = E2e.gamma_max p *. u in
      let sigma = E2e.sigma_for p ~gamma ~epsilon:1e-9 +. extra in
      let d = E2e.delay_given p ~gamma ~sigma in
      let dm = Mc.delay_given pm ~gamma ~sigma in
      let above tol a b = a > b +. (tol *. (1. +. Float.abs b)) in
      if above loose d dm || above loose dm d then
        QCheck.Test.fail_reportf "kernel %.17g vs oracle %.17g" d dm;
      if Float.is_finite d then begin
        let xmax = 1.5 *. List.fold_left Float.max 1. (E2e.x_candidates p ~gamma ~sigma) in
        let n = 2000 in
        let scan = ref Float.infinity and scan_m = ref Float.infinity in
        for i = 0 to n do
          let x = xmax *. float_of_int i /. float_of_int n in
          let v = ref x in
          for j = 0 to h - 1 do
            v := !v +. Mc.theta_of_x pm ~gamma ~sigma ~x j
          done;
          scan_m := Float.min !scan_m !v;
          scan := Float.min !scan (E2e.objective p ~gamma ~sigma x)
        done;
        if above tight d !scan then
          QCheck.Test.fail_reportf "kernel %.17g above the dense scan %.17g" d !scan;
        if above loose d !scan_m then
          QCheck.Test.fail_reportf "kernel %.17g above the oracle's dense scan %.17g" d !scan_m
      end;
      true)

(* [Kernel.run_gammas] allocates a constant per γ point, whatever the
   path: only the floats boxed across its internal calls, never per node,
   per class or per candidate (the zero_alloc analyzer checks the source;
   this checks the compiled code, where a closure or a float-taking helper
   that is not inlined allocates on every call).  A 4-node path mixing
   one-class and several-class nodes, and a 20-node several-class path. *)
let test_kernel_allocation_constant () =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cls rho delta = { E2e.rho; m = 1.5; delta } in
  let tiers = [| cls 10. Delta.Pos_inf; cls 8. (Delta.Fin 3.); cls 6. (Delta.Fin (-4.)) |] in
  let mixed =
    E2e.v ~through
      ~nodes:
        [|
          { E2e.capacity = 100.; cross = [| cls 30. (Delta.Fin 0.) |] };
          { E2e.capacity = 120.; cross = tiers };
          { E2e.capacity = 90.; cross = [| cls 12. (Delta.Fin 0.); cls 9. (Delta.Fin 0.) |] };
          { E2e.capacity = 110.; cross = [||] };
        |]
  in
  let long = E2e.v ~through ~nodes:(Array.make 20 { E2e.capacity = 150.; cross = tiers }) in
  List.iter
    (fun (name, p) ->
      let k = E2e.Kernel.make p in
      let gmax = E2e.gamma_max p in
      let gammas = Array.init 8 (fun i -> gmax *. (0.1 +. (0.1 *. float_of_int i))) in
      let out = Array.make 8 0. in
      E2e.Kernel.run_gammas k ~epsilon:1e-9 ~gammas ~out;
      let rounds = 50 in
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        E2e.Kernel.run_gammas k ~epsilon:1e-9 ~gammas ~out
      done;
      let per_point = (Gc.minor_words () -. w0) /. float_of_int (rounds * 8) in
      Alcotest.(check bool)
        (Fmt.str "%s: %.2f minor words per gamma point" name per_point)
        true (per_point <= 10.))
    [ ("mixed", mixed); ("20 several-class nodes", long) ]

let test_smallest_k_matches_reference () =
  (* The O(H) backward-prefix-sum smallest_k against the O(H^2) recursive
     reference, for H up to 10^3 and nontrivial extra feasibility
     predicates — both the chosen K and (because the prefix sums replay
     the recursion's additions in order) exact agreement. *)
  let predicates h =
    [
      ("all", fun _ -> true);
      ("none", fun _ -> false);
      ("even", fun k -> k mod 2 = 0);
      ("upper-half", fun k -> k >= h / 2);
      ("multiple-of-7", fun k -> k mod 7 = 0);
    ]
  in
  List.iter
    (fun h ->
      List.iter
        (fun (name, extra_ok) ->
          List.iter
            (fun (c, rho_c, gamma) ->
              let fast = E2e.smallest_k ~extra_ok ~h ~c ~rho_c ~gamma in
              let slow = Oracle.smallest_k ~extra_ok ~h ~c ~rho_c ~gamma in
              Alcotest.(check int)
                (Fmt.str "H=%d %s c=%g rho_c=%g gamma=%g" h name c rho_c gamma)
                slow fast)
            [ (100., 35., 0.5); (100., 35., 3.); (80., 60., 0.05); (200., 10., 2.) ])
        (predicates h))
    [ 1; 2; 3; 7; 50; 333; 1000 ]

(* ---------------- gamma-search entries ---------------- *)

(* Every public gamma search rejects a violation probability outside
   (0, 1) — NaN included — before looking at the path, so an overloaded
   path raises too instead of answering [infinity]. *)
let test_epsilon_validated () =
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 and cross = Ebb.v ~m:1. ~rho:35. ~alpha:0.8 in
  let homog = mk_path ~h:5 ~delta:(Delta.Fin 0.) in
  let hetero =
    let bmux_at_2 i (nd : E2e.node) =
      if i = 2 then { nd with E2e.cross = [| { (nd.E2e.cross.(0)) with E2e.delta = Delta.Pos_inf } |] }
      else nd
    in
    E2e.v ~nodes:(Array.mapi bmux_at_2 homog.E2e.nodes) ~through
  in
  let overloaded = E2e.homogeneous ~h:5 ~capacity:40. ~cross ~delta:(Delta.Fin 0.) ~through in
  let classes =
    E2e.homogeneous_classes ~h:5 ~capacity:100. ~through
      ~classes:
        [
          { E2e.rho = 20.; m = 1.; delta = Delta.Fin 2. };
          { E2e.rho = 15.; m = 1.; delta = Delta.Fin (-5.) };
        ]
  in
  let entries =
    List.concat_map
      (fun (tag, p) ->
        [
          ("E2e.delay_bound " ^ tag, fun epsilon -> E2e.delay_bound ~epsilon p);
          ("E2e.backlog_bound " ^ tag, fun epsilon -> E2e.backlog_bound ~gamma_points:4 ~epsilon p);
          ("E2e.delay_bound_fast " ^ tag, fun epsilon -> E2e.delay_bound_fast ~epsilon p);
          ( "E2e.delay_bound_cached " ^ tag,
            fun epsilon -> E2e.delay_bound_cached ~kernel:(E2e.Kernel.make p) ~epsilon p );
        ])
      [
        ("homogeneous", homog);
        ("heterogeneous", hetero);
        ("overloaded", overloaded);
        ("several classes", classes);
      ]
    @ [
        ( "Additive.delay_bound",
          fun epsilon -> Additive.delay_bound ~capacity:100. ~cross ~h:5 ~epsilon through );
        ( "Additive.delay_bound overloaded",
          fun epsilon -> Additive.delay_bound ~capacity:40. ~cross ~h:5 ~epsilon through );
      ]
  in
  List.iter
    (fun (name, bound) ->
      List.iter
        (fun epsilon ->
          match bound epsilon with
          | v -> Alcotest.failf "%s accepted epsilon = %g (returned %g)" name epsilon v
          | exception Invalid_argument _ -> ())
        [ Float.nan; 0.; 1.; 5. ];
      let v = bound 1e-3 in
      if Float.is_nan v then Alcotest.failf "%s: NaN at epsilon = 1e-3" name)
    entries

(* [delay_bound_cached] on three serve-style shapes (s pinned at half the
   stable maximum, as a cache entry pins one s), at the serve grid (12
   points) and a coarse one, pinned bit for bit: any change to the grid,
   the golden phase or the Eq.-38 evaluator shows here. *)
let test_delay_bound_cached_pinned () =
  List.iter
    (fun (h, u_through, u_cross, sched, epsilon, s_exp, d12, d5) ->
      let sc = Scenario.of_utilization ~h ~u_through ~u_cross in
      let s = 0.5 *. Option.get (Scenario.s_stable_max sc) in
      let p = Scenario.path_at sc ~s ~delta:(Classes.delta_through_cross sched) in
      let kernel = E2e.Kernel.make p in
      let check what expected got =
        if not (bit_eq expected got) then
          Alcotest.failf "H=%d %s: expected %.17g, got %.17g" h what expected got
      in
      check "s" s_exp s;
      check "12-point bound" d12 (E2e.delay_bound_cached ~kernel ~epsilon p);
      check "5-point bound" d5 (E2e.delay_bound_cached ~gamma_points:5 ~kernel ~epsilon p))
    [
      (5, 0.15, 0.35, Classes.Fifo, 1e-9, 0.024438116845651999, 146.98628008584419,
       146.98628018944709);
      (10, 0.3, 0.4, Classes.Bmux, 1e-6, 0.013691163431736904, 423.36523685329706,
       423.36523688720393);
      (2, 0.2, 0.6, Classes.Edf_gap (-4.), 1e-3, 0.0089407071598593818, 82.099093061520819,
       82.099093061520819);
    ]

(* ---------------- additive baseline ---------------- *)

let test_additive_dominates_network_bound () =
  List.iter
    (fun h ->
      let sc = Scenario.of_utilization ~h ~u_through:0.25 ~u_cross:0.25 in
      let net = Scenario.delay_bound ~s_points:16 ~scheduler:Classes.Bmux sc in
      let add = Additive.delay_bound_scenario ~s_points:16 sc in
      Alcotest.(check bool)
        (Fmt.str "H=%d: additive %g >= network %g" h add net)
        true
        (add >= net *. 0.99))
    [ 2; 5; 10 ]

let test_additive_superlinear_growth () =
  (* Ratio additive/network must grow with H (Fig. 4's message). *)
  let ratio h =
    let sc = Scenario.of_utilization ~h ~u_through:0.25 ~u_cross:0.25 in
    let net = Scenario.delay_bound ~s_points:16 ~scheduler:Classes.Bmux sc in
    let add = Additive.delay_bound_scenario ~s_points:16 sc in
    add /. net
  in
  let r2 = ratio 2 and r10 = ratio 10 in
  Alcotest.(check bool) (Fmt.str "ratio grows: %g -> %g" r2 r10) true (r10 > r2)

let test_additive_per_node_increasing () =
  (* Per-node delay bounds must increase along the path (burstiness grows). *)
  let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8 in
  let cross = Ebb.v ~m:1. ~rho:25. ~alpha:0.8 in
  let (per, total) =
    Additive.analyze ~capacity:100. ~cross ~through ~h:6 ~gamma:1. ~epsilon:1e-9
  in
  Alcotest.(check int) "six nodes" 6 (List.length per);
  Alcotest.(check bool) "total finite" true (Float.is_finite total);
  let ds = List.map (fun p -> p.Additive.delay) per in
  let rec nondecr = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecr rest
    | _ -> true
  in
  Alcotest.(check bool) "per-node delays nondecreasing" true (nondecr ds)

let suite =
  [
    Alcotest.test_case "Eq. 34 closed form" `Quick test_total_bound_matches_eq34;
    Alcotest.test_case "sigma roundtrip" `Quick test_sigma_roundtrip;
    Alcotest.test_case "BMUX = Eq. 43" `Quick test_bmux_matches_eq43;
    Alcotest.test_case "FIFO = Eq. 44" `Quick test_fifo_matches_eq44;
    Alcotest.test_case "K-procedure bounds exact" `Quick test_k_procedure_upper_bounds_exact;
    Alcotest.test_case "H=1 single-node consistency" `Quick test_h1_theta_equals_d;
    Alcotest.test_case "scheduler ordering" `Quick test_scheduler_ordering_e2e;
    Alcotest.test_case "monotone in H" `Quick test_delay_monotone_in_h;
    Alcotest.test_case "monotone in epsilon" `Quick test_delay_monotone_in_epsilon;
    Alcotest.test_case "overload infinite" `Quick test_overload_infinite;
    Alcotest.test_case "FIFO -> BMUX at low cross load" `Quick test_fifo_approaches_bmux_low_cross;
    Alcotest.test_case "heterogeneous path" `Quick test_heterogeneous_path;
    Alcotest.test_case "curve agrees with optimizer" `Quick test_curve_agrees_with_optimizer;
    Alcotest.test_case "network curve shape" `Quick test_curve_shape;
    Alcotest.test_case "backlog properties" `Quick test_backlog_properties;
    Alcotest.test_case "backlog vs delay" `Quick test_backlog_vs_delay_little;
    Alcotest.test_case "scenario flow counts" `Quick test_scenario_flow_counts;
    Alcotest.test_case "scenario ordering" `Slow test_scenario_fifo_between_sp_and_bmux;
    Alcotest.test_case "scenario monotone in U" `Slow test_scenario_increasing_in_utilization;
    Alcotest.test_case "scenario EDF fixed point" `Slow test_scenario_edf_fixed_point;
    Alcotest.test_case "scenario EDF root of F(d) - d" `Slow test_scenario_edf_root;
    Alcotest.test_case "scenario EDF tight deadlines" `Slow test_scenario_edf_tight_deadlines_above_fifo;
    Alcotest.test_case "scenario backlog" `Slow test_scenario_backlog;
    Alcotest.test_case "additive dominates" `Slow test_additive_dominates_network_bound;
    Alcotest.test_case "additive superlinear" `Slow test_additive_superlinear_growth;
    Alcotest.test_case "additive per-node increasing" `Quick test_additive_per_node_increasing;
    QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
    QCheck_alcotest.to_alcotest prop_k_procedure_vs_enumeration;
    QCheck_alcotest.to_alcotest prop_fast_path_heterogeneous_bitwise;
    QCheck_alcotest.to_alcotest prop_classes_match_oracle;
    Alcotest.test_case "kernel allocates a constant per gamma point" `Quick
      test_kernel_allocation_constant;
    Alcotest.test_case "smallest_k O(H) = reference up to H=1000" `Quick
      test_smallest_k_matches_reference;
    Alcotest.test_case "epsilon validated at every gamma search" `Quick test_epsilon_validated;
    Alcotest.test_case "delay_bound_cached pinned on serve shapes" `Quick
      test_delay_bound_cached_pinned;
  ]

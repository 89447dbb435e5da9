(* Tests for the end-to-end analysis with several cross classes per node
   (E2e's several-class node model), against the single-class paths and
   the bisection-based oracle in test/oracle. *)

module Mc = Oracle.Multiclass
module E2e = Deltanet.E2e
module Delta = Scheduler.Delta
module Ebb = Envelope.Ebb

let check_float ?(tol = 1e-9) name expected got =
  let ok =
    (Float.equal expected Float.infinity && Float.equal got Float.infinity)
    || Float.abs (expected -. got)
       <= tol *. (1. +. Float.max (Float.abs expected) (Float.abs got))
  in
  if not ok then Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let through = Ebb.v ~m:1. ~rho:15. ~alpha:0.8

let two_class_path ~h ~delta =
  E2e.homogeneous ~h ~capacity:100. ~cross:(Ebb.v ~m:1. ~rho:35. ~alpha:0.8) ~delta
    ~through

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The one-class [homogeneous_classes] path is the [homogeneous] path. *)
let one_class ~h ~delta =
  E2e.homogeneous_classes ~h ~capacity:100. ~through
    ~classes:[ { E2e.rho = 35.; m = 1.; delta } ]

(* ------------- consistency with the single-class paths ------------- *)

let test_single_class_matches_e2e () =
  List.iter
    (fun (h, delta) ->
      let p2 = two_class_path ~h ~delta in
      let pc = one_class ~h ~delta in
      let pm = Mc.of_two_class p2 in
      let gamma = 0.7 and sigma = 280. in
      let what = Fmt.str "H=%d delta=%a" h Delta.pp delta in
      let s2 = E2e.sigma_for p2 ~gamma ~epsilon:1e-9 in
      if not (bit_eq s2 (E2e.sigma_for pc ~gamma ~epsilon:1e-9)) then
        Alcotest.failf "sigma %s: one-class path differs" what;
      check_float ~tol:1e-6 ("sigma vs oracle " ^ what) s2 (Mc.sigma_for pm ~gamma ~epsilon:1e-9);
      let d2 = E2e.delay_given p2 ~gamma ~sigma in
      if not (bit_eq d2 (E2e.delay_given pc ~gamma ~sigma)) then
        Alcotest.failf "delay %s: one-class path differs" what;
      check_float ~tol:1e-6 ("delay vs oracle " ^ what) d2 (Mc.delay_given pm ~gamma ~sigma))
    [
      (1, Delta.Fin 0.);
      (4, Delta.Fin 0.);
      (4, Delta.Pos_inf);
      (4, Delta.Fin (-8.));
      (4, Delta.Fin 4.);
      (6, Delta.Neg_inf);
    ]

let test_single_class_full_bound_matches () =
  List.iter
    (fun delta ->
      let p2 = two_class_path ~h:5 ~delta in
      let d2 = E2e.delay_bound ~epsilon:1e-9 p2 in
      if not (bit_eq d2 (E2e.delay_bound ~epsilon:1e-9 (one_class ~h:5 ~delta))) then
        Alcotest.failf "delta=%a: one-class path differs" Delta.pp delta;
      (* the oracle shares the gamma grid but E2e adds a golden-section
         refinement, so allow the grid granularity *)
      check_float ~tol:1e-3
        (Fmt.str "delta=%a" Delta.pp delta)
        d2
        (Mc.delay_bound ~epsilon:1e-9 (Mc.of_two_class p2)))
    [ Delta.Fin 0.; Delta.Pos_inf; Delta.Fin (-10.) ]

(* ------------- genuinely multi-class behaviour ------------- *)

let classes ~h classes = E2e.homogeneous_classes ~h ~capacity:100. ~classes ~through

let mk_two_cross ~delta_urgent ~delta_bulk =
  classes ~h:4
    [
      { E2e.rho = 20.; m = 1.; delta = delta_urgent };
      { E2e.rho = 15.; m = 1.; delta = delta_bulk };
    ]

let test_split_classes_bracketed () =
  (* Splitting the cross aggregate into an urgent class (Pos_inf) and a
     bulk class (Neg_inf) must land between all-Neg_inf and all-Pos_inf. *)
  let d du db = E2e.delay_bound ~epsilon:1e-9 (mk_two_cross ~delta_urgent:du ~delta_bulk:db) in
  let all_low = d Delta.Neg_inf Delta.Neg_inf in
  let split = d Delta.Pos_inf Delta.Neg_inf in
  let all_high = d Delta.Pos_inf Delta.Pos_inf in
  Alcotest.(check bool)
    (Fmt.str "%g <= %g <= %g" all_low split all_high)
    true
    (all_low <= split +. 1e-9 && split <= all_high +. 1e-9)

let test_uniform_split_conservative () =
  (* Splitting an aggregate into two classes with the same delta is
     strictly conservative: each class carries its own sample-path slack
     gamma (one extra gamma of envelope rate in total) and its own union
     bound.  Aggregating before the analysis is therefore the right move —
     exactly why the paper carries one cross aggregate per node. *)
  let split =
    classes ~h:4
      [
        { E2e.rho = 20.; m = 1.; delta = Delta.Fin 0. };
        { E2e.rho = 15.; m = 1.; delta = Delta.Fin 0. };
      ]
  in
  let merged = classes ~h:4 [ { E2e.rho = 35.; m = 1.; delta = Delta.Fin 0. } ] in
  let gamma = 0.7 and sigma = 300. in
  Alcotest.(check bool) "split optimization is weakly worse" true
    (E2e.delay_given split ~gamma ~sigma >= E2e.delay_given merged ~gamma ~sigma -. 1e-9);
  Alcotest.(check bool) "split pays a larger union bound" true
    (E2e.sigma_for split ~gamma ~epsilon:1e-9
    >= E2e.sigma_for merged ~gamma ~epsilon:1e-9 -. 1e-9);
  Alcotest.(check bool) "split full bound is weakly worse" true
    (E2e.delay_bound ~epsilon:1e-9 split >= E2e.delay_bound ~epsilon:1e-9 merged -. 1e-6)

let test_deadline_ordering_multiclass () =
  (* Making the bulk class's deadline looser (more negative delta) can only
     help the through flow. *)
  let d db =
    E2e.delay_bound ~epsilon:1e-9 (mk_two_cross ~delta_urgent:(Delta.Fin 2.) ~delta_bulk:db)
  in
  let loose = d (Delta.Fin (-50.)) in
  let mid = d (Delta.Fin (-5.)) in
  let tight = d (Delta.Fin 0.) in
  Alcotest.(check bool)
    (Fmt.str "%g <= %g <= %g" loose mid tight)
    true
    (loose <= mid +. 1e-9 && mid <= tight +. 1e-9)

let test_three_deadline_classes_finite () =
  let p =
    classes ~h:5
      [
        { E2e.rho = 10.; m = 1.; delta = Delta.Fin 5. };
        { E2e.rho = 15.; m = 1.; delta = Delta.Fin 0. };
        { E2e.rho = 10.; m = 1.; delta = Delta.Fin (-20.) };
      ]
  in
  let d = E2e.delay_bound ~epsilon:1e-9 p in
  Alcotest.(check bool) (Fmt.str "finite %g" d) true (Float.is_finite d && d > 0.)

let test_overload_infinite () =
  let p =
    classes ~h:3
      [
        { E2e.rho = 50.; m = 1.; delta = Delta.Fin 0. };
        { E2e.rho = 40.; m = 1.; delta = Delta.Fin (-5.) };
      ]
  in
  check_float "overload" Float.infinity (E2e.delay_bound ~epsilon:1e-9 p)

let suite =
  [
    Alcotest.test_case "single class = E2e (sigma, delay)" `Quick test_single_class_matches_e2e;
    Alcotest.test_case "single class = E2e (full bound)" `Quick test_single_class_full_bound_matches;
    Alcotest.test_case "split classes bracketed" `Quick test_split_classes_bracketed;
    Alcotest.test_case "uniform split conservative" `Quick test_uniform_split_conservative;
    Alcotest.test_case "deadline ordering" `Quick test_deadline_ordering_multiclass;
    Alcotest.test_case "three deadline classes" `Quick test_three_deadline_classes_finite;
    Alcotest.test_case "overload" `Quick test_overload_infinite;
  ]

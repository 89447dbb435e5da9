(* The pre-kernel list-based Eq.-38 solver. *)

module E2e = Deltanet.E2e

(* the registry returns E2e's own counter for the same name *)
let c_objective_evals = Telemetry.Counter.make "e2e.eq38.objective_evals"

let delay_given p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "E2e.delay_given: negative sigma";
  let cands = E2e.x_candidates p ~gamma ~sigma in
  if !Telemetry.on then
    Telemetry.Counter.add c_objective_evals (List.length cands);
  (* The objective is piecewise linear with kinks exactly at the candidate
     abscissae, so its minimum over X >= 0 is attained at one of them. *)
  List.fold_left
    (fun acc x -> Float.min acc (E2e.objective p ~gamma ~sigma x))
    Float.infinity cands

let optimal_thetas p ~gamma ~sigma =
  let cands = E2e.x_candidates p ~gamma ~sigma in
  if !Telemetry.on then
    Telemetry.Counter.add c_objective_evals (List.length cands + 1);
  let best =
    List.fold_left
      (fun (bx, bv) x ->
        let v = E2e.objective p ~gamma ~sigma x in
        if v < bv then (x, v) else (bx, bv))
      (0., E2e.objective p ~gamma ~sigma 0.)
      cands
  in
  let x = fst best in
  (Array.init (E2e.hop_count p) (fun h -> E2e.theta_of_x p ~gamma ~sigma ~x h), x)

let sigma_for = E2e.sigma_for

(* O(H^2): [suffix_sum] re-walks the tail for every candidate K. *)
let smallest_k ~extra_ok ~h ~c ~rho_c ~gamma =
  let term k =
    (c -. rho_c -. (float_of_int k *. gamma))
    /. (c -. (float_of_int (k - 1) *. gamma))
  in
  let rec suffix_sum k = if k > h then 0. else term k +. suffix_sum (k + 1) in
  let rec find k =
    if k > h then h
    else if suffix_sum (k + 1) < 1. && extra_ok k then k
    else find (k + 1)
  in
  find 0

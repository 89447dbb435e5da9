(* Section IV: stochastic end-to-end delay bounds for ∆-schedulers. *)

module Exp = Envelope.Exponential

let c_objective_evals = Telemetry.Counter.make "e2e.eq38.objective_evals"
let c_gamma_evals = Telemetry.Counter.make "e2e.gamma.evals"

type node = {
  capacity : float;
  cross_rho : float;
  cross_m : float;
  delta : Scheduler.Delta.t;
}

type path = { nodes : node array; through : Envelope.Ebb.t }

let homogeneous ~h ~capacity ~cross ~delta ~through =
  if h <= 0 then invalid_arg "E2e.homogeneous: non-positive path length";
  if Float.abs (cross.Envelope.Ebb.alpha -. through.Envelope.Ebb.alpha)
     > 1e-12 *. through.Envelope.Ebb.alpha
  then invalid_arg "E2e.homogeneous: through and cross must share the EBB decay";
  {
    nodes =
      Array.make h
        { capacity; cross_rho = cross.Envelope.Ebb.rho; cross_m = cross.Envelope.Ebb.m; delta };
    through;
  }

let hop_count p = Array.length p.nodes

let gamma_max p =
  let rho = p.through.Envelope.Ebb.rho in
  let h = float_of_int (hop_count p) in
  Array.fold_left
    (fun acc nd ->
      let margin =
        match nd.delta with
        | Scheduler.Delta.Neg_inf -> (nd.capacity -. rho) /. (h +. 1.)
        | _ -> (nd.capacity -. nd.cross_rho -. rho) /. (h +. 1.)
      in
      Float.min acc margin)
    Float.infinity p.nodes

(* --------------------------------------------------------------- *)
(* Bounding function (Eq. 31 / 34, generalized to per-node constants) *)

let stochastic_nodes p =
  Array.to_list p.nodes
  |> List.filter (fun nd -> not (Scheduler.Delta.equal nd.delta Scheduler.Delta.Neg_inf))

let total_bound p ~gamma =
  if gamma <= 0. then invalid_arg "E2e.total_bound: non-positive gamma";
  let alpha = p.through.Envelope.Ebb.alpha in
  (* Statistical sample-path envelope of the through traffic (union bound). *)
  let eps_g = Exp.geometric_sum (Envelope.Ebb.bounding p.through) ~gamma in
  (* Per-node service-curve bounds (Eq. 29); in the network convolution
     every node except the last stochastic one incurs a second union bound
     over time (the inner sum of Eq. 31). *)
  let stoch = stochastic_nodes p in
  let n = List.length stoch in
  let node_terms =
    List.mapi
      (fun i nd ->
        let eps_h = Exp.geometric_sum (Exp.v ~m:nd.cross_m ~a:alpha) ~gamma in
        if i < n - 1 then Exp.geometric_sum eps_h ~gamma else eps_h)
      stoch
  in
  Exp.combine (eps_g :: node_terms)

let sigma_for p ~gamma ~epsilon = Exp.invert (total_bound p ~gamma) ~epsilon

(* --------------------------------------------------------------- *)
(* The optimization problem of Eq. (38)                              *)

(* Smallest feasible theta for the (0-indexed) node [h], given X = x:
   (C -. h*gamma) (x +. theta) -. (rho_c +. gamma) (x +. min(delta,theta))_+
   >= sigma. *)
let theta_of_x p ~gamma ~sigma ~x h =
  let nd = p.nodes.(h) in
  let c_h = nd.capacity -. (float_of_int h *. gamma) in
  if c_h <= 0. then Float.infinity
  else
    match nd.delta with
    | Scheduler.Delta.Neg_inf ->
      (* cross traffic never precedes the through flow *)
      Float.max 0. ((sigma /. c_h) -. x)
    | Scheduler.Delta.Pos_inf ->
      let margin = c_h -. nd.cross_rho -. gamma in
      if margin <= 0. then Float.infinity else Float.max 0. ((sigma /. margin) -. x)
    | Scheduler.Delta.Fin d when d >= 0. ->
      let margin = c_h -. nd.cross_rho -. gamma in
      if margin *. x >= sigma then 0.
      else if margin > 0. && (sigma /. margin) -. x <= d then (sigma /. margin) -. x
      else
        (* beyond theta = d the constraint grows at the full rate c_h *)
        let theta2 = ((sigma +. ((nd.cross_rho +. gamma) *. (x +. d))) /. c_h) -. x in
        Float.max theta2 d
    | Scheduler.Delta.Fin d ->
      (* d < 0: min(delta, theta) = d for all theta >= 0 *)
      let cross_part = (nd.cross_rho +. gamma) *. Float.max 0. (x +. d) in
      Float.max 0. (((sigma +. cross_part) /. c_h) -. x)

(* No per-call telemetry here: at ~10^7 calls per figure sweep even a
   guarded counter increment is measurable.  Callers that iterate over
   candidate sets account for their evaluations in one [Counter.add]. *)
let objective p ~gamma ~sigma x =
  let acc = ref x in
  for h = 0 to hop_count p - 1 do
    acc := !acc +. theta_of_x p ~gamma ~sigma ~x h
  done;
  !acc

(* Kink abscissae of X -> theta_h(X), per node. *)
let x_candidates p ~gamma ~sigma =
  let cands = ref [ 0. ] in
  let push x = if Float.is_finite x && x >= 0. then cands := x :: !cands in
  Array.iteri
    (fun h nd ->
      let c_h = nd.capacity -. (float_of_int h *. gamma) in
      if c_h > 0. then begin
        let margin = c_h -. nd.cross_rho -. gamma in
        match nd.delta with
        | Scheduler.Delta.Neg_inf -> push (sigma /. c_h)
        | Scheduler.Delta.Pos_inf -> if margin > 0. then push (sigma /. margin)
        | Scheduler.Delta.Fin d when d >= 0. ->
          if margin > 0. then begin
            push (sigma /. margin);
            push ((sigma /. margin) -. d)
          end
        | Scheduler.Delta.Fin d ->
          push (-.d);
          push (sigma /. c_h);
          if margin > 0. then push ((sigma +. ((nd.cross_rho +. gamma) *. d)) /. margin)
      end)
    p.nodes;
  List.sort_uniq Float.compare !cands

(* --------------------------------------------------------------- *)
(* Compiled per-path solver kernel for Eq. (38)                      *)

(* Bit-exact local forms of the [Stdlib.Float] comparisons used in the
   Eq.-38 hot loops.  Without flambda, [Float.max]/[Float.min] probe
   [Float.sign_bit] — an external C call — whenever the fast [>]
   comparison fails (i.e. on every clamp-to-zero branch), and
   [Float.is_finite]/[Float.compare] are cross-module calls that box
   both floats.  Those costs land on the innermost expression of the
   objective fold, once per (candidate, node) pair.  The forms below
   compile to straight-line float compares and return the stdlib result
   bit for bit on their stated domains; the sign-bit subtlety they must
   preserve is the (-0., +0.) pair, resolved by [is_neg_zero].

   - [fmax0 d]     = [Float.max 0. d]   for every float [d];
   - [fmax_nz x y] = [Float.max x y]    when [y] is non-NaN (the ∆
     values: [Delta.fin] rejects NaN);
   - [fmin1 x y]   = [Float.min x y]    when at most one operand is NaN
     (the delay folds never hold two: a NaN objective only arises from
     a NaN sigma, which filters every candidate but 0.);
   - [fgt a b]     = [Float.compare a b > 0], and
     [fne a b]     = [Float.compare a b <> 0], both for non-NaN
     operands (the candidate buffers: pushes are filtered finite). *)
let[@inline] is_neg_zero (x : float) = x = 0. && 1. /. x < 0.
[@@lint.allow "float-equal"]
let[@inline] fmax0 (d : float) = if d > 0. then d else if d <> d then d else 0.

let[@inline] fmax_nz (x : float) (y : float) =
  if x <> x then x
  else if y > x then y
  else if is_neg_zero x && not (is_neg_zero y) then y
  else x

let[@inline] fmin1 (x : float) (y : float) =
  if x <> x then x
  else if y <> y then y
  else if y > x then x
  else if is_neg_zero x && not (is_neg_zero y) then x
  else y

let[@inline] fgt (a : float) (b : float) =
  a > b || (a = 0. && b = 0. && is_neg_zero b && not (is_neg_zero a))
[@@lint.allow "float-equal"]

let[@inline] fne (a : float) (b : float) =
  a <> b || (a = 0. && is_neg_zero a <> is_neg_zero b)
[@@lint.allow "float-equal"]

(* The zero-allocation core behind [delay_given] / [delay_bound]:
   [make] flattens the path into plain arrays once, [set] compiles the
   per-node constants (c_h, margin_h, clipped-∆ case tags) for one
   (gamma, sigma) and writes the candidate abscissae into a reusable
   scratch buffer sorted in place, and [delay] folds the objective over
   the candidates with no allocation, no variant matching and no list
   sorting.  Every float expression mirrors the list-based [x_candidates]
   / [objective] / [sigma_for] operation for operation — same operands,
   same order — so all results are bit-identical to them; the QCheck
   suite pins this bit-for-bit against the oracle in test/oracle. *)
module Kernel = struct
  type t = {
    h : int;
    (* gamma-independent per-node inputs *)
    cap : float array;
    rho : float array;
    dv : float array;  (* Fin d; 0. for the infinite cases *)
    tag : int array;   (* 0 Neg_inf | 1 Pos_inf | 2 Fin d >= 0 | 3 Fin d < 0 *)
    (* sigma_for precompute: every envelope in Eq. (31)/(34) shares the
       decay [alpha], so one exp and one log alpha serve them all *)
    alpha : float;
    m_thr : float;
    inv_a : float;     (* 1. /. alpha *)
    log_a : float;     (* log alpha *)
    stoch_m : float array; (* cross_m of the stochastic nodes, in order *)
    (* per-(gamma, sigma) compiled state, overwritten by [set] *)
    mutable sigma : float;
    c : float array;    (* c_h = capacity -. h *. gamma *)
    mg : float array;   (* margin = c_h -. cross_rho -. gamma *)
    r : float array;    (* cross_rho +. gamma *)
    s_c : float array;  (* sigma /. c_h *)
    s_m : float array;  (* sigma /. margin *)
    case : int array;   (* see [theta_at] *)
    cand : float array; (* sorted unique candidate abscissae, first [ncand] *)
    mutable ncand : int;
    acc : float array;  (* per-candidate objective accumulators of [delay] *)
  }

  let make p =
    let h = hop_count p in
    let cap = Array.make h 0. and rho = Array.make h 0. and dv = Array.make h 0. in
    let tag = Array.make h 0 in
    for i = 0 to h - 1 do
      let nd = p.nodes.(i) in
      cap.(i) <- nd.capacity;
      rho.(i) <- nd.cross_rho;
      match nd.delta with
      | Scheduler.Delta.Neg_inf -> tag.(i) <- 0
      | Scheduler.Delta.Pos_inf -> tag.(i) <- 1
      | Scheduler.Delta.Fin d when d >= 0. ->
        tag.(i) <- 2;
        dv.(i) <- d
      | Scheduler.Delta.Fin d ->
        tag.(i) <- 3;
        dv.(i) <- d
    done;
    let alpha = p.through.Envelope.Ebb.alpha in
    let stoch_m =
      let buf = ref [] in
      for i = h - 1 downto 0 do
        let nd = p.nodes.(i) in
        if not (Scheduler.Delta.equal nd.delta Scheduler.Delta.Neg_inf) then
          buf := nd.cross_m :: !buf
      done;
      Array.of_list !buf
    in
    {
      h;
      cap;
      rho;
      dv;
      tag;
      alpha;
      m_thr = p.through.Envelope.Ebb.m;
      inv_a = 1. /. alpha;
      log_a = log alpha;
      stoch_m;
      sigma = Float.nan;
      c = Array.make h 0.;
      mg = Array.make h 0.;
      r = Array.make h 0.;
      s_c = Array.make h 0.;
      s_m = Array.make h 0.;
      case = Array.make h 0;
      cand = Array.make ((3 * h) + 1) 0.;
      ncand = 0;
      acc = Array.make ((3 * h) + 1) 0.;
    }

  (* [sigma_for] with the shared-decay algebra folded out: the reference
     builds (stoch + 1) Exponential.t records through [geometric_sum] and
     [combine], but all of them carry the same [a = alpha], so [q], [log
     alpha] and [alpha *. w] are computed once and only the per-node [log
     m_i] remain (cached against the previous node — homogeneous paths
     pay a single log).  Each remaining float op replicates the reference
     expression exactly; reads only immutable fields, so one kernel may
     serve [sigma_for] from several domains concurrently. *)
  let sigma_for t ~gamma ~epsilon =
    if gamma <= 0. then invalid_arg "E2e.total_bound: non-positive gamma";
    if t.m_thr < 0. || t.m_thr <> t.m_thr then
      invalid_arg "Exponential.v: negative prefactor";
    if t.alpha <= 0. || t.alpha <> t.alpha then
      invalid_arg "Exponential.v: non-positive rate";
    let q = exp (-.t.alpha *. gamma) in
    let omq = 1. -. q in
    let m_g = t.m_thr /. omq in
    let n = Array.length t.stoch_m in
    if n = 0 then begin
      (* combine [eps_g] = eps_g *)
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_g /. epsilon) /. t.alpha)
    end
    else begin
      let w = ref 0. in
      for _ = 0 to n do
        w := !w +. t.inv_a
      done;
      let w = !w in
      let aw = t.alpha *. w in
      let acc = ref 0. in
      acc := !acc +. ((log m_g +. t.log_a) /. aw);
      let last_m = ref Float.nan and last_log = ref 0. in
      for i = 0 to n - 1 do
        let cm = t.stoch_m.(i) in
        if cm < 0. || cm <> cm then
          invalid_arg "Exponential.v: negative prefactor";
        let mi = if i < n - 1 then cm /. omq /. omq else cm /. omq in
        (* [=] as the log-memo key is sound and bit-exact: a fresh NaN
           key always misses (NaN <> everything, and the seed is NaN),
           and the one compare-equal bit-distinct pair, -0. and +0.,
           has log(-0.) = log(+0.) = -inf, so a hit returns exactly
           what the recompute would. *)
        let lm =
          if mi = !last_m then !last_log
          else begin
            let l = log mi in
            last_m := mi;
            last_log := l;
            l
          end
        in
        acc := !acc +. ((lm +. t.log_a) /. aw)
      done;
      let log_m = log w +. !acc in
      let m_c = exp log_m in
      let a_c = 1. /. w in
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_c /. epsilon) /. a_c)
    end
  [@@zero_alloc_check]

  (* case tags compiled by [set]:
     0 — theta = +inf for every x (c_h <= 0, or BMUX with margin <= 0)
     1 — strict priority (Neg_inf)
     2 — BMUX, margin > 0
     3 — Fin d >= 0, margin > 0
     4 — Fin d >= 0, margin <= 0
     5 — Fin d < 0 *)
  let set t ~gamma ~sigma =
    t.sigma <- sigma;
    (* candidate multiset: 0. first, then per node in index order — the
       same pushes, filters and float expressions as [x_candidates] *)
    t.cand.(0) <- 0.;
    t.ncand <- 1;
    for i = 0 to t.h - 1 do
      let c_h = t.cap.(i) -. (float_of_int i *. gamma) in
      let margin = c_h -. t.rho.(i) -. gamma in
      t.c.(i) <- c_h;
      t.mg.(i) <- margin;
      t.r.(i) <- t.rho.(i) +. gamma;
      t.s_c.(i) <- sigma /. c_h;
      t.s_m.(i) <- sigma /. margin;
      let push x =
        (* [x -. x = 0.] is [Float.is_finite] inlined (a cross-module
           call otherwise): NaN and the infinities fail it bit-exactly. *)
        if ((x -. x = 0.) [@lint.allow "float-equal"]) && x >= 0. then begin
          t.cand.(t.ncand) <- x;
          t.ncand <- t.ncand + 1
        end
      in
      if c_h <= 0. then t.case.(i) <- 0
      else
        match t.tag.(i) with
        | 0 ->
          t.case.(i) <- 1;
          push t.s_c.(i)
        | 1 ->
          if margin > 0. then begin
            t.case.(i) <- 2;
            push t.s_m.(i)
          end
          else t.case.(i) <- 0
        | 2 ->
          if margin > 0. then begin
            t.case.(i) <- 3;
            push t.s_m.(i);
            push (t.s_m.(i) -. t.dv.(i))
          end
          else t.case.(i) <- 4
        | _ ->
          t.case.(i) <- 5;
          push (-.t.dv.(i));
          push t.s_c.(i);
          if margin > 0. then push ((sigma +. (t.r.(i) *. t.dv.(i))) /. margin)
    done;
    (* in-place insertion sort + adjacent dedup: the candidate sets are
       tiny (<= 3H + 1), and the result equals List.sort_uniq
       Float.compare on the same multiset *)
    for i = 1 to t.ncand - 1 do
      let x = t.cand.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && fgt t.cand.(!j) x do
        t.cand.(!j + 1) <- t.cand.(!j);
        decr j
      done;
      t.cand.(!j + 1) <- x
    done;
    if t.ncand > 1 then begin
      let w = ref 1 in
      for i = 1 to t.ncand - 1 do
        if fne t.cand.(i) t.cand.(!w - 1) then begin
          t.cand.(!w) <- t.cand.(i);
          incr w
        end
      done;
      t.ncand <- !w
    end
  [@@zero_alloc_check]

  (* [theta_of_x] over the compiled constants: int-tag dispatch, no
     allocation.  The guards and both sides of every comparison are the
     reference expressions with the invariant subterms precomputed. *)
  let[@inline] theta_at t x i =
    match t.case.(i) with
    | 0 -> Float.infinity
    | 1 -> fmax0 (t.s_c.(i) -. x)
    | 2 -> fmax0 (t.s_m.(i) -. x)
    | 3 ->
      if t.mg.(i) *. x >= t.sigma then 0.
      else if t.s_m.(i) -. x <= t.dv.(i) then t.s_m.(i) -. x
      else begin
        let theta2 = ((t.sigma +. (t.r.(i) *. (x +. t.dv.(i)))) /. t.c.(i)) -. x in
        fmax_nz theta2 t.dv.(i)
      end
    | 4 ->
      if t.mg.(i) *. x >= t.sigma then 0.
      else begin
        let theta2 = ((t.sigma +. (t.r.(i) *. (x +. t.dv.(i)))) /. t.c.(i)) -. x in
        fmax_nz theta2 t.dv.(i)
      end
    | _ ->
      fmax0 (((t.sigma +. (t.r.(i) *. fmax0 (x +. t.dv.(i)))) /. t.c.(i)) -. x)
  [@@zero_alloc_check]

  let objective_at t x =
    let acc = ref x in
    for i = 0 to t.h - 1 do
      acc := !acc +. theta_at t x i
    done;
    !acc
  [@@zero_alloc_check]

  (* The objective fold, node-major: each accumulator starts at its
     candidate and receives the thetas in node order — the theta
     expressions below are [theta_at]'s, operation for operation — so
     every partial sum, and hence the final [Float.min] fold in candidate
     order, equals [objective] at that candidate bit for bit.  Sweeping
     node-major dispatches each node's case tag once per point instead of
     once per (candidate, node) pair and keeps that node's constants in
     registers across the whole candidate row. *)
  let delay t =
    let n = t.ncand in
    let cand = t.cand and acc = t.acc in
    (* [j < n = ncand <= 3H+1 = length cand = length acc] throughout —
       the unsafe accesses below drop the per-pair bounds checks only. *)
    for j = 0 to n - 1 do
      Array.unsafe_set acc j (Array.unsafe_get cand j)
    done;
    for i = 0 to t.h - 1 do
      match t.case.(i) with
      | 0 ->
        for j = 0 to n - 1 do
          Array.unsafe_set acc j (Array.unsafe_get acc j +. Float.infinity)
        done
      | 1 ->
        let s = t.s_c.(i) in
        for j = 0 to n - 1 do
          Array.unsafe_set acc j
            (Array.unsafe_get acc j +. fmax0 (s -. Array.unsafe_get cand j))
        done
      | 2 ->
        let s = t.s_m.(i) in
        for j = 0 to n - 1 do
          Array.unsafe_set acc j
            (Array.unsafe_get acc j +. fmax0 (s -. Array.unsafe_get cand j))
        done
      | 3 ->
        let mg = t.mg.(i)
        and sg = t.sigma
        and s_m = t.s_m.(i)
        and dv = t.dv.(i)
        and r = t.r.(i)
        and c = t.c.(i) in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get cand j in
          let th =
            if mg *. x >= sg then 0.
            else if s_m -. x <= dv then s_m -. x
            else fmax_nz (((sg +. (r *. (x +. dv))) /. c) -. x) dv
          in
          Array.unsafe_set acc j (Array.unsafe_get acc j +. th)
        done
      | 4 ->
        let mg = t.mg.(i)
        and sg = t.sigma
        and dv = t.dv.(i)
        and r = t.r.(i)
        and c = t.c.(i) in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get cand j in
          let th =
            if mg *. x >= sg then 0.
            else fmax_nz (((sg +. (r *. (x +. dv))) /. c) -. x) dv
          in
          Array.unsafe_set acc j (Array.unsafe_get acc j +. th)
        done
      | _ ->
        let sg = t.sigma
        and dv = t.dv.(i)
        and r = t.r.(i)
        and c = t.c.(i) in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get cand j in
          Array.unsafe_set acc j
            (Array.unsafe_get acc j
            +. fmax0 (((sg +. (r *. fmax0 (x +. dv))) /. c) -. x))
        done
    done;
    if !Telemetry.on then Telemetry.Counter.add c_objective_evals n;
    let best = ref Float.infinity in
    for j = 0 to n - 1 do
      best := fmin1 !best (Array.unsafe_get acc j)
    done;
    !best
  [@@zero_alloc_check]

  let optimal_thetas t =
    if !Telemetry.on then Telemetry.Counter.add c_objective_evals (t.ncand + 1);
    let bx = ref 0. and bv = ref (objective_at t 0.) in
    for i = 0 to t.ncand - 1 do
      let x = t.cand.(i) in
      let v = objective_at t x in
      if v < !bv then begin
        bx := x;
        bv := v
      end
    done;
    let x = !bx in
    (Array.init t.h (fun i -> theta_at t x i), x)

  let delay_at_gamma t ~gamma ~epsilon =
    let sigma = sigma_for t ~gamma ~epsilon in
    set t ~gamma ~sigma;
    delay t
  [@@zero_alloc_check]

  (* All hot-loop state lives in the kernel and the caller's output
     buffer, so a worker can stream γ rows of any length without
     touching the GC (enforced by the zero_alloc analyzer). *)
  let run_gammas t ~epsilon ~gammas ~out =
    if Array.length out < Array.length gammas then
      invalid_arg "E2e.Kernel.run_gammas: output buffer shorter than the grid";
    for i = 0 to Array.length gammas - 1 do
      out.(i) <- delay_at_gamma t ~gamma:gammas.(i) ~epsilon
    done
  [@@zero_alloc_check]
end

let delay_given p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "E2e.delay_given: negative sigma";
  let k = Kernel.make p in
  Kernel.set k ~gamma ~sigma;
  Kernel.delay k

let delay_at_gamma p ~gamma ~epsilon =
  let k = Kernel.make p in
  Kernel.delay_at_gamma k ~gamma ~epsilon

let optimal_thetas p ~gamma ~sigma =
  let k = Kernel.make p in
  Kernel.set k ~gamma ~sigma;
  Kernel.optimal_thetas k

(* Estimated cost of one [delay_at_gamma] in abstract work units
   (~Eq.-38 node-steps): ~3H+1 candidates x H nodes, plus the
   transcendentals of [sigma_for].  Feeds the [?work] cutoff hints of
   the parallel grid scans here and in Scenario/Additive/Scaling. *)
let eval_cost p =
  let h = hop_count p in
  (3 * h * h) + (8 * h) + 50

(* --------------------------------------------------------------- *)
(* The network service curve as an explicit min-plus object          *)

module Curve = Minplus.Curve

(* S~^h_{(h-1)gamma}(t') = (C -. h' gamma)(t' +. theta_h)
                           -. (rho_c +. gamma) [t' +. ∆(theta_h)]_+
   for t' >= 0, as a curve (0-indexed h). *)
let tilde_curve p ~gamma ~theta h =
  let nd = p.nodes.(h) in
  let c_h = nd.capacity -. (float_of_int h *. gamma) in
  let base = Curve.v [ (0., c_h *. theta, c_h) ] in
  match Scheduler.Delta.clip_fin nd.delta theta with
  | None -> base
  | Some clipped ->
    let r = nd.cross_rho +. gamma in
    let cross =
      if clipped >= 0. then Curve.v [ (0., r *. clipped, r) ]
      else Curve.v [ (0., 0., 0.); (-.clipped, 0., r) ]
    in
    Curve.sub_clip base cross

let network_service_curve p ~gamma ~thetas =
  if Array.length thetas <> hop_count p then
    invalid_arg "E2e.network_service_curve: arity mismatch";
  Array.iter
    (fun th -> if th < 0. then invalid_arg "E2e.network_service_curve: negative theta")
    thetas;
  let total = Array.fold_left ( +. ) 0. thetas in
  let shifted h =
    Curve.hshift total (tilde_curve p ~gamma ~theta:thetas.(h) h)
  in
  let n = hop_count p in
  let merged = ref (shifted 0) in
  for h = 1 to n - 1 do
    merged := Curve.min !merged (shifted h)
  done;
  Curve.gate total !merged

let through_envelope_curve p ~gamma ~sigma =
  Curve.affine ~rate:(p.through.Envelope.Ebb.rho +. gamma) ~burst:sigma

let delay_via_curve p ~gamma ~sigma ~thetas =
  let service = network_service_curve p ~gamma ~thetas in
  Minplus.Deviation.horizontal
    ~arrival:(through_envelope_curve p ~gamma ~sigma)
    ~service

let backlog_given p ~gamma ~sigma =
  (* Any thetas yield a valid service curve; minimize the vertical
     deviation over the same candidate X values as the delay problem. *)
  let arrival = through_envelope_curve p ~gamma ~sigma in
  let backlog_at x =
    let thetas = Array.init (hop_count p) (fun h -> theta_of_x p ~gamma ~sigma ~x h) in
    if Array.exists (fun t -> not (Float.is_finite t)) thetas then Float.infinity
    else
      Minplus.Deviation.vertical ~arrival
        ~service:(network_service_curve p ~gamma ~thetas)
  in
  List.fold_left
    (fun acc x -> Float.min acc (backlog_at x))
    Float.infinity
    (x_candidates p ~gamma ~sigma)

(* --------------------------------------------------------------- *)
(* The gamma search                                                  *)

(* The one entry every gamma search goes through: the violation
   probability must lie in (0, 1) — written as the negation of the
   in-range test so NaN is rejected too — and an overloaded path
   ([gmax <= 0]) has no finite bound. *)
let with_gamma_range ~who ~epsilon gmax search =
  if not (epsilon > 0. && epsilon < 1.) then invalid_arg (who ^ ": epsilon out of range");
  if gmax <= 0. then Float.infinity else search ~lo:(gmax *. 1e-6) ~hi:(gmax *. 0.999)

let golden_minimize f lo hi steps =
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec go a b n =
    if n = 0 then 0.5 *. (a +. b)
    else
      let x1 = b -. (phi *. (b -. a)) and x2 = a +. (phi *. (b -. a)) in
      if f x1 <= f x2 then go a x2 (n - 1) else go x1 b (n - 1)
  in
  go lo hi steps

(* The gamma-search skeleton: the log-spaced coarse grid of
   [Parallel.Grid.log_scan], evaluated whole by [grid] (a blocked kernel
   scan, a per-point fan-out, or a sequential map), then [golden_steps]
   of sequential golden-section refinement around the best grid point.
   [golden] runs on the calling domain only, so it may reuse one
   compiled kernel.  Both are pure functions of gamma, so the golden
   phase memoizes per gamma value.  The memo is a small ring of recent
   probes scanned by primitive float [=] (gammas are positive and
   non-NaN, so value equality is bit equality): golden-section probes
   cluster as the bracket shrinks, so collisions — when the narrowed
   bracket re-lands on a recent abscissa, or the final midpoint repeats
   a probe — are always with the last few evaluations, and a fixed
   window catches them at constant scan cost.  A hit and a
   recomputation return the same float, so memo policy can never change
   the result; the flat arrays keep the golden loop off the GC. *)
let gamma_search ~golden_steps ~points ~grid ~golden ~lo ~hi =
  let scan = Parallel.Grid.log_scan ~lo ~hi ~points grid in
  let win = 8 in
  (* NaN keys never match a (positive) probe, so empty slots are inert *)
  let mg = Array.make win Float.nan and mv = Array.make win 0. in
  let mw = ref 0 in
  let fm gamma =
    let found = ref Float.nan in
    let hit = ref false in
    let i = ref 0 in
    while (not !hit) && !i < win do
      if mg.(!i) = gamma then begin
        found := mv.(!i);
        hit := true
      end;
      incr i
    done;
    if !hit then !found
    else begin
      let v = golden gamma in
      mg.(!mw) <- gamma;
      mv.(!mw) <- v;
      mw := (!mw + 1) mod win;
      v
    end
  in
  let center = scan.xs.(scan.best) in
  let a = Float.max lo (center /. scan.ratio) and b = Float.min hi (center *. scan.ratio) in
  let gstar = golden_minimize fm a b golden_steps in
  Float.min scan.values.(scan.best) (fm gstar)

let backlog_bound ?(gamma_points = 40) ~epsilon p =
  with_gamma_range ~who:"E2e.backlog_bound" ~epsilon (gamma_max p) @@ fun ~lo ~hi ->
  Telemetry.span "e2e.backlog_gamma_search"
    ~attrs:[ ("h", Telemetry.Int (hop_count p)); ("points", Telemetry.Int gamma_points) ]
  @@ fun () ->
  let f gamma =
    if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
    let sigma = sigma_for p ~gamma ~epsilon in
    backlog_given p ~gamma ~sigma
  in
  (* grid points fan out on the default pool; curve construction
     dominates each evaluation, hence the h^3 hint *)
  let h = hop_count p in
  let scan =
    Parallel.Grid.log_scan ~lo ~hi ~points:gamma_points
      (Parallel.Grid.values ~work:((32 * h * h * h) + 200) f)
  in
  scan.values.(scan.best)

(* Grid scans run through {!Kernel} in contiguous blocks: one compiled
   kernel per block amortizes [Kernel.make] over [grid_block] points,
   while the per-task [?work] hint ([eval_cost] x block) shows the pool
   the true per-chunk cost, so the sequential-vs-parallel decision
   matches a per-point fan-out.  4 blocks over the default 40-point
   grid: enough tasks to feed a small pool. *)
let grid_block = 10

let delay_grid ~epsilon p gammas =
  if !Telemetry.on then Telemetry.Counter.add c_gamma_evals (Array.length gammas);
  Parallel.Grid.values_blocked ~work:(eval_cost p) ~block:grid_block
    (fun block ->
      let k = Kernel.make p in
      let out = Array.make (Array.length block) 0. in
      Kernel.run_gammas k ~epsilon ~gammas:block ~out;
      out)
    gammas

let delay_bound ?(gamma_points = 40) ~epsilon p =
  with_gamma_range ~who:"E2e.delay_bound" ~epsilon (gamma_max p) @@ fun ~lo ~hi ->
  Telemetry.span "e2e.gamma_search"
    ~attrs:[ ("h", Telemetry.Int (hop_count p)); ("points", Telemetry.Int gamma_points) ]
  @@ fun () ->
  let k = Kernel.make p in
  let golden gamma =
    if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
    Kernel.delay_at_gamma k ~gamma ~epsilon
  in
  gamma_search ~golden_steps:40 ~points:gamma_points ~grid:(delay_grid ~epsilon p)
    ~golden ~lo ~hi

(* --------------------------------------------------------------- *)
(* Closed forms and the paper's explicit K-procedure                 *)

let is_homogeneous p =
  let nd0 = p.nodes.(0) in
  Array.for_all
    (fun nd ->
      Float.equal nd.capacity nd0.capacity
      && Float.equal nd.cross_rho nd0.cross_rho
      && Scheduler.Delta.equal nd.delta nd0.delta)
    p.nodes

let require_homogeneous p name =
  if not (is_homogeneous p) then invalid_arg (name ^ ": path is not homogeneous");
  p.nodes.(0)

let bmux_closed_form p ~gamma ~sigma =
  let nd = require_homogeneous p "E2e.bmux_closed_form" in
  if not (Scheduler.Delta.equal nd.delta Scheduler.Delta.Pos_inf) then
    invalid_arg "E2e.bmux_closed_form: not a BMUX path";
  let h = float_of_int (hop_count p) in
  let denom = nd.capacity -. nd.cross_rho -. (h *. gamma) in
  if denom <= 0. then Float.infinity else sigma /. denom

(* Smallest K in 0..H satisfying Eq. (40):
   sum_{h > K} (C -. rho_c -. h gamma) /. (C -. (h-1) gamma) < 1.
   One O(H) backward pass materializes every suffix sum: the recursion
   [suffix_sum k = term k +. suffix_sum (k+1)] associates to the right,
   and the backward fill below performs the same additions in the same
   order, so each [suffix.(k)] is bit-identical to the recursive
   recomputation (pinned against the test oracle up to H = 10^3). *)
let smallest_k ~extra_ok ~h ~c ~rho_c ~gamma =
  let term k =
    (c -. rho_c -. (float_of_int k *. gamma))
    /. (c -. (float_of_int (k - 1) *. gamma))
  in
  (* entry cost, not per-candidate cost: one scratch array sized by the
     hop count, filled by the backward pass below *)
  let suffix = (Array.make (h + 2) 0. [@lint.allow "zero-alloc"]) in
  for k = h downto 1 do
    suffix.(k) <- term k +. suffix.(k + 1)
  done;
  let rec find k =
    if k > h then h
    else if suffix.(k + 1) < 1. && extra_ok k then k
    else find (k + 1)
  in
  find 0
  [@@zero_alloc_check]

let fifo_closed_form p ~gamma ~sigma =
  let nd = require_homogeneous p "E2e.fifo_closed_form" in
  if not (Scheduler.Delta.equal nd.delta (Scheduler.Delta.Fin 0.)) then
    invalid_arg "E2e.fifo_closed_form: not a FIFO path";
  let h = hop_count p in
  let c = nd.capacity and rho_c = nd.cross_rho in
  let k = smallest_k ~extra_ok:(fun _ -> true) ~h ~c ~rho_c ~gamma in
  if k = 0 then begin
    (* At K = 0 the paper sets X = 0 (Eq. 41); each node's constraint then
       reads (C - (h-1) gamma) theta_h >= sigma. *)
    let acc = ref 0. in
    for j = 1 to h do
      acc := !acc +. (sigma /. (c -. (float_of_int (j - 1) *. gamma)))
    done;
    !acc
  end
  else begin
    let denom = c -. rho_c -. (float_of_int k *. gamma) in
    if denom <= 0. then Float.infinity
    else begin
      let x = sigma /. denom in
      let extra = ref 0. in
      for j = k + 1 to h do
        extra :=
          !extra
          +. (float_of_int (j - k) *. gamma /. (c -. (float_of_int (j - 1) *. gamma)))
      done;
      x *. (1. +. !extra)
    end
  end

let k_procedure p ~gamma ~sigma =
  let nd = require_homogeneous p "E2e.k_procedure" in
  let h = hop_count p in
  let c = nd.capacity and rho_c = nd.cross_rho in
  match nd.delta with
  | Scheduler.Delta.Pos_inf -> bmux_closed_form p ~gamma ~sigma
  | Scheduler.Delta.Neg_inf ->
    (* no cross precedence: theta = 0, X = sigma / (C -. (H-1) gamma) *)
    let denom = c -. (float_of_int (h - 1) *. gamma) in
    if denom <= 0. then Float.infinity else sigma /. denom
  | Scheduler.Delta.Fin d when d >= 0. ->
    let x_of k =
      if k = 0 then 0. else sigma /. (c -. rho_c -. (float_of_int k *. gamma))
    in
    let extra_ok k =
      let x = x_of k in
      let ok = ref true in
      for j = k to h - 1 do
        (* nodes with 1-indexed position j+1 > K must have theta > delta *)
        if theta_of_x p ~gamma ~sigma ~x j <= d then ok := false
      done;
      !ok
    in
    let k = smallest_k ~extra_ok ~h ~c ~rho_c ~gamma in
    let x = x_of k in
    if !Telemetry.on then Telemetry.Counter.incr c_objective_evals;
    objective p ~gamma ~sigma x
  | Scheduler.Delta.Fin d ->
    (* d < 0, Eq. (42) *)
    let x_of k =
      if k = 0 then -.d
      else
        Float.max
          (sigma /. (c -. (float_of_int (k - 1) *. gamma)))
          ((sigma +. ((rho_c +. gamma) *. d)) /. (c -. rho_c -. (float_of_int k *. gamma)))
    in
    let k = smallest_k ~extra_ok:(fun _ -> true) ~h ~c ~rho_c ~gamma in
    let x = x_of k in
    if !Telemetry.on then Telemetry.Counter.incr c_objective_evals;
    objective p ~gamma ~sigma x

(* --------------------------------------------------------------- *)
(* Closed-form dispatch ahead of candidate enumeration               *)

let delay_given_fast p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "E2e.delay_given_fast: negative sigma";
  if is_homogeneous p then k_procedure p ~gamma ~sigma
  else delay_given p ~gamma ~sigma

let delay_bound_fast ?(gamma_points = 40) ~epsilon p =
  if not (is_homogeneous p) then delay_bound ~gamma_points ~epsilon p
  else
    with_gamma_range ~who:"E2e.delay_bound_fast" ~epsilon (gamma_max p) @@ fun ~lo ~hi ->
    Telemetry.span "e2e.gamma_search_fast"
      ~attrs:[ ("h", Telemetry.Int (hop_count p)); ("points", Telemetry.Int gamma_points) ]
    @@ fun () ->
    (* [Kernel.sigma_for] only reads immutable kernel state, so one
       kernel serves the parallel grid and the golden phase alike. *)
    let kern = Kernel.make p in
    let f gamma =
      if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
      let sigma = Kernel.sigma_for kern ~gamma ~epsilon in
      k_procedure p ~gamma ~sigma
    in
    let h = hop_count p in
    (* the K-procedure has no per-point compile to amortize, so the grid
       stays a per-point fan-out *)
    gamma_search ~golden_steps:40 ~points:gamma_points
      ~grid:(Parallel.Grid.values ~work:((8 * h) + 50) f)
      ~golden:f ~lo ~hi

(* The serving hot path: gamma search over a caller-retained kernel.  The
   kernel's scratch state is mutable, so everything stays on the calling
   domain — no [Parallel.Grid] fan-out, no [Kernel.make].  Soundness does
   not depend on finding the optimum: every probed gamma yields a valid
   Eq.-38 bound, so a coarse grid only costs tightness. *)
let delay_bound_cached ?(gamma_points = 12) ~kernel ~epsilon p =
  if gamma_points < 2 then invalid_arg "E2e.delay_bound_cached: gamma_points < 2";
  with_gamma_range ~who:"E2e.delay_bound_cached" ~epsilon (gamma_max p) @@ fun ~lo ~hi ->
  let f gamma =
    if !Telemetry.on then Telemetry.Counter.incr c_gamma_evals;
    Kernel.delay_at_gamma kernel ~gamma ~epsilon
  in
  gamma_search ~golden_steps:20 ~points:gamma_points ~grid:(Array.map f) ~golden:f ~lo ~hi

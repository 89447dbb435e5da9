(* Section IV: stochastic end-to-end delay bounds for ∆-schedulers. *)

module Exp = Envelope.Exponential
module Delta = Scheduler.Delta

let c_objective_evals = Telemetry.Counter.make "e2e.eq38.objective_evals"
let c_gamma_evals = Telemetry.Counter.make "e2e.gamma.evals"

type cross_class = { rho : float; m : float; delta : Delta.t }
type node = { capacity : float; cross : cross_class array }

let fin_d k = match k.delta with Delta.Fin d -> d | Delta.Neg_inf | Delta.Pos_inf -> 0.

(* A class is active when it may precede the through flow: not [Neg_inf]. *)
let is_active k = match k.delta with Delta.Neg_inf -> false | Delta.Fin _ | Delta.Pos_inf -> true

(* How Eq. 38 reads a node: no active class (strict priority for the
   through flow), exactly one (the paper's forms), or several, split
   as theta_h(X) reads them — ∆ = +∞ (node order), ∆ >= 0 ascending
   (the order they saturate as theta grows), ∆ < 0 descending (the
   order they start to count as X grows).  Paths cache it per node. *)
type view =
  | Sp
  | One of cross_class
  | Several of (cross_class list * cross_class list * cross_class list)

let view nd =
  match nd.cross with
  | [| k |] -> if is_active k then One k else Sp
  | _ ->
    let split k (pos, nn, neg) =
      match k.delta with
      | Delta.Fin d when d >= 0. -> (pos, k :: nn, neg)
      | Delta.Fin _ -> (pos, nn, k :: neg)
      | Delta.Pos_inf | Delta.Neg_inf -> (k :: pos, nn, neg)
    in
    match List.fold_right split (List.filter is_active (Array.to_list nd.cross)) ([], [], []) with
    | [], [], [] -> Sp
    | [ k ], [], [] | [], [ k ], [] | [], [], [ k ] -> One k
    | pos, nn, neg ->
      let up a b = Float.compare (fin_d a) (fin_d b) in
      Several (pos, List.stable_sort up nn, List.stable_sort (fun a b -> up b a) neg)

type path = { nodes : node array; through : Envelope.Ebb.t; views : view array }

(* Every path is built from [checked] nodes: [v] is the one checked
   constructor, [homogeneous_classes] checks its one node.  The arrays
   are copied, so a validated path shares none with its caller. *)
let checked nd =
  if not (nd.capacity > 0. && nd.capacity < Float.infinity) then
    invalid_arg "E2e.v: capacity must be finite and positive";
  if not (Array.for_all (fun k -> k.rho >= 0. && k.m >= 0.) nd.cross) then
    invalid_arg "E2e.v: class rate and prefactor must be non-negative";
  { nd with cross = Array.copy nd.cross }

let v ~nodes ~through =
  if Array.length nodes = 0 then invalid_arg "E2e.v: empty path";
  let nodes = Array.map checked nodes in
  { nodes; through; views = Array.map view nodes }

let homogeneous_classes ~h ~capacity ~classes ~through =
  if h <= 0 then invalid_arg "E2e.homogeneous_classes: non-positive path length";
  let nd = checked { capacity; cross = Array.of_list classes } in
  { nodes = Array.make h nd; through; views = Array.make h (view nd) }

let homogeneous ~h ~capacity ~cross ~delta ~through =
  if Float.abs (cross.Envelope.Ebb.alpha -. through.Envelope.Ebb.alpha)
     > 1e-12 *. through.Envelope.Ebb.alpha
  then invalid_arg "E2e.homogeneous: through and cross must share the EBB decay";
  homogeneous_classes ~h ~capacity ~through
    ~classes:[ { rho = cross.Envelope.Ebb.rho; m = cross.Envelope.Ebb.m; delta } ]

let hop_count p = Array.length p.nodes

let gamma_max p =
  let rho = p.through.Envelope.Ebb.rho in
  let h = float_of_int (hop_count p) in
  Array.fold_left
    (fun acc nd ->
      let free =
        Array.fold_left
          (fun c k -> if is_active k then c -. k.rho else c)
          nd.capacity nd.cross
      in
      Float.min acc ((free -. rho) /. (h +. 1.)))
    Float.infinity p.nodes

(* --------------------------------------------------------------- *)
(* Bounding function (Eq. 31 / 34, generalized to per-node constants) *)

let total_bound p ~gamma =
  if gamma <= 0. then invalid_arg "E2e.total_bound: non-positive gamma";
  let alpha = p.through.Envelope.Ebb.alpha in
  (* Statistical sample-path envelope of the through traffic (union bound). *)
  let eps_g = Exp.geometric_sum (Envelope.Ebb.bounding p.through) ~gamma in
  (* Per-node service-curve bounds (Eq. 29), each the optimal combination
     of its classes' bounds (Theorem 1); in the network convolution every
     node except the last stochastic one incurs a second union bound over
     time (the inner sum of Eq. 31). *)
  let stoch =
    List.filter_map
      (function Sp -> None | One k -> Some [ k ] | Several (pos, nn, neg) -> Some (pos @ nn @ neg))
      (Array.to_list p.views)
  in
  let n = List.length stoch in
  let node_terms =
    List.mapi
      (fun i ks ->
        let eps_h =
          Exp.combine (List.map (fun k -> Exp.geometric_sum (Exp.v ~m:k.m ~a:alpha) ~gamma) ks)
        in
        if i < n - 1 then Exp.geometric_sum eps_h ~gamma else eps_h)
      stoch
  in
  Exp.combine (eps_g :: node_terms)

let sigma_for p ~gamma ~epsilon = Exp.invert (total_bound p ~gamma) ~epsilon

(* --------------------------------------------------------------- *)
(* The optimization problem of Eq. (38)                              *)

(* Smallest feasible theta for the (0-indexed) node [h], given X = x:
   f(theta) = (C -. h*gamma) (x +. theta)
              -. sum_k (rho_k +. gamma) (x +. min(delta_k, theta))_+ >= sigma.
   With several classes f is convex and piecewise linear in theta: the
   ∆ < 0 classes do not depend on theta and raise sigma to s; the slope
   on the j-th segment between the sorted ∆ >= 0 is m_j (m_P = c_h minus
   the ∆ = +∞ classes, each step down also minus the class saturating
   there); the first segment holding a root of f = s holds the smallest
   one, (s + b_j) / m_j - x with b_j the saturated classes' terms. *)
let slopes ~c_h ~gamma pos nn =
  let sub m k = m -. k.rho -. gamma in
  let top = List.fold_left sub c_h pos in
  List.fold_right (fun k (m, ms) -> let m = sub m k in (m, m :: ms)) nn (top, [ top ])

let theta_classes ~c_h ~gamma ~sigma ~x (pos, nn, neg) =
  let m0, ms = slopes ~c_h ~gamma pos nn in
  let s =
    sigma +. List.fold_left (fun acc k -> acc +. ((k.rho +. gamma) *. Float.max 0. (x +. fin_d k))) 0. neg
  in
  let rec scan lo b ms nn =
    match (ms, nn) with
    | m :: ms, k :: nn ->
      let th = ((s +. b) /. m) -. x in
      if m > 0. && th <= fin_d k then Float.max th lo
      else scan (fin_d k) (b +. ((k.rho +. gamma) *. (x +. fin_d k))) ms nn
    | m :: _, [] -> if m > 0. then Float.max (((s +. b) /. m) -. x) lo else Float.infinity
    | [], _ -> Float.infinity
  in
  if m0 *. x >= s then 0. else scan 0. 0. ms nn
let theta_of_x p ~gamma ~sigma ~x h =
  let c_h = p.nodes.(h).capacity -. (float_of_int h *. gamma) in
  if c_h <= 0. then Float.infinity
  else
    match p.views.(h) with
    | Sp ->
      (* cross traffic never precedes the through flow *)
      Float.max 0. ((sigma /. c_h) -. x)
    | One k -> (
      let margin = c_h -. k.rho -. gamma in
      match k.delta with
      | Delta.Fin d when d >= 0. ->
        if margin *. x >= sigma then 0.
        else if margin > 0. && (sigma /. margin) -. x <= d then (sigma /. margin) -. x
        else
          (* beyond theta = d the constraint grows at the full rate c_h *)
          let theta2 = ((sigma +. ((k.rho +. gamma) *. (x +. d))) /. c_h) -. x in
          Float.max theta2 d
      | Delta.Fin d ->
        (* d < 0: min(delta, theta) = d for all theta >= 0 *)
        let cross_part = (k.rho +. gamma) *. Float.max 0. (x +. d) in
        Float.max 0. (((sigma +. cross_part) /. c_h) -. x)
      | Delta.Pos_inf | Delta.Neg_inf ->
        if margin <= 0. then Float.infinity else Float.max 0. ((sigma /. margin) -. x))
    | Several classes -> theta_classes ~c_h ~gamma ~sigma ~x classes

(* No per-call telemetry here: at ~10^7 calls per figure sweep even a
   guarded counter increment is measurable.  Callers that iterate over
   candidate sets account for their evaluations in one [Counter.add]. *)
let objective p ~gamma ~sigma x =
  let acc = ref x in
  for h = 0 to hop_count p - 1 do
    acc := !acc +. theta_of_x p ~gamma ~sigma ~x h
  done;
  !acc

(* Kink abscissae of X -> theta_h(X), per node.  With several classes
   (P of ∆ >= 0, N of ∆ < 0, r = rho + gamma) theta_h kinks where it
   reaches 0 or crosses a ∆_j >= 0 — the roots of f(0; X) = sigma and
   f(∆_j; X) = sigma — and where the i-th ∆ < 0 class starts to count
   (X = -∆_i).  Between those starts both are linear in X with slope
   D_i = m_0 - r_1 - ... - r_i, so the roots are
   (sigma + Σ_{l<=i} r_l ∆_l + e_j) / D_i, with e_0 = 0 and
   e_j = Σ_{k<j} r_k ∆_k - m_{j-1} ∆_j. *)
let x_candidates p ~gamma ~sigma =
  let cands = ref [ 0. ] in
  let push x = if Float.is_finite x && x >= 0. then cands := x :: !cands in
  Array.iteri
    (fun h nd ->
      let c_h = nd.capacity -. (float_of_int h *. gamma) in
      if c_h > 0. then
        match p.views.(h) with
        | Sp -> push (sigma /. c_h)
        | One k -> (
          let margin = c_h -. k.rho -. gamma in
          match k.delta with
          | Delta.Fin d when d >= 0. ->
            if margin > 0. then begin
              push (sigma /. margin);
              push ((sigma /. margin) -. d)
            end
          | Delta.Fin d ->
            push (-.d);
            push (sigma /. c_h);
            if margin > 0. then push ((sigma +. ((k.rho +. gamma) *. d)) /. margin)
          | Delta.Pos_inf | Delta.Neg_inf -> if margin > 0. then push (sigma /. margin))
        | Several (pos, nn, neg) ->
          let m0, ms = slopes ~c_h ~gamma pos nn in
          let rec es pre ms nn =
            match (ms, nn) with
            | m :: ms, k :: nn ->
              (pre -. (m *. fin_d k)) :: es (pre +. ((k.rho +. gamma) *. fin_d k)) ms nn
            | _ -> []
          in
          let rec ds dn pre = function
            | [] -> [ (dn, pre) ]
            | k :: neg ->
              (dn, pre) :: ds (dn -. k.rho -. gamma) (pre +. ((k.rho +. gamma) *. fin_d k)) neg
          in
          List.iter
            (fun (dn, pre) -> List.iter (fun e -> push ((sigma +. pre +. e) /. dn)) (0. :: es 0. ms nn))
            (ds m0 0. neg);
          List.iter (fun k -> push (-.fin_d k)) neg)
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
   per-node constants (c_h, margin_h, clipped-∆ case tags, and the
   segment rows of several-class nodes) for one (gamma, sigma) and
   writes the candidate abscissae into a reusable scratch buffer sorted
   in place, and [delay] folds the objective over
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
    rho : float array; (* one active class: its rho *)
    dv : float array;  (* one active class: Fin d; 0. otherwise *)
    tag : int array;   (* 0 none | 1 Pos_inf | 2 Fin d >= 0 | 3 Fin d < 0 | 4 several *)
    (* several-class nodes: classes in [view] order at [koff.(i)] (the
       first [npos.(i)] ∆ = +∞, then [nnn.(i)] = P with ∆ >= 0, then
       ∆ < 0), P + 1 segment slopes at [soff.(i)] *)
    koff : int array;
    npos : int array;
    nnn : int array;
    soff : int array;
    krho : float array;
    kd : float array;
    (* sigma_for precompute (decays fix every w): the i-th of the [nst]
       stochastic nodes (one or more active classes) has its k class
       prefactors at [st_m.(st_off.(i))]; with k >= 2 its combine sums
       1/alpha k times from 0. into w_k and has decay 1/w_k *)
    alpha : float;
    m_thr : float;
    inv_a : float;     (* 1. /. alpha *)
    log_a : float;     (* log alpha *)
    w : float;         (* the outer combine's w: sum of 1 / decay, through bound first *)
    aw : float;        (* alpha *. w *)
    nst : int;
    st_off : int array;
    st_m : float array;
    (* per-(gamma, sigma) compiled state, overwritten by [set] *)
    mutable sigma : float;
    c : float array;    (* c_h = capacity -. h *. gamma *)
    mg : float array;   (* margin = c_h -. rho -. gamma (one class) *)
    r : float array;    (* rho +. gamma (one class) *)
    s_c : float array;  (* sigma /. c_h *)
    s_m : float array;  (* sigma /. margin *)
    case : int array;   (* see [set] *)
    kr : float array;   (* class rho +. gamma (the finite-∆ classes) *)
    slope : float array; (* segment slopes m_j *)
    trow : float array; (* several-class nodes' theta rows (see [classes_row]) *)
    cand : float array; (* sorted unique candidate abscissae, first [ncand] *)
    mutable ncand : int;
    acc : float array;  (* per-candidate objective accumulators of [delay] *)
  }

  let make p =
    let h = hop_count p in
    let alpha = p.through.Envelope.Ebb.alpha in
    let inv_a = 1. /. alpha and log_a = log alpha in
    let cap = Array.map (fun nd -> nd.capacity) p.nodes in
    let rho = Array.make h 0. and dv = Array.make h 0. in
    let tag = Array.make h 0 and st_off = Array.make (h + 1) 0 in
    let st_m = Array.make (Array.fold_left (fun n nd -> n + Array.length nd.cross) 0 p.nodes) 0. in
    let has_several = Array.exists (fun nd -> Array.length nd.cross > 1) p.nodes in
    let rows n x = if has_several then Array.make n x else [||] in
    let koff = rows (h + 1) 0 and npos = rows h 0 and nnn = rows h 0 and soff = rows h 0 in
    (* [ncap]: the candidate capacity — X = 0, plus per node the pushes of
       [x_candidates]: 1 for no class, the tag for one, (1 + P)(1 + N) + N
       for P classes of ∆ >= 0 and N of ∆ < 0 *)
    let several = ref [] and ncap = ref 1 and nseg = ref 0 and nk = ref 0 and nst = ref 0 in
    let w = ref inv_a (* 0. +. 1/alpha: the through bound's term *) in
    for i = 0 to h - 1 do
      (match p.views.(i) with
      | Sp -> incr ncap
      | One k ->
        rho.(i) <- k.rho;
        dv.(i) <- fin_d k;
        tag.(i) <- (match k.delta with Delta.Fin d when d >= 0. -> 2 | Delta.Fin _ -> 3 | _ -> 1);
        ncap := !ncap + tag.(i);
        st_m.(st_off.(!nst)) <- k.m;
        w := !w +. inv_a;
        incr nst;
        st_off.(!nst) <- st_off.(!nst - 1) + 1
      | Several (pos, nn, neg) ->
        let ks = pos @ nn @ neg in
        tag.(i) <- 4;
        npos.(i) <- List.length pos;
        nnn.(i) <- List.length nn;
        soff.(i) <- !nseg;
        nseg := !nseg + nnn.(i) + 1;
        ncap := !ncap + ((1 + nnn.(i)) * (1 + List.length neg)) + List.length neg;
        nk := !nk + npos.(i) + nnn.(i) + List.length neg;
        several := List.rev_append ks !several;
        (* the class bounds, in [total_bound]'s order: Exp.combine of k >= 2
           bounds of decay alpha sums 1/alpha k times from 0. into w_k and
           has decay 1/w_k *)
        let first = st_off.(!nst) and wk = ref 0. in
        List.iteri (fun j (k : cross_class) -> st_m.(first + j) <- k.m; wk := !wk +. inv_a) ks;
        w := !w +. (1. /. (1. /. !wk));
        incr nst;
        st_off.(!nst) <- first + List.length ks);
      if Array.length koff > 0 then koff.(i + 1) <- !nk
    done;
    let several = Array.of_list (List.rev !several) in
    {
      h; cap; rho; dv; tag; koff; npos; nnn; soff;
      krho = Array.map (fun (k : cross_class) -> k.rho) several;
      kd = Array.map fin_d several;
      alpha; m_thr = p.through.Envelope.Ebb.m; inv_a; log_a; w = !w; aw = alpha *. !w;
      nst = !nst; st_off; st_m;
      sigma = Float.nan;
      c = Array.make h 0.; mg = Array.make h 0.; r = Array.make h 0.;
      s_c = Array.make h 0.; s_m = Array.make h 0.; case = Array.make h 0;
      kr = Array.make !nk 0.; slope = Array.make !nseg 0.;
      trow = rows (h * !ncap) 0.;
      cand = Array.make !ncap 0.; ncand = 0; acc = Array.make !ncap 0.;
    }

  (* [sigma_for] with the shared-decay algebra folded out: the reference
     builds one Exponential.t record per class and node through
     [geometric_sum] and [combine], but every class bound carries the
     same [a = alpha], so [q] is computed once per call, [log alpha]
     and the combine's [w] once in [make], and only the per-node
     [log m_i] remain (cached against the previous
     node — homogeneous one-class paths pay a single log; a node with
     several classes also pays their combine).  Each remaining float
     op replicates the reference expression exactly; reads only
     immutable fields, so one kernel may serve [sigma_for] from several
     domains concurrently. *)
  let sigma_for t ~gamma ~epsilon =
    if gamma <= 0. then invalid_arg "E2e.total_bound: non-positive gamma";
    if t.m_thr < 0. || t.m_thr <> t.m_thr then
      invalid_arg "Exponential.v: negative prefactor";
    if t.alpha <= 0. || t.alpha <> t.alpha then
      invalid_arg "Exponential.v: non-positive rate";
    let q = exp (-.t.alpha *. gamma) in
    let omq = 1. -. q in
    let m_g = t.m_thr /. omq in
    let n = t.nst in
    if n = 0 then begin
      (* combine [eps_g] = eps_g *)
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_g /. epsilon) /. t.alpha)
    end
    else begin
      let w = t.w in
      let acc = ref 0. in
      acc := !acc +. ((log m_g +. t.log_a) /. t.aw);
      let last_m = ref Float.nan and last_log = ref 0. in
      (* on a path of one-class nodes, stochastic node i's prefactor is
         [st_m.(i)]: skip the class ranges *)
      let one = Array.length t.koff = 0 in
      for i = 0 to n - 1 do
        let lo = if one then i else t.st_off.(i) in
        let hi = if one then i + 1 else t.st_off.(i + 1) in
        let wk = ref 0. in
        if hi - lo > 1 then for _ = lo to hi - 1 do wk := !wk +. t.inv_a done;
        let mi =
          if hi - lo = 1 then begin
            let cm = t.st_m.(lo) in
            if cm < 0. || cm <> cm then
              invalid_arg "Exponential.v: negative prefactor";
            if i < n - 1 then cm /. omq /. omq else cm /. omq
          end
          else begin
            (* combine of the class bounds, then the node's own
               geometric sum at its combined decay *)
            let aw = t.alpha *. !wk in
            let s = ref 0. in
            for c = lo to hi - 1 do
              let cm = t.st_m.(c) in
              if cm < 0. || cm <> cm then
                invalid_arg "Exponential.v: negative prefactor";
              s := !s +. ((log (cm /. omq) +. t.log_a) /. aw)
            done;
            let mh = exp (log !wk +. !s) in
            if i < n - 1 then mh /. (1. -. exp (-.(1. /. !wk) *. gamma)) else mh
          end
        in
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
        acc :=
          !acc
          +.
          if hi - lo = 1 then (lm +. t.log_a) /. t.aw
          else (lm +. log (1. /. !wk)) /. ((1. /. !wk) *. w)
      done;
      let log_m = log w +. !acc in
      let m_c = exp log_m in
      let a_c = 1. /. w in
      if epsilon <= 0. then invalid_arg "Exponential.invert: non-positive epsilon";
      fmax0 (log (m_c /. epsilon) /. a_c)
    end
  [@@zero_alloc_check]

  (* The [x_candidates] push: [x -. x = 0.] is [Float.is_finite] inlined
     (NaN and the infinities fail it bit-exactly).  Module-level and
     inlined so that [set] allocates nothing: a closure local to [set]
     is allocated per node and boxes every float passed to it. *)
  let[@inline] push t x =
    if ((x -. x = 0.) [@lint.allow "float-equal"]) && x >= 0. then begin
      t.cand.(t.ncand) <- x;
      t.ncand <- t.ncand + 1
    end
  [@@zero_alloc_check]

  (* [theta_classes] over node [i]'s compiled rows (case 6): the ∆ < 0
     sum, the zero test, then the segment scan, operation for operation. *)
  let[@inline] theta_classes t i x =
    let fnn = t.koff.(i) + t.npos.(i) and pn = t.nnn.(i) and b = t.soff.(i) in
    let q = ref 0. in
    for c = fnn + pn to t.koff.(i + 1) - 1 do
      q := !q +. (t.kr.(c) *. fmax0 (x +. t.kd.(c)))
    done;
    let s = t.sigma +. !q in
    if t.slope.(b) *. x >= s then 0.
    else begin
      (* past every segment whose root lies beyond its upper end *)
      let j = ref 0 and lo = ref 0. and acc = ref 0. in
      while
        !j < pn
        && not
             (t.slope.(b + !j) > 0.
             && ((s +. !acc) /. t.slope.(b + !j)) -. x <= t.kd.(fnn + !j))
      do
        acc := !acc +. (t.kr.(fnn + !j) *. (x +. t.kd.(fnn + !j)));
        lo := t.kd.(fnn + !j);
        incr j
      done;
      let m = t.slope.(b + !j) in
      if m > 0. then fmax_nz (((s +. !acc) /. m) -. x) !lo else Float.infinity
    end
  [@@zero_alloc_check]

  (* Several-class node [i]'s thetas at the candidates, into its row of
     [trow], compiled by [set] so that [delay]'s node loop only adds the
     row: inlined there, the scan slowed the one-class arms ~20% (FIFO,
     H = 10), and called there it spilled their row pointers (BMUX,
     H = 30). *)
  let[@inline never] classes_row t i =
    let b = i * Array.length t.cand in
    for j = 0 to t.ncand - 1 do
      t.trow.(b + j) <- theta_classes t i t.cand.(j)
    done
  [@@zero_alloc_check]

  (* case tags compiled by [set]:
     0 — theta = +inf for every x (c_h <= 0, or BMUX with margin <= 0)
     1 — strict priority (no active class)
     2 — BMUX, margin > 0
     3 — Fin d >= 0, margin > 0
     4 — Fin d >= 0, margin <= 0
     5 — Fin d < 0
     6 — two or more active classes *)
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
      if c_h <= 0. then t.case.(i) <- 0
      else
        match t.tag.(i) with
        | 0 ->
          t.case.(i) <- 1;
          push t t.s_c.(i)
        | 1 ->
          if margin > 0. then begin
            t.case.(i) <- 2;
            push t t.s_m.(i)
          end
          else t.case.(i) <- 0
        | 2 ->
          if margin > 0. then begin
            t.case.(i) <- 3;
            push t t.s_m.(i);
            push t (t.s_m.(i) -. t.dv.(i))
          end
          else t.case.(i) <- 4
        | 3 ->
          t.case.(i) <- 5;
          push t (-.t.dv.(i));
          push t t.s_c.(i);
          if margin > 0. then push t ((sigma +. (t.r.(i) *. t.dv.(i))) /. margin)
        | _ ->
          (* [x_candidates]' several-class rows: the slopes m_P .. m_0
             from c_h down, then per ∆ < 0 stretch i (running D_i and
             offset) the roots over the theta offsets e_j *)
          t.case.(i) <- 6;
          let lo = t.koff.(i) and hi = t.koff.(i + 1) and pn = t.nnn.(i) in
          let fnn = lo + t.npos.(i) and b = t.soff.(i) in
          let top = ref c_h in
          for c = lo to fnn - 1 do
            top := !top -. t.krho.(c) -. gamma
          done;
          t.slope.(b + pn) <- !top;
          for j = pn downto 1 do
            t.kr.(fnn + j - 1) <- t.krho.(fnn + j - 1) +. gamma;
            t.slope.(b + j - 1) <- t.slope.(b + j) -. t.krho.(fnn + j - 1) -. gamma
          done;
          let fneg = fnn + pn in
          let dn = ref t.slope.(b) and pre = ref 0. in
          for l = 0 to hi - fneg do
            if l > 0 then begin
              let c = fneg + l - 1 in
              t.kr.(c) <- t.krho.(c) +. gamma;
              dn := !dn -. t.krho.(c) -. gamma;
              pre := !pre +. (t.kr.(c) *. t.kd.(c))
            end;
            let e = ref 0. and ej = ref 0. in
            for j = 0 to pn do
              if j > 0 then begin
                let d = t.kd.(fnn + j - 1) in
                e := !ej -. (t.slope.(b + j - 1) *. d);
                ej := !ej +. (t.kr.(fnn + j - 1) *. d)
              end;
              push t ((sigma +. !pre +. !e) /. !dn)
            done
          done;
          for c = fneg to hi - 1 do
            push t (-.t.kd.(c))
          done
    done;
    (* in-place insertion sort + adjacent dedup: the candidate sets are
       small (at most the capacity sized in [make]), and the result
       equals List.sort_uniq Float.compare on the same multiset *)
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
    end;
    if Array.length t.trow > 0 then
      for i = 0 to t.h - 1 do
        if t.case.(i) = 6 then classes_row t i
      done
  [@@zero_alloc_check]

  (* The objective fold, node-major: each accumulator starts at its
     candidate and receives the thetas in node order — per case tag the
     [theta_of_x] expressions with the invariant subterms precomputed,
     operation for operation — so
     every partial sum, and hence the final [Float.min] fold in candidate
     order, equals [objective] at that candidate bit for bit.  Sweeping
     node-major dispatches each node's case tag once per point instead of
     once per (candidate, node) pair and keeps that node's constants in
     registers across the whole candidate row. *)
  let delay t =
    let n = t.ncand in
    let cand = t.cand and acc = t.acc in
    (* [j < n = ncand <= length cand = length acc] throughout ([make]
       sizes both from the candidate capacity, and [set] pushes at most
       that many), and [trow] holds [h] rows of that length — the unsafe
       accesses below drop the per-pair bounds checks only. *)
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
      | 5 ->
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
      | _ ->
        let row = t.trow and b = i * Array.length cand in
        for j = 0 to n - 1 do
          Array.unsafe_set acc j (Array.unsafe_get acc j +. Array.unsafe_get row (b + j))
        done
    done;
    if !Telemetry.on then Telemetry.Counter.add c_objective_evals n;
    let best = ref Float.infinity in
    for j = 0 to n - 1 do
      best := fmin1 !best (Array.unsafe_get acc j)
    done;
    !best
  [@@zero_alloc_check]

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

(* The witness behind [delay_given], from the list forms (no search
   needs it): the first strict minimum over X = 0 then the candidates. *)
let optimal_thetas p ~gamma ~sigma =
  let cands = x_candidates p ~gamma ~sigma in
  if !Telemetry.on then Telemetry.Counter.add c_objective_evals (List.length cands + 1);
  let x, _ =
    List.fold_left
      (fun (bx, bv) x ->
        let v = objective p ~gamma ~sigma x in
        if v < bv then (x, v) else (bx, bv))
      (0., objective p ~gamma ~sigma 0.)
      cands
  in
  (Array.init (hop_count p) (fun h -> theta_of_x p ~gamma ~sigma ~x h), x)

(* Estimated cost of one [delay_at_gamma] in abstract work units: the
   candidate capacity times the per-candidate fold (a step per node and
   per class of a several-class node), plus [sigma_for]'s
   transcendentals. *)
let kernel_cost (k : Kernel.t) =
  (Array.length k.Kernel.cand * (k.Kernel.h + Array.length k.Kernel.krho)) + (8 * k.Kernel.h) + 50

let eval_cost p = kernel_cost (Kernel.make p)

(* --------------------------------------------------------------- *)
(* The network service curve as an explicit min-plus object          *)

module Curve = Minplus.Curve

(* S~^h_{(h-1)gamma}(t') = (C -. h' gamma)(t' +. theta_h)
                           -. sum_k (rho_k +. gamma) [t' +. ∆_k(theta_h)]_+
   for t' >= 0, as a curve (0-indexed h). *)
let tilde_curve p ~gamma ~theta h =
  let nd = p.nodes.(h) in
  let c_h = nd.capacity -. (float_of_int h *. gamma) in
  let base = Curve.v [ (0., c_h *. theta, c_h) ] in
  let class_curve k =
    Option.map
      (fun clipped ->
        let r = k.rho +. gamma in
        if clipped >= 0. then Curve.v [ (0., r *. clipped, r) ]
        else Curve.v [ (0., 0., 0.); (-.clipped, 0., r) ])
      (Delta.clip_fin k.delta theta)
  in
  match List.filter_map class_curve (Array.to_list nd.cross) with
  | [] -> base
  | c :: cs -> Curve.sub_clip base (List.fold_left Curve.add c cs)

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

let delay_grid ~epsilon ~kernel p gammas =
  if !Telemetry.on then Telemetry.Counter.add c_gamma_evals (Array.length gammas);
  Parallel.Grid.values_blocked ~work:(kernel_cost kernel) ~block:grid_block
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
  gamma_search ~golden_steps:40 ~points:gamma_points ~grid:(delay_grid ~epsilon ~kernel:k p)
    ~golden ~lo ~hi

(* --------------------------------------------------------------- *)
(* Closed forms and the paper's explicit K-procedure                 *)

(* One cross class per node, every node sharing node 0's capacity,
   class rate and ∆ (the inputs Eq. 38 reads). *)
let is_homogeneous p =
  let nd0 = p.nodes.(0) in
  Array.for_all
    (fun nd ->
      match (nd.cross, nd0.cross) with
      | [| k |], [| k0 |] ->
        Float.equal nd.capacity nd0.capacity && Float.equal k.rho k0.rho
        && Delta.equal k.delta k0.delta
      | _ -> false)
    p.nodes

(* Node 0's capacity and its one class, for the closed forms. *)
let require_homogeneous p name =
  if not (is_homogeneous p) then invalid_arg (name ^ ": path is not homogeneous");
  (p.nodes.(0).capacity, p.nodes.(0).cross.(0))

let bmux_closed_form p ~gamma ~sigma =
  let capacity, k = require_homogeneous p "E2e.bmux_closed_form" in
  if not (Delta.equal k.delta Delta.Pos_inf) then
    invalid_arg "E2e.bmux_closed_form: not a BMUX path";
  let h = float_of_int (hop_count p) in
  let denom = capacity -. k.rho -. (h *. gamma) in
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
  let c, k = require_homogeneous p "E2e.fifo_closed_form" in
  if not (Delta.equal k.delta (Delta.Fin 0.)) then
    invalid_arg "E2e.fifo_closed_form: not a FIFO path";
  let h = hop_count p in
  let rho_c = k.rho in
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
  let c, k = require_homogeneous p "E2e.k_procedure" in
  let h = hop_count p in
  let rho_c = k.rho in
  match k.delta with
  | Delta.Pos_inf -> bmux_closed_form p ~gamma ~sigma
  | Delta.Neg_inf ->
    (* no cross precedence: theta = 0, X = sigma / (C -. (H-1) gamma) *)
    let denom = c -. (float_of_int (h - 1) *. gamma) in
    if denom <= 0. then Float.infinity else sigma /. denom
  | Delta.Fin d when d >= 0. ->
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
  | Delta.Fin d ->
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

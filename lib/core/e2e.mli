(** Probabilistic end-to-end delay bounds for ∆-schedulers over a multi-node
    path — Section IV of the paper.

    The through flow is EBB [(m, rho, alpha)]; node [h] carries cross
    classes [k], EBB [(m_k, rho_k, alpha)] with precedence constants
    [∆_k] (a common decay [alpha], as in the paper where both sides are
    characterized by the same effective bandwidth parameter).  Per-node
    sample-path envelopes use a slack rate [gamma]; composing the [H]
    per-node service curves (Eq. 28) into a network service curve (Eq.
    30) costs a rate degradation of [gamma] per node and yields the
    closed-form bounding function of Eq. (34).  The delay bound is the
    optimization problem of Eq. (38),

    minimize [X +. sum_h theta_h] subject to
    [(C -. (h-1) gamma) (X +. theta_h)
       -. sum_k (rho_k +. gamma) (X +. ∆_k(theta_h))_+ >= sigma],

    solved exactly here (the objective is piecewise linear in [X] once each
    [theta_h] is taken as the smallest feasible solution, so enumerating
    the kinks of [X -> X +. sum_h theta_h X] is exact), alongside the
    paper's explicit near-optimal K-procedure (Eq. 40–42) and the closed
    forms for blind multiplexing (Eq. 43) and FIFO (Eq. 44). *)

type cross_class = {
  rho : float;  (** EBB rate of the class aggregate *)
  m : float;  (** EBB prefactor *)
  delta : Scheduler.Delta.t;  (** [∆_{0,k}]; [Neg_inf]: never precedes the through flow *)
}

type node = {
  capacity : float;
  cross : cross_class array;  (** empty, or all [Neg_inf]: strict priority for the through flow *)
}

type view
(** A node's active classes as Eq. 38 reads them, cached by the constructors. *)

type path = private {
  nodes : node array;
  through : Envelope.Ebb.t;
  views : view array;
}

val v : nodes:node array -> through:Envelope.Ebb.t -> path
(** The checked constructor every path is built by (copies its arrays).
    @raise Invalid_argument on an empty node array, a non-finite or
    non-positive capacity, or a negative or NaN class [rho] or [m]. *)

val homogeneous :
  h:int ->
  capacity:float ->
  cross:Envelope.Ebb.t ->
  delta:Scheduler.Delta.t ->
  through:Envelope.Ebb.t ->
  path
(** @raise Invalid_argument if [h <= 0], the EBB decays differ, or {!v}
    rejects the node. *)

val homogeneous_classes :
  h:int -> capacity:float -> classes:cross_class list -> through:Envelope.Ebb.t -> path
(** [h] identical nodes, each carrying every class of [classes] (e.g.
    EDF deadline tiers).  Splitting an aggregate into classes is
    conservative: each class pays its own slack [gamma] and union bound.
    @raise Invalid_argument if [h <= 0] or {!v} rejects the node. *)

val hop_count : path -> int

val gamma_max : path -> float
(** Largest admissible slack rate, [min_h (C_h -. sum_k rho_k^h -. rho)
    /. (H+1)] over the active classes (Eq. 32); non-positive means the
    path is overloaded. *)

val total_bound : path -> gamma:float -> Envelope.Exponential.t
(** The end-to-end violation bounding function: the through envelope bound
    combined with the network service bound of Eq. (31)/(34), each node's
    bound the optimal combination of its class bounds (Theorem 1; decay
    [alpha / k] for [k] classes). *)

val sigma_for : path -> gamma:float -> epsilon:float -> float
(** Invert {!total_bound} at the target violation probability. *)

val theta_of_x : path -> gamma:float -> sigma:float -> x:float -> int -> float
(** [theta_of_x p ~gamma ~sigma ~x h] — smallest feasible [theta_h] for the
    0-indexed node [h] given [X = x]; [infinity] when node [h]'s constraint
    is infeasible at every [theta]. *)

val objective : path -> gamma:float -> sigma:float -> float -> float
(** [objective p ~gamma ~sigma x] — the Eq.-38 objective
    [x +. sum_h theta_of_x h] at [X = x] (list form, no telemetry). *)

val x_candidates : path -> gamma:float -> sigma:float -> float list
(** The kink abscissae of [X -> objective X] (plus [0.]), sorted and
    deduplicated: the objective's minimum over [X >= 0.] is attained at
    one of them; a node with [P] classes of [∆ >= 0] and [N] of
    [∆ < 0] contributes at most [(1 + P)(1 + N) + N]. *)

(** The compiled zero-allocation Eq.-38 solver — the one evaluator
    behind every delay search.

    [make] flattens a path into plain float/int arrays once; [set]
    compiles the per-node constants ([c_h], [margin_h], clipped-∆ case
    tags, several-class theta rows) for one [(gamma, sigma)] and writes the
    candidate abscissae into a scratch buffer sorted in place; [delay]
    then folds the objective node-major over a preallocated accumulator row with
    no allocation and no variant matching.  Every float expression
    mirrors {!x_candidates} / {!objective} / {!sigma_for} operation for
    operation, so results are {b bit-identical} to the list forms
    (pinned by QCheck against the oracle in test/oracle).  [set],
    [delay], [sigma_for], [delay_at_gamma] and [run_gammas] are
    allocation-free (enforced by the zero_alloc analyzer).

    Concurrency: [set]/[delay] mutate the kernel, so a kernel must be
    driven from one domain at a time; {!Kernel.sigma_for}
    only reads immutable state and may be shared across domains. *)
module Kernel : sig
  type t

  val make : path -> t

  val set : t -> gamma:float -> sigma:float -> unit
  (** Compile the solver state for [(gamma, sigma)], overwriting any
      previous state. *)

  val delay : t -> float
  (** {!delay_given} over the compiled state. *)

  val sigma_for : t -> gamma:float -> epsilon:float -> float
  (** {!sigma_for} with the shared-decay geometric sums folded into one
      exp / a handful of logs; bit-identical to the list form. *)

  val delay_at_gamma : t -> gamma:float -> epsilon:float -> float
  (** [sigma_for] then [set] then [delay], reusing the scratch state. *)

  val run_gammas :
    t -> epsilon:float -> gammas:float array -> out:float array -> unit
  (** One γ row at a fixed [epsilon]: [out.(i)] receives
      [delay_at_gamma gammas.(i)].
      @raise Invalid_argument if [out] is shorter than [gammas]. *)
end

val delay_given : path -> gamma:float -> sigma:float -> float
(** Exact minimum of Eq. (38) over [X >= 0.] (piecewise-linear kink
    enumeration, via a freshly compiled {!Kernel}); [infinity] when
    infeasible. *)

val delay_at_gamma : path -> gamma:float -> epsilon:float -> float

val eval_cost : path -> int
(** Estimated cost of one {!delay_at_gamma} in abstract work units
    (~Eq.-38 node-steps), used as the [?work] hint for parallel grid
    scans over this path. *)

(** {1 The network service curve as an explicit min-plus object}

    [delay_given] solves Eq. (38) without materializing the curve; the
    functions below build the Eq. (30) network service curve explicitly,
    which yields backlog bounds and an independent cross-check of the
    optimizer. *)

val network_service_curve : path -> gamma:float -> thetas:float array -> Minplus.Curve.t
(** [S^net(t; theta) = min_h S~^h_{(h-1)gamma}(t -. T) · I(t > T)] with
    [T = sum thetas] (the convolution already carried out in closed form,
    Section IV).  @raise Invalid_argument on arity mismatch. *)

val delay_via_curve : path -> gamma:float -> sigma:float -> thetas:float array -> float
(** Horizontal deviation of the through envelope (plus [sigma]) against
    {!network_service_curve} — must agree with the Eq.-38 constraint
    machinery at the same [thetas]. *)

val backlog_given : path -> gamma:float -> sigma:float -> float
(** End-to-end backlog bound: vertical deviation of the through envelope
    (plus [sigma]) against the network service curve, minimized over the
    same candidate [X] values as {!delay_given}. *)

val backlog_bound : ?gamma_points:int -> epsilon:float -> path -> float
(** Probabilistic end-to-end backlog bound
    [P (B > backlog_bound) <= epsilon], minimized over a log grid of
    [gamma].  @raise Invalid_argument unless [0 < epsilon < 1]. *)

val optimal_thetas : path -> gamma:float -> sigma:float -> float array * float
(** The minimizing [(thetas, X)] of Eq. (38) — the witness behind
    {!delay_given}. *)

val delay_bound : ?gamma_points:int -> epsilon:float -> path -> float
(** End-to-end delay bound with numerical optimization over [gamma]
    (coarse grid plus golden-section refinement), as prescribed by the
    paper.  [infinity] when the path is overloaded.  The grid is
    evaluated in blocks of 10 points, one compiled {!Kernel} per block,
    on the default pool.
    @raise Invalid_argument unless [0 < epsilon < 1]. *)

val with_gamma_range :
  who:string -> epsilon:float -> float -> (lo:float -> hi:float -> float) -> float
(** [with_gamma_range ~who ~epsilon gmax search] is the shared entry of
    every gamma search, in this module and {!Additive}: it rejects
    [epsilon] outside (0, 1), NaN included, with
    [Invalid_argument (who ^ ": epsilon out of range")], returns
    [infinity] when [gmax <= 0.] (an overloaded path), and otherwise runs
    [search] over [[gmax *. 1e-6, gmax *. 0.999]]. *)

(** {1 Closed forms and the paper's explicit procedure}

    These require a homogeneous path with one cross class per node, and
    are used to cross-validate {!delay_given}. *)

val is_homogeneous : path -> bool
(** Every node has one cross class and shares [capacity], its [rho] and
    [delta] (the inputs Eq. 38 actually reads) with node 0. *)

val smallest_k :
  extra_ok:(int -> bool) -> h:int -> c:float -> rho_c:float -> gamma:float -> int
(** Smallest [K] in [0..H] satisfying Eq. (40) (with the caller's extra
    feasibility predicate), via a single O(H) backward prefix sum whose
    partial sums are bit-identical to the O(H^2) recursion
    [suffix_sum k = term k +. suffix_sum (k + 1)]. *)

val bmux_closed_form : path -> gamma:float -> sigma:float -> float
(** Eq. (43): [sigma /. (C -. rho_c -. H gamma)].
    @raise Invalid_argument unless every node is BMUX ([Pos_inf]). *)

val fifo_closed_form : path -> gamma:float -> sigma:float -> float
(** Eq. (44).  @raise Invalid_argument unless every node is FIFO. *)

val k_procedure : path -> gamma:float -> sigma:float -> float
(** The paper's explicit choice of [K] and [X] (Eq. 40–42) followed by the
    exact [theta_h X]; an upper bound on {!delay_given} that is near-optimal
    in practice.  @raise Invalid_argument unless the path is homogeneous. *)

val delay_given_fast : path -> gamma:float -> sigma:float -> float
(** {!delay_given} with the closed-form dispatch in front: homogeneous
    paths go to {!k_procedure} (O(H) [smallest_k] + closed forms, Eq.
    40–44) before falling back to kernel candidate enumeration.  Always
    a valid upper bound.  For SP ([Neg_inf]), BMUX ([Pos_inf]) and FIFO
    ([Fin 0.]) deltas the K-procedure is exact to ~1e-9 relative (pinned
    by QCheck); for general finite deltas it can exceed the exact
    minimum (the paper's Eq. 40–42 choice of [K] is only near-optimal),
    so this is an opt-in fast path — the bitwise-reproducible sweeps
    keep using {!delay_given}. *)

val delay_bound_fast : ?gamma_points:int -> epsilon:float -> path -> float
(** {!delay_bound} evaluated through {!delay_given_fast}: on homogeneous
    paths the whole gamma search costs O(H) per point instead of O(H^3).
    Falls back to {!delay_bound} on every other path (heterogeneous, or
    with a several-class node).
    @raise Invalid_argument unless [0 < epsilon < 1]. *)

val delay_bound_cached :
  ?gamma_points:int -> kernel:Kernel.t -> epsilon:float -> path -> float
(** The gamma optimization of {!delay_bound} driven entirely through a
    caller-retained compiled kernel: no [Kernel.make], no allocation in
    the inner loop, no domain fan-out (the kernel is mutable, so the
    whole search runs on the calling domain).  [kernel] must have been
    built with [Kernel.make] from this same [path].  The grid is
    followed by 20 golden-section steps (40 in {!delay_bound}); with the
    default 12-point grid the search costs at most 12 + 41
    [delay_at_gamma] evaluations (golden probes that repeat a recent
    gamma are memoized) — the serving hot path for repeat queries
    against a cached shape.  Coarser than the 40-point
    {!delay_bound} grid, so the result can exceed the optimum, but every
    probed [gamma] yields a valid Eq.-38 bound, hence the returned value
    is always a sound (if slightly loose) upper bound.
    @raise Invalid_argument if [gamma_points < 2] or unless
    [0 < epsilon < 1]. *)

(** The paper's experimental setup (Section V): homogeneous paths of
    100 Mbps links fed by aggregates of identical on-off Markov sources
    (1.5 Mbps peak, 0.15 Mbps mean per flow, 1 ms slots), with a violation
    probability of 1e-9.

    The EBB constants of an aggregate of [n] flows are
    [(1., n *. eb s, s)]; the delay bound is minimized numerically over the
    free parameters [s] (effective-bandwidth/decay) and [gamma]
    (envelope slack). *)

type t = {
  capacity : float;  (** kb per ms (= Mbps) *)
  source : Envelope.Mmpp.t;
  n_through : float;
  n_cross : float;  (** per node *)
  h : int;
  epsilon : float;
}

val paper_defaults : h:int -> n_through:float -> n_cross:float -> t
(** [capacity = 100.], paper source, [epsilon = 1e-9].
    @raise Invalid_argument on [h < 1] or a negative / non-finite flow
    count.  (Aggregate flow counts summing past the link capacity are
    accepted here — overload studies construct them deliberately — but are
    rejected by {!of_utilization}.) *)

val of_utilization : h:int -> u_through:float -> u_cross:float -> t
(** Flow counts from link utilizations (fractions of capacity at the mean
    rate), e.g. [u_through = 0.15] gives the paper's [N_0 = 100].
    @raise Invalid_argument on [h < 1], a utilization outside [\[0., 1.)],
    or a total utilization [u_through +. u_cross >= 1.] (an unstable path
    with no finite bound). *)

val utilization : t -> float
(** Total mean-rate utilization [(N_0 +. N_c) *. mean /. C]. *)

val path_at : t -> s:float -> delta:Scheduler.Delta.t -> E2e.path
(** The {!E2e.path} for a given effective-bandwidth parameter [s]. *)

val s_bracket : t -> float option
(** Upper end of the stable-[s] bracket: the first doubling
    [1e-6 *. 2^k] at which the offered load (with head room for [gamma])
    is no longer below capacity ([1e-6 *. 2^60] if none is), or [None]
    when even [s = 1e-6] is unstable.  {!s_stable_max} bisects below
    it. *)

val s_stable_max : t -> float option
(** Largest effective-bandwidth parameter [s] keeping the offered load
    (with head room for [gamma]) below capacity, or [None] when even a
    vanishing [s] is unstable.  Any [s] in [(0, s_stable_max)] yields a
    valid — if not optimal — probabilistic bound, which is what lets a
    server pin one [s] per cached path shape and still answer soundly. *)

val delay_bound : ?s_points:int -> scheduler:Scheduler.Classes.two_class -> t -> float
(** End-to-end delay bound for FIFO / BMUX / SP (fixed [∆_{0,c}]),
    minimized over [s] (log grid + refinement) and [gamma].
    For [Edf_gap g] the gap is used as given.
    [infinity] when no stable [s] exists. *)

val backlog_bound : ?s_points:int -> scheduler:Scheduler.Classes.two_class -> t -> float
(** End-to-end backlog bound (kb) of the through aggregate,
    [P (B > bound) <= epsilon], minimized over [s] and [gamma] like
    {!delay_bound}.  For [Edf_gap g] the gap is used as given. *)

val delay_bound_checked :
  ?s_points:int -> scheduler:Scheduler.Classes.two_class -> t -> float Diag.outcome
(** {!delay_bound} with a typed diagnostic instead of a silent [infinity]:
    [Unstable] when no stable [s] exists (or every grid point is
    gamma-infeasible), [Non_finite] when a NaN leaked out of the inner
    optimization, [Converged] otherwise.  [diag.iterations] counts
    objective evaluations across the grid and refinement. *)

val backlog_bound_checked :
  ?s_points:int -> scheduler:Scheduler.Classes.two_class -> t -> float Diag.outcome
(** Checked counterpart of {!backlog_bound}; see {!delay_bound_checked}. *)

type edf_spec = {
  cross_over_through : float;
  (** deadline ratio [d*_c /. d*_0]; the paper's Example 1 uses [10.] *)
}

type edf_result = {
  bound : float;  (** the fixed-point end-to-end delay bound *)
  d_through : float;  (** resulting per-node deadline [d*_0 = bound /. H] *)
  d_cross : float;
  iterations : int;  (** evaluations of the bound map F (see below) *)
}

val delay_bound_edf_checked :
  ?s_points:int -> ?max_iter:int -> spec:edf_spec -> t -> edf_result Diag.outcome
(** The paper ties EDF deadlines to the computed bound itself
    ([d*_0 = d_e2e /. H], [d*_c = ratio *. d*_0]), so the bound solves
    [F(d) = d], where [F(d)] is the [Edf_gap] bound at the deadlines [d]
    implies.  [F] is decreasing for [ratio > 1] and increasing for
    [ratio < 1], so the root of [g(d) = F(d) -. d] is found by a bracketed
    solver: starting from the FIFO bound [d0] and [F d0], secant steps
    until [g] changes sign, then Illinois regula falsi on the bracket.  It
    stops at [|F(d) -. d| <= 1e-9 *. F(d)] and returns [F] at the
    evaluated point of smallest residual, with the deadlines that value
    implies.  [iterations] (in the result and the diagnostic) counts
    evaluations of [F], and [max_iter] (default 60) caps them;
    [diag.tolerance] is the returned point's residual [|F(d) -. d| /. d].
    The diagnostic distinguishes:

    - [Converged]: the residual met the 1e-9 tolerance.
    - [Unstable]: no finite FIFO seed, or [F] fell into an infeasible gap
      — the scenario admits no finite EDF bound.
    - [Diverged]: [max_iter] evaluations without meeting tolerance; the
      returned value is the best evaluated point and is {e not} a valid
      bound.
    - [Non_finite]: a NaN leaked out of the inner optimization.

    @raise Invalid_argument on a non-positive deadline ratio. *)

val delay_bound_edf : ?s_points:int -> ?max_iter:int -> spec:edf_spec -> t -> edf_result
(** @deprecated Compatibility wrapper around {!delay_bound_edf_checked}
    that drops the diagnostic — in particular it still returns a value
    after [max_iter] evaluations with no signal of non-convergence.  New
    code should call {!delay_bound_edf_checked}. *)

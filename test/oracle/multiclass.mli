(** End-to-end analysis with {e several} cross-traffic classes per node.

    Section IV of the paper carries one cross aggregate per node, but
    Theorem 1 supports any number of classes [k], each with its own EBB
    characterization and precedence constant [∆_{0,k}] — e.g. EDF with an
    urgent and a bulk cross class.  The per-node service curve becomes

    [S^h (t; θ) = (C t -. sum_k G_k (t -. θ +. ∆_{0,k} (θ)))_+ · I(t > θ)]

    and the Eq.-38 constraint generalizes to

    [(C -. (h-1) γ)(X +. θ_h)
       -. sum_k (ρ_k +. γ) (X +. ∆_{0,k} (θ_h))_+ >= σ.]

    The smallest feasible [θ_h X] is found by scanning the (convex,
    piecewise-linear in [θ]) constraint's segments; the outer minimum over
    [X] enumerates the kinks of [X -> θ_h X] located by bisection.  With a
    single cross class this module agrees with {!Deltanet.E2e} exactly.

    The solver the library used for several cross classes per node
    before {!Deltanet.E2e} took them, kept here as the multi-class
    differential oracle. *)

type cross_class = {
  rho : float;  (** EBB rate of the class aggregate (same at every node) *)
  m : float;  (** EBB prefactor *)
  delta : Scheduler.Delta.t;  (** [∆_{0,k}] *)
}

type path = {
  h : int;
  capacity : float;
  cross : cross_class list;
  through : Envelope.Ebb.t;
}

val v :
  h:int -> capacity:float -> cross:cross_class list -> through:Envelope.Ebb.t -> path
(** @raise Invalid_argument on [h <= 0] or negative rates. *)

val gamma_max : path -> float
(** [(C -. sum_k rho_k -. rho) /. (H + 1)] (flows that never precede the
    through traffic — [Neg_inf] — are excluded from the sum). *)

val total_bound : path -> gamma:float -> Envelope.Exponential.t
(** End-to-end bounding function: per-node bounds combine the class bounds
    (Theorem 1), then compose as in Eq. (31). *)

val sigma_for : path -> gamma:float -> epsilon:float -> float

val theta_of_x : path -> gamma:float -> sigma:float -> x:float -> int -> float
(** Smallest feasible [θ] for the 0-indexed node; [infinity] if none. *)

val delay_given : path -> gamma:float -> sigma:float -> float
val delay_bound : ?gamma_points:int -> epsilon:float -> path -> float

val of_two_class : Deltanet.E2e.path -> path
(** Re-express a homogeneous single-cross-class {!Deltanet.E2e} path (for
    cross-validation; requires homogeneity).
    @raise Invalid_argument otherwise. *)

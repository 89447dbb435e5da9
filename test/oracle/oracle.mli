(** The pre-kernel list-based Eq.-38 solver, kept verbatim as the oracle
    for the bit-for-bit equivalence suite and the reference side of the
    eq38 ns/op benchmark.  Built on the list forms {!Deltanet.E2e.x_candidates},
    {!Deltanet.E2e.objective} and {!Deltanet.E2e.sigma_for}, which share no
    code with the compiled {!Deltanet.E2e.Kernel}. *)

val delay_given : Deltanet.E2e.path -> gamma:float -> sigma:float -> float
(** Minimum of Eq. (38): fold [Float.min] over the candidate abscissae. *)

val optimal_thetas :
  Deltanet.E2e.path -> gamma:float -> sigma:float -> float array * float
(** The minimizing [(thetas, X)]: the first strict minimum over X = 0
    then the candidates. *)

val sigma_for : Deltanet.E2e.path -> gamma:float -> epsilon:float -> float
(** {!Deltanet.E2e.sigma_for}: invert the list-built bounding function. *)

val smallest_k :
  extra_ok:(int -> bool) -> h:int -> c:float -> rho_c:float -> gamma:float -> int
(** The O(H^2) recursive suffix-sum version of {!Deltanet.E2e.smallest_k}. *)

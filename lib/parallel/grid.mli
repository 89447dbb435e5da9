(** Parallel grid scans that are bit-identical to the sequential loops
    they replace.

    Every outer optimization in the reproduction walks a log-spaced grid
    the same way: abscissae built by repeated multiplication
    ([g := !g *. ratio]) and a running minimum updated with a strict
    [v < best] comparison.  These helpers keep {e exactly} those float
    operations — abscissae come from the same repeated products (never
    [lo *. ratio ** k], which rounds differently), and the fold runs on
    the calling domain in index order with the same strict comparison
    (so ties and NaNs resolve identically) — while the per-point
    evaluations fan out on the {!Default} pool. *)

val log_spaced : lo:float -> ratio:float -> points:int -> float array
(** [[| lo; lo *. ratio; (lo *. ratio) *. ratio; ... |]] ([points]
    entries), by repeated multiplication.
    @raise Invalid_argument on [points < 1]. *)

val values : ?work:int -> ('a -> float) -> 'a array -> float array
(** Just the parallel evaluations, in input order. *)

val values_blocked :
  ?work:int -> block:int -> ('a array -> float array) -> 'a array -> float array
(** Contiguous blocks of at most [block] points, one pool task per
    block: [f] receives each slice in index order and the results are
    concatenated, so the output equals {!values} point for point
    whenever [f] is a pointwise map.  [?work] stays the {e per-point}
    cost hint; the pool sees [work * block] per task — the true
    per-chunk cost — so the sequential-vs-parallel decision matches the
    per-point fan-out.  Built for evaluators that amortize compilation
    across a block ([E2e.Kernel], one compiled kernel per block).
    A single-block grid is evaluated directly on the calling domain.
    @raise Invalid_argument on [block < 1]. *)

(** One log-grid search step: the abscissae, their values and the first
    strict minimum. *)
type scan = {
  ratio : float;  (** [(hi /. lo) ** (1. /. float_of_int (points - 1))] *)
  xs : float array;  (** [log_spaced ~lo ~ratio ~points] *)
  values : float array;  (** [eval xs], one value per abscissa *)
  best : int;
      (** index of the first strict minimum: the running
          [if values.(i) < values.(best) then best := i] in index order,
          seeded with point 0 (so ties and NaNs resolve as in the
          sequential scans this replaces) *)
}

val log_scan :
  lo:float -> hi:float -> points:int -> (float array -> float array) -> scan
(** [log_scan ~lo ~hi ~points eval] builds the log-spaced grid from [lo]
    towards [hi], hands it whole to [eval] and folds the argmin on the
    calling domain.  [eval] decides the parallelism — {!values},
    {!values_blocked}, or a sequential [Array.map] when the evaluator
    carries mutable scratch state — and the result is the same either
    way.
    @raise Invalid_argument on [points < 1] or when [eval] returns an
    array whose length is not [points]. *)

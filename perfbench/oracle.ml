(* Correctness oracles.  Each one judges a single operation; the
   workloads count failures against attempts and never stop or rewrite
   data on a failure.  The oracles are pure so the tests can hand them
   seeded wrong answers.

   A failure is [Flagged] when the program itself reported it (a
   non-Converged Diag, a shed, timeout or error response) and [Wrong]
   when the program presented the output as valid and it is not.  Both
   count as failed operations; only [Wrong] makes a run incorrect. *)

type verdict = Pass | Flagged | Wrong

(* ---------------- paper-figs ---------------- *)

type column = Bmux | Fifo | Edf of float  (** deadline ratio d*_c / d*_0 *) | Additive

type bound = {
  value : float;
  status : Deltanet.Diag.status;
  gap : float;  (** EDF: d*_0 - d*_c at the returned deadlines; 0 otherwise *)
}

let rel_close ~tol a b = Float.abs (a -. b) <= tol *. Float.abs b
let not_above ~tol a b = a <= b *. (1. +. tol)

(* One figure cell: its columns' results, in column order.  [recompute]
   re-evaluates the EDF bound at the given gap with the gap held fixed
   (Edf_gap), which must reproduce a true fixed point to 1e-6.  Returns
   one verdict per column:
   - [Flagged]: the bound's Diag is not Converged;
   - [Wrong]: a Converged bound that is not a finite positive number, an
     EDF bound that recomputing at its returned deadlines does not
     reproduce, or a break of EDF(ratio > 1) <= FIFO <= BMUX, within
     1e-9 relative. *)
let figs_cell ~recompute (cols : (column * bound) list) =
  let find p = List.find_map (fun (c, b) -> if p c then Some b else None) cols in
  let bmux = find (function Bmux -> true | _ -> false) in
  let fifo = find (function Fifo -> true | _ -> false) in
  (* ordering is judged against a finite upper neighbour only; a broken
     neighbour is that column's own failure *)
  let below upper b =
    match upper with
    | Some u when Float.is_finite u.value -> not_above ~tol:1e-9 b.value u.value
    | _ -> true
  in
  List.map
    (fun (c, b) ->
      let wrong =
        (not (Float.is_finite b.value && b.value > 0.))
        ||
        match c with
        | Bmux | Additive -> false
        | Fifo -> not (below bmux b)
        | Edf ratio ->
          (not (rel_close ~tol:1e-6 (recompute b.gap) b.value))
          || (ratio > 1. && not (below fifo b))
      in
      match b.status with
      | Deltanet.Diag.Converged -> if wrong then Wrong else Pass
      | _ -> Flagged)
    cols

(* ---------------- admit-* ---------------- *)

type admit_expect =
  | Malformed of string  (** the error code the line must get *)
  | Valid of { deadline : float; reference : float; converged : bool }
      (** [reference]: the [Admission.decide] bound for the line's shape;
          [converged]: whether its Diag was Converged *)

let member_string k j = Option.bind (Serve.Sjson.member k j) Serve.Sjson.to_string

(* A response is
   - [Wrong] when it does not parse as JSON, when a malformed line does
     not get its typed error code, when an exact (or memoized) bound
     differs from the reference or an approx bound lies below it, or
     when [admit] disagrees with bound <= deadline;
   - [Flagged] when a valid line is shed, timed out or answered with an
     error, or when the reference itself did not converge (the engine
     then refuses, which is the sound direction). *)
let admit_response expect resp =
  match Serve.Sjson.parse resp with
  | Error _ -> Wrong
  | Ok j -> (
    match expect with
    | Malformed code ->
      if
        Option.equal String.equal (member_string "status" j) (Some "error")
        && Option.equal String.equal (member_string "code" j) (Some code)
      then Pass
      else Wrong
    | Valid { converged = false; _ } -> Flagged
    | Valid { deadline; reference; converged = true } -> (
      let bound = Option.bind (Serve.Sjson.member "bound_ms" j) Serve.Sjson.to_float in
      let admitted = Option.bind (Serve.Sjson.member "admit" j) Serve.Sjson.to_bool in
      match (member_string "status" j, member_string "mode" j, bound, admitted) with
      | (Some "ok", Some mode, Some b, Some a) ->
        let bound_ok =
          match mode with
          | "exact" -> Float.equal b reference
          | "approx" -> b >= reference
          | _ -> false
        in
        if bound_ok && Bool.equal a (b <= deadline) then Pass else Wrong
      | (Some ("shed" | "timeout" | "error"), _, _, _) -> Flagged
      | _ -> Wrong))

(* ---------------- sim-tandem ---------------- *)

(* The event engine must reproduce the slotted oracle's delay samples
   exactly on a slot-aligned config. *)
let engines_agree (slotted : float array) (event : float array) =
  Array.length slotted = Array.length event && Array.for_all2 Float.equal slotted event

(* A Markov config's empirical 0.999 delay quantile must not exceed the
   analytical bound at epsilon = 1e-3 (plus the simulator's one slot of
   store-and-forward per hop, absent from the fluid model). *)
let quantile_within ~quantile ~bound = quantile <= bound

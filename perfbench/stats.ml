(* Order statistics for the benchmark's reports.

   Percentiles are nearest-rank: the p-th percentile of n samples is the
   sample of rank ceil(p/100 * n) in ascending order.  No interpolation,
   so every reported latency is one that was actually observed. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based rank of the p-th percentile among [n] samples *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  Stdlib.max 1 (Stdlib.min n r)

(* number of samples strictly above the p-th percentile's rank *)
let beyond ~n p = n - rank ~n p

(* [percentile a p] on an already sorted array *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~n p - 1)

let median xs = percentile (sorted xs) 50.

(* The [over]-th percentile (by default the median) over windows of each
   window's p-th percentile: one transient stall of the machine spoils
   one window, not the figure. *)
let windowed ?(over = 50.) windows p =
  percentile (sorted (Array.of_list (List.map (fun w -> percentile (sorted w) p) windows))) over

(* [a] cut into [k] contiguous windows of equal length (the last takes
   the remainder) *)
let split k a =
  let n = Array.length a in
  let k = Stdlib.max 1 (Stdlib.min k n) in
  let len = n / k in
  List.init k (fun i -> Array.sub a (i * len) (if i = k - 1 then n - (i * len) else len))

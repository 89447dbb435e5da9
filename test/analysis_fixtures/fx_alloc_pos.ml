(* Seeded positives for zero-alloc: every binding here must fire.  Line
   numbers are pinned by test/analyze_fixtures.expected — append, don't
   reorder. *)

let pair a b = (a + 1, b) [@@zero_alloc_check]

let scratch n = Array.make n 0. [@@zero_alloc_check]

let concat s t = s ^ t [@@zero_alloc_check]

let box x = Some (x +. 1.) [@@zero_alloc_check]

let escaping_closure n =
  let f = fun x -> x + n in
  f
  [@@zero_alloc_check]

let partial = ( + ) 3 [@@zero_alloc_check]

(* The allocation sits in a same-file callee: the finding carries the
   via-chain. *)
let helper n = Array.make n 0

let via_helper n = helper (n + 1) [@@zero_alloc_check]

(* A candidate row that allocates its accumulator per call instead of
   reusing a preallocated scratch row — the shape the
   [E2e.Kernel.delay] gate exists to forbid.  Must fire. *)
let panel_row cand n =
  let acc = Array.make n 0. in
  for j = 0 to n - 1 do
    acc.(j) <- acc.(j) +. Array.unsafe_get cand j
  done;
  acc
  [@@zero_alloc_check]

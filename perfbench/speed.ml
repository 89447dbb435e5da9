(* The machine's speed during a run, read from a fixed reference kernel.

   On a shared host the same code runs up to 1.5x slower for seconds to
   minutes at a time (a neighbour on the sibling hyperthread, a lower
   clock when the host is busy), so an absolute time says as much about
   the neighbours as about the program.  The benchmark runs this kernel
   between units of work and reports every time at reference speed: the
   measured time times [nominal_s] over the fastest kernel sample near
   the unit.  The kernel is benchmark code, allocation-free and
   independent of the program, so a change to the program moves the
   reported times exactly as much as it moves the measured ones; the
   measured times are printed beside them. *)

(* The kernel's time at reference speed: about its fastest time on the
   2-vCPU Xeon VM this benchmark was tuned on. *)
let nominal_s = 1e-3

(* About 1 ms of float arithmetic, transcendental calls and a branchy
   insertion sort on a small array: the mix the analysis code runs. *)
let kernel =
  let a = Array.make 32 0. in
  fun () ->
    let acc = ref 0. in
    for r = 1 to 1100 do
      for i = 0 to 31 do
        let x = float_of_int (((i * 7919) + (r * 104729)) land 1023) in
        Array.unsafe_set a i (Float.log (1. +. x) *. Float.exp (-.x /. 1024.))
      done;
      for i = 1 to 31 do
        let v = Array.unsafe_get a i in
        let j = ref (i - 1) in
        while !j >= 0 && Array.unsafe_get a !j > v do
          Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
          decr j
        done;
        Array.unsafe_set a (!j + 1) v
      done;
      acc := !acc +. Array.unsafe_get a (r land 31)
    done;
    !acc

type t = {
  mutable at : float array;  (** when each sample ended *)
  mutable took : float array;  (** its time *)
  mutable samples : int;
  mutable last : float;  (** when the last sample ended *)
}

let create () = { at = Array.make 256 0.; took = Array.make 256 0.; samples = 0; last = Float.neg_infinity }

let sample t =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Clock.now () in
  if t.samples = Array.length t.at then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.) in
    t.at <- grow t.at;
    t.took <- grow t.took
  end;
  t.at.(t.samples) <- t1;
  t.took.(t.samples) <- t1 -. t0;
  t.samples <- t.samples + 1;
  t.last <- t1

(* Sample once 50 ms have passed since the last sample; called between
   units of work, never inside a timed one. *)
let tick t = if Clock.now () -. t.last >= 0.05 then sample t

(* How far around a unit of work its speed is read.  A slow stretch of
   the machine lasts seconds; one sample can be hit by a stall of a few
   milliseconds, so the fastest sample within reach is used. *)
let reach_s = 0.5

let fastest_in t lo hi =
  let m = ref Float.infinity in
  for i = 0 to t.samples - 1 do
    if t.at.(i) >= lo && t.at.(i) <= hi then m := Float.min !m t.took.(i)
  done;
  !m

(* Multiply the time of a unit of work done between [t0] and [t1] by
   this to get it at reference speed (divide a rate by it): [nominal_s]
   over the fastest kernel sample within [reach_s] of the unit, or over
   the run's fastest if none is that close. *)
let factor t ~t0 ~t1 =
  if t.samples = 0 then 1.
  else
    let m = fastest_in t (t0 -. reach_s) (t1 +. reach_s) in
    nominal_s /. if Float.is_finite m then m else fastest_in t Float.neg_infinity Float.infinity

(* The printed line: the median and range of the factors a run applied. *)
let note factors =
  let a = Array.copy factors in
  Array.sort Float.compare a;
  let n = Array.length a in
  ( "speed",
    if n = 0 then "no samples"
    else
      Printf.sprintf "x%.4f to reference speed (median over %d units, range %.4f-%.4f; nominal kernel %.4f ms)"
        a.(n / 2) n a.(0) a.(n - 1) (nominal_s *. 1e3) )

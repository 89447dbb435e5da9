(* Monotonic seconds with nanosecond resolution (CLOCK_MONOTONIC).
   Unix.gettimeofday ticks in whole microseconds, which quantized
   admit-hot's ~8 us latencies into 1 us steps: its median jumped 12%
   between neighbouring runs. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

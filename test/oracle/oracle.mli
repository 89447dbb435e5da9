(** The pre-kernel list-based Eq.-38 solver, kept verbatim as the oracle
    for the bit-for-bit equivalence suite and the reference side of the
    eq38 ns/op benchmark.  Built on the list forms {!Deltanet.E2e.x_candidates},
    {!Deltanet.E2e.objective} and {!Deltanet.E2e.sigma_for}, which share no
    code with the compiled {!Deltanet.E2e.Kernel}. *)

val delay_given : Deltanet.E2e.path -> gamma:float -> sigma:float -> float
(** Minimum of Eq. (38): fold [Float.min] over the candidate abscissae. *)

val sigma_for : Deltanet.E2e.path -> gamma:float -> epsilon:float -> float
(** {!Deltanet.E2e.sigma_for}: invert the list-built bounding function. *)

module Multiclass = Multiclass
(** The bisection-based multi-class solver, the differential oracle for
    paths with several cross classes per node. *)

val smallest_k :
  extra_ok:(int -> bool) -> h:int -> c:float -> rho_c:float -> gamma:float -> int
(** The O(H^2) recursive suffix-sum version of {!Deltanet.E2e.smallest_k}. *)

(** The list-and-concatenation renderers [Serve.Protocol] used before its
    buffered JSON writer, kept verbatim (with the [Telemetry.Json]
    [escape]/[number]/[obj]/[arr] they called): the byte-for-byte
    reference for every [Serve.Protocol.render_*]. *)
module Render : sig
  val render_admit :
    ?id:string ->
    ?trace:string ->
    admitted:bool ->
    bound_ms:float ->
    deadline_ms:float ->
    mode:Serve.Protocol.mode ->
    cache_hit:bool ->
    elapsed_ms:float ->
    unit ->
    string

  val render_check : ?id:string -> ?trace:string -> findings:string list -> unit -> string

  val render_error :
    ?id:string -> ?trace:string -> kind:Serve.Protocol.error_kind -> detail:string -> unit -> string

  val render_shed : ?id:string -> ?trace:string -> retry_after_ms:float -> unit -> string

  val render_timeout :
    ?id:string -> ?trace:string -> elapsed_ms:float -> budget_ms:float -> unit -> string

  val render_stats :
    ?id:string ->
    ?trace:string ->
    uptime_s:float ->
    served:int ->
    cache_len:int ->
    cache_capacity:int ->
    cache_hits:int ->
    cache_misses:int ->
    shed:int ->
    timeouts:int ->
    errors:int ->
    counters:(string * int) list ->
    unit ->
    string

  val render_health : ?id:string -> ?trace:string -> uptime_s:float -> unit -> string
  val render_metrics : ?id:string -> ?trace:string -> prometheus:string -> unit -> string
end

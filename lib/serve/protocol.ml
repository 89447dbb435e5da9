(* Wire protocol: field extraction/validation on the way in, one-line
   JSON rendering (via Telemetry.Json) on the way out.  Every validation
   failure is a typed [error]; the only exception here is the internal
   [Bad] carrier caught inside [parse]. *)

module J = Telemetry.Json

type scheduler_kind =
  | Fifo
  | Bmux
  | Sp
  | Edf of { cross_over_through : float }

type admit_params = {
  h : int;
  u_through : float;
  u_cross : float;
  epsilon : float;
  deadline : float;
  scheduler : scheduler_kind;
  budget_ms : float option;
}

type request =
  | Admit of admit_params
  | Check of admit_params
  | Stats
  | Health
  | Metrics
  | Debug_fail

type error_kind =
  | Parse_error
  | Invalid_request
  | Unstable
  | Contract_violation
  | Overloaded
  | Deadline_exceeded
  | Internal

let error_code = function
  | Parse_error -> "parse-error"
  | Invalid_request -> "invalid-request"
  | Unstable -> "unstable"
  | Contract_violation -> "contract-violation"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline-exceeded"
  | Internal -> "internal"

(* Mirrors bin/deltanet_cli.ml: 2 = usage, 3 = unstable, 1 = runtime. *)
let exit_hint = function
  | Parse_error | Invalid_request -> 2
  | Unstable -> 3
  | Contract_violation | Overloaded | Deadline_exceeded | Internal -> 1

type error = { kind : error_kind; detail : string }

exception Bad of error_kind * string

let bad kind fmt = Printf.ksprintf (fun s -> raise (Bad (kind, s))) fmt

let default_epsilon = 1e-9
let default_edf_ratio = 10.
let max_hops = 10_000

let scheduler_of_string ~ratio = function
  | "fifo" -> Some Fifo
  | "bmux" -> Some Bmux
  | "sp" -> Some Sp
  | "edf" -> Some (Edf { cross_over_through = ratio })
  | _ -> None

let scheduler_label = function
  | Fifo -> "fifo"
  | Bmux -> "bmux"
  | Sp -> "sp"
  | Edf _ -> "edf"

(* ---------------- field extraction ---------------- *)

let get_num json field =
  match Sjson.member field json with
  | None -> bad Invalid_request "missing field %S" field
  | Some (Sjson.Num v) -> v
  | Some other ->
    bad Invalid_request "field %S must be a number, got %s" field (Sjson.type_name other)

let get_num_opt json field ~default =
  match Sjson.member field json with
  | None -> default
  | Some (Sjson.Num v) -> v
  | Some other ->
    bad Invalid_request "field %S must be a number, got %s" field (Sjson.type_name other)

let get_str_opt json field ~default =
  match Sjson.member field json with
  | None -> default
  | Some (Sjson.Str s) -> s
  | Some other ->
    bad Invalid_request "field %S must be a string, got %s" field (Sjson.type_name other)

let finite field v =
  if Float.is_finite v then v else bad Invalid_request "field %S must be finite" field

let utilization json field =
  let u = finite field (get_num json field) in
  if u < 0. || u >= 1. then bad Invalid_request "field %S = %g outside [0, 1)" field u;
  u

let admit_params_of ~require_deadline json =
  let hf = finite "h" (get_num json "h") in
  let h = int_of_float hf in
  if not (Float.equal (float_of_int h) hf) then
    bad Invalid_request "field \"h\" = %g is not an integer" hf;
  if h < 1 || h > max_hops then
    bad Invalid_request "field \"h\" = %d outside [1, %d]" h max_hops;
  let u_through = utilization json "u0" in
  let u_cross = utilization json "uc" in
  if u_through +. u_cross >= 1. then
    bad Unstable "total utilization %g >= 1 — no finite bound exists"
      (u_through +. u_cross);
  let epsilon = get_num_opt json "eps" ~default:default_epsilon in
  if Float.is_nan epsilon || epsilon <= 0. || epsilon >= 1. then
    bad Invalid_request "field \"eps\" must be in (0, 1)";
  let deadline =
    if require_deadline then finite "deadline" (get_num json "deadline")
    else finite "deadline" (get_num_opt json "deadline" ~default:1.)
  in
  if deadline <= 0. then bad Invalid_request "field \"deadline\" = %g must be > 0" deadline;
  let ratio = get_num_opt json "edf_ratio" ~default:default_edf_ratio in
  if not (Float.is_finite ratio) || ratio <= 0. then
    bad Invalid_request "field \"edf_ratio\" must be finite and > 0";
  let sched_name = get_str_opt json "sched" ~default:"fifo" in
  let scheduler =
    match scheduler_of_string ~ratio sched_name with
    | Some s -> s
    | None -> bad Invalid_request "unknown scheduler %S" sched_name
  in
  let budget_ms =
    match Sjson.member "budget_ms" json with
    | None -> None
    | Some (Sjson.Num v) when Float.is_finite v && v > 0. -> Some v
    | Some _ -> bad Invalid_request "field \"budget_ms\" must be a number > 0"
  in
  { h; u_through; u_cross; epsilon; deadline; scheduler; budget_ms }

let request_of ~debug_ops json =
  match Sjson.member "op" json with
  | None -> bad Invalid_request "missing field \"op\""
  | Some (Sjson.Str "admit") -> Admit (admit_params_of ~require_deadline:true json)
  | Some (Sjson.Str "check") -> Check (admit_params_of ~require_deadline:false json)
  | Some (Sjson.Str "stats") -> Stats
  | Some (Sjson.Str "health") -> Health
  | Some (Sjson.Str "metrics") -> Metrics
  | Some (Sjson.Str "debug-fail") when debug_ops -> Debug_fail
  | Some (Sjson.Str op) -> bad Invalid_request "unknown op %S" op
  | Some other -> bad Invalid_request "field \"op\" must be a string, got %s" (Sjson.type_name other)

let extract_id json =
  match Sjson.member "id" json with
  | Some (Sjson.Str s) -> Some s
  | Some (Sjson.Num v) when Float.is_finite v && Float.equal (Float.rem v 1.) 0. ->
    Some (Printf.sprintf "%.0f" v)
  | _ -> None

let parse ?(max_bytes = 65_536) ~debug_ops line =
  if String.length line > max_bytes then
    ( None,
      Error
        {
          kind = Invalid_request;
          detail =
            Printf.sprintf "oversized request: %d bytes (limit %d)" (String.length line)
              max_bytes;
        } )
  else
    match Sjson.parse line with
    | Error msg -> (None, Error { kind = Parse_error; detail = msg })
    | Ok json ->
      let id = extract_id json in
      let result =
        match request_of ~debug_ops json with
        | req -> Ok req
        | exception Bad (kind, detail) -> Error { kind; detail }
      in
      (id, result)

(* ---------------- rendering ---------------- *)

type mode = Exact | Approx

let mode_label = function Exact -> "exact" | Approx -> "approx"

(* [id] (echoed client correlation id) leads, [trace] (server-assigned
   request trace id, also in the access log) closes, so clients can join
   a response line against the daemon's own telemetry. *)
let render ?id ?trace fields =
  J.to_string (fun b ->
      J.obj b (fun b ->
          (match id with Some i -> J.str_field b "id" i | None -> ());
          fields b;
          match trace with Some s -> J.str_field b "trace" s | None -> ()))

let render_admit ?id ?trace ~admitted ~bound_ms ~deadline_ms ~mode ~cache_hit
    ~elapsed_ms () =
  render ?id ?trace (fun b ->
      J.str_field b "status" "ok";
      J.str_field b "op" "admit";
      J.bool_field b "admit" admitted;
      J.num_field b "bound_ms" bound_ms;
      J.num_field b "deadline_ms" deadline_ms;
      J.str_field b "mode" (mode_label mode);
      J.str_field b "cache" (if cache_hit then "hit" else "miss");
      J.num_field b "elapsed_ms" elapsed_ms)

let render_check ?id ?trace ~findings () =
  render ?id ?trace (fun b ->
      J.str_field b "status" "ok";
      J.str_field b "op" "check";
      J.bool_field b "ok" (match findings with [] -> true | _ :: _ -> false);
      J.arr_field b "findings" (fun b ->
          List.iter
            (fun f ->
              J.sep b;
              J.add_string b f)
            findings))

let render_error ?id ?trace ~kind ~detail () =
  render ?id ?trace (fun b ->
      J.str_field b "status" "error";
      J.str_field b "code" (error_code kind);
      J.str_field b "detail" detail;
      J.int_field b "exit_hint" (exit_hint kind))

let render_shed ?id ?trace ~retry_after_ms () =
  render ?id ?trace (fun b ->
      J.str_field b "status" "shed";
      J.str_field b "code" (error_code Overloaded);
      J.num_field b "retry_after_ms" retry_after_ms;
      J.int_field b "exit_hint" (exit_hint Overloaded))

let render_timeout ?id ?trace ~elapsed_ms ~budget_ms () =
  render ?id ?trace (fun b ->
      J.str_field b "status" "timeout";
      J.str_field b "code" (error_code Deadline_exceeded);
      J.num_field b "elapsed_ms" elapsed_ms;
      J.num_field b "budget_ms" budget_ms;
      J.int_field b "exit_hint" (exit_hint Deadline_exceeded))

let render_stats ?id ?trace ~uptime_s ~served ~cache_len ~cache_capacity
    ~cache_hits ~cache_misses ~shed ~timeouts ~errors ~counters () =
  let lookups = cache_hits + cache_misses in
  let hit_ratio =
    if lookups = 0 then 0. else float_of_int cache_hits /. float_of_int lookups
  in
  render ?id ?trace (fun b ->
      J.str_field b "status" "ok";
      J.str_field b "op" "stats";
      J.num_field b "uptime_s" uptime_s;
      J.int_field b "served" served;
      J.int_field b "cache_len" cache_len;
      J.int_field b "cache_capacity" cache_capacity;
      J.int_field b "cache_hits" cache_hits;
      J.int_field b "cache_misses" cache_misses;
      J.num_field b "cache_hit_ratio" hit_ratio;
      J.int_field b "shed" shed;
      J.int_field b "timeouts" timeouts;
      J.int_field b "errors" errors;
      J.obj_field b "counters" (fun b ->
          List.iter (fun (k, v) -> J.int_field b k v) counters))

let render_health ?id ?trace ~uptime_s () =
  render ?id ?trace (fun b ->
      J.str_field b "status" "ok";
      J.str_field b "op" "health";
      J.num_field b "uptime_s" uptime_s)

let render_metrics ?id ?trace ~prometheus () =
  render ?id ?trace (fun b ->
      J.str_field b "status" "ok";
      J.str_field b "op" "metrics";
      J.str_field b "prometheus" prometheus)

(* The pre-kernel list-based Eq.-38 solver. *)

module E2e = Deltanet.E2e

(* the registry returns E2e's own counter for the same name *)
let c_objective_evals = Telemetry.Counter.make "e2e.eq38.objective_evals"

let delay_given p ~gamma ~sigma =
  if sigma < 0. then invalid_arg "E2e.delay_given: negative sigma";
  let cands = E2e.x_candidates p ~gamma ~sigma in
  if !Telemetry.on then
    Telemetry.Counter.add c_objective_evals (List.length cands);
  (* The objective is piecewise linear with kinks exactly at the candidate
     abscissae, so its minimum over X >= 0 is attained at one of them. *)
  List.fold_left
    (fun acc x -> Float.min acc (E2e.objective p ~gamma ~sigma x))
    Float.infinity cands

let sigma_for = E2e.sigma_for

module Multiclass = Multiclass

(* O(H^2): [suffix_sum] re-walks the tail for every candidate K. *)
let smallest_k ~extra_ok ~h ~c ~rho_c ~gamma =
  let term k =
    (c -. rho_c -. (float_of_int k *. gamma))
    /. (c -. (float_of_int (k - 1) *. gamma))
  in
  let rec suffix_sum k = if k > h then 0. else term k +. suffix_sum (k + 1) in
  let rec find k =
    if k > h then h
    else if suffix_sum (k + 1) < 1. && extra_ok k then k
    else find (k + 1)
  in
  find 0

(* The list-and-concatenation response renderers [Serve.Protocol] used
   before its buffered writer, with the [Telemetry.Json] pieces they
   called, kept verbatim: the byte-for-byte reference for every
   [Protocol.render_*]. *)
module Render = struct
  module P = Serve.Protocol

  module J = struct
    let escape s =
      let buf = Buffer.create (String.length s + 8) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.contents buf

    let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

    let obj fields =
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ v) fields)
      ^ "}"

    let arr items = "[" ^ String.concat "," items ^ "]"
  end

  let str s = "\"" ^ J.escape s ^ "\""
  let bool b = if b then "true" else "false"

  (* [id] (echoed client correlation id) leads, [trace] (server-assigned
     request trace id, also in the access log) closes, so clients can join
     a response line against the daemon's own telemetry. *)
  let with_ids id trace fields =
    let fields = match trace with None -> fields | Some s -> fields @ [ ("trace", str s) ] in
    match id with None -> fields | Some i -> ("id", str i) :: fields

  let render_admit ?id ?trace ~admitted ~bound_ms ~deadline_ms ~mode ~cache_hit
      ~elapsed_ms () =
    J.obj
      (with_ids id trace
         [
           ("status", str "ok");
           ("op", str "admit");
           ("admit", bool admitted);
           ("bound_ms", J.number bound_ms);
           ("deadline_ms", J.number deadline_ms);
           ("mode", str (P.mode_label mode));
           ("cache", str (if cache_hit then "hit" else "miss"));
           ("elapsed_ms", J.number elapsed_ms);
         ])

  let render_check ?id ?trace ~findings () =
    J.obj
      (with_ids id trace
         [
           ("status", str "ok");
           ("op", str "check");
           ("ok", bool (match findings with [] -> true | _ :: _ -> false));
           ("findings", J.arr (List.map str findings));
         ])

  let render_error ?id ?trace ~kind ~detail () =
    J.obj
      (with_ids id trace
         [
           ("status", str "error");
           ("code", str (P.error_code kind));
           ("detail", str detail);
           ("exit_hint", string_of_int (P.exit_hint kind));
         ])

  let render_shed ?id ?trace ~retry_after_ms () =
    J.obj
      (with_ids id trace
         [
           ("status", str "shed");
           ("code", str (P.error_code P.Overloaded));
           ("retry_after_ms", J.number retry_after_ms);
           ("exit_hint", string_of_int (P.exit_hint P.Overloaded));
         ])

  let render_timeout ?id ?trace ~elapsed_ms ~budget_ms () =
    J.obj
      (with_ids id trace
         [
           ("status", str "timeout");
           ("code", str (P.error_code P.Deadline_exceeded));
           ("elapsed_ms", J.number elapsed_ms);
           ("budget_ms", J.number budget_ms);
           ("exit_hint", string_of_int (P.exit_hint P.Deadline_exceeded));
         ])

  let render_stats ?id ?trace ~uptime_s ~served ~cache_len ~cache_capacity
      ~cache_hits ~cache_misses ~shed ~timeouts ~errors ~counters () =
    let lookups = cache_hits + cache_misses in
    let hit_ratio =
      if lookups = 0 then 0. else float_of_int cache_hits /. float_of_int lookups
    in
    J.obj
      (with_ids id trace
         [
           ("status", str "ok");
           ("op", str "stats");
           ("uptime_s", J.number uptime_s);
           ("served", string_of_int served);
           ("cache_len", string_of_int cache_len);
           ("cache_capacity", string_of_int cache_capacity);
           ("cache_hits", string_of_int cache_hits);
           ("cache_misses", string_of_int cache_misses);
           ("cache_hit_ratio", J.number hit_ratio);
           ("shed", string_of_int shed);
           ("timeouts", string_of_int timeouts);
           ("errors", string_of_int errors);
           ( "counters",
             J.obj (List.map (fun (k, v) -> (k, string_of_int v)) counters) );
         ])

  let render_health ?id ?trace ~uptime_s () =
    J.obj
      (with_ids id trace
         [ ("status", str "ok"); ("op", str "health"); ("uptime_s", J.number uptime_s) ])

  let render_metrics ?id ?trace ~prometheus () =
    J.obj
      (with_ids id trace
         [ ("status", str "ok"); ("op", str "metrics"); ("prometheus", str prometheus) ])
end

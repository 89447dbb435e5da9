(* perfbench: the repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (paper-figs, admit-hot, admit-churn, sim-tandem)
   for about S seconds on inputs generated from the seed, checks every
   output, prints the figures by name, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
   end-to-end metrics from an untraced run; --trace 1 runs the traced
   variant and reports the per-layer metrics.  See perfbench/README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-figs|admit-hot|admit-churn|sim-tandem --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | (Some w, Some seed, Some s, Some trace) when s > 0. && Float.is_finite s -> (w, seed, s, trace)
  | _ -> usage ()

let run workload ~seed ~seconds ~trace =
  match (workload, trace) with
  | ("paper-figs", false) -> Figs.measure ~seconds
  | ("paper-figs", true) -> Figs.traced ()
  | ("admit-hot", false) -> Admit.measure Admit.Hot ~seed ~seconds
  | ("admit-hot", true) -> Admit.traced Admit.Hot ~seed ~seconds
  | ("admit-churn", false) -> Admit.measure Admit.Churn ~seed ~seconds
  | ("admit-churn", true) -> Admit.traced Admit.Churn ~seed ~seconds
  | ("sim-tandem", false) -> Sim.measure ~seed ~seconds
  | ("sim-tandem", true) -> Sim.traced ~seed ~seconds
  | _ -> usage ()

let () =
  let (workload, seed, seconds, trace) = parse_args () in
  let o = run workload ~seed ~seconds ~trace in
  let table = if trace then Metrics.per_layer else Metrics.end_to_end in
  let value name =
    match List.assoc_opt name o.Metrics.metrics with
    | Some v when Float.is_finite v -> v
    | Some _ -> 0.
    | None when trace -> 0.
    | None -> failwith ("workload did not produce " ^ name)
  in
  (* an end-to-end figure that is zero or not finite is a broken run *)
  let sane =
    trace
    || List.for_all
         (fun (n, _) ->
           match List.assoc_opt n o.Metrics.metrics with
           | Some v -> Float.is_finite v && v > 0.
           | None -> false)
         table
  in
  List.iter (fun (k, v) -> Printf.printf "%-32s %s\n" k v) o.Metrics.notes;
  List.iter (fun (n, u) -> Printf.printf "%-32s %.6g %s\n" n (value n) u) table;
  let metrics =
    List.map
      (fun (n, u) ->
        Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n (value n) u)
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.Metrics.wrong = 0 && sane)
    o.Metrics.attempted o.Metrics.failed (String.concat ", " metrics)

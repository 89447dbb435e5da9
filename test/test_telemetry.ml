(* Telemetry subsystem: registry metrics, span nesting, exporters, the
   checkpoint schema gate, and an end-to-end check that the CLI's
   [--metrics] JSON-lines output parses and carries the expected names. *)

let check = Alcotest.check
let checkf msg = check (Alcotest.float 1e-9) msg

(* A sink that appends every event to a list, for asserting on the exact
   stream a test produced. *)
let collecting_sink () =
  let events = ref [] in
  let sink =
    Telemetry.Sink.make
      ~emit:(fun e -> events := e :: !events)
      ~flush:(fun () -> ())
  in
  (sink, fun () -> List.rev !events)

(* Each test configures its own sink and must leave telemetry disabled. *)
let with_telemetry sink f =
  Telemetry.reset ();
  Telemetry.configure ~sink ();
  Fun.protect ~finally:Telemetry.shutdown f

(* ---------------- registry metrics ---------------- *)

let test_counter () =
  let c = Telemetry.Counter.make "test.counter" in
  (* disabled: recording is a no-op *)
  Telemetry.Counter.incr c;
  check Alcotest.int "disabled counter stays 0" 0 (Telemetry.Counter.value c);
  with_telemetry Telemetry.Sink.null (fun () ->
      Telemetry.Counter.incr c;
      Telemetry.Counter.add c 41;
      check Alcotest.int "counter accumulates" 42 (Telemetry.Counter.value c);
      let snap = Telemetry.snapshot () in
      check Alcotest.int "snapshot sees the counter" 42
        (List.assoc "test.counter" snap.Telemetry.counters));
  Telemetry.reset ();
  check Alcotest.int "reset zeroes" 0 (Telemetry.Counter.value c)

let test_gauge () =
  let g = Telemetry.Gauge.make "test.gauge" in
  with_telemetry Telemetry.Sink.null (fun () ->
      Telemetry.Gauge.set g 3.;
      Telemetry.Gauge.set g 7.;
      Telemetry.Gauge.set g 5.;
      checkf "gauge keeps last" 5. (Telemetry.Gauge.value g);
      checkf "gauge tracks high-water" 7. (Telemetry.Gauge.max_value g))

let test_histogram () =
  let h = Telemetry.Histogram.make "test.histogram" in
  with_telemetry Telemetry.Sink.null (fun () ->
      List.iter (Telemetry.Histogram.observe h) [ 1.; 2.; 4.; 8.; 1000. ];
      check Alcotest.int "count" 5 (Telemetry.Histogram.count h);
      checkf "sum" 1015. (Telemetry.Histogram.sum h);
      (* log-scale buckets: quantiles exact to within a factor of 2 *)
      let p50 = Telemetry.Histogram.quantile h 0.5 in
      Alcotest.(check bool) "p50 within a factor of 2 of the median" true
        (p50 >= 4. && p50 <= 8.);
      let p99 = Telemetry.Histogram.quantile h 0.99 in
      Alcotest.(check bool) "p99 brackets the max" true
        (p99 >= 1000. && p99 <= 2048.));
  Alcotest.(check bool) "empty histogram quantile is nan" true
    (Telemetry.reset ();
     Float.is_nan (Telemetry.Histogram.quantile h 0.5))

(* ---------------- spans and events ---------------- *)

let test_span_nesting () =
  let (sink, events) = collecting_sink () in
  with_telemetry sink (fun () ->
      let result =
        Telemetry.span "outer" ~attrs:[ ("k", Telemetry.Int 1) ] (fun () ->
            Telemetry.event "mid" ~attrs:[ ("v", Telemetry.Bool true) ];
            Telemetry.span "inner" (fun () -> 17))
      in
      check Alcotest.int "span returns the body's value" 17 result);
  let shape =
    List.filter_map
      (function
        | Telemetry.Sink.Span_start { name; depth; _ } -> Some (">" ^ name, depth)
        | Telemetry.Sink.Span_end { name; depth; _ } -> Some ("<" ^ name, depth)
        | Telemetry.Sink.Point { name; depth; _ } -> Some ("." ^ name, depth)
        | Telemetry.Sink.Metric _ -> None)
      (events ())
  in
  Alcotest.(check (list (pair string int)))
    "event stream shape and depths"
    [ (">outer", 0); (".mid", 1); (">inner", 1); ("<inner", 1); ("<outer", 0) ]
    shape;
  (* spans auto-register duration/count metrics *)
  let snap = Telemetry.snapshot () in
  check Alcotest.int "span call counter" 1
    (List.assoc "span.outer.calls" snap.Telemetry.counters);
  Alcotest.(check bool) "span duration histogram registered" true
    (List.mem_assoc "span.inner.ms" snap.Telemetry.histograms)

let test_span_exception () =
  let (sink, events) = collecting_sink () in
  (try
     with_telemetry sink (fun () ->
         Telemetry.span "boom" (fun () -> failwith "kaboom"))
   with Failure _ -> ());
  let closed_with_error =
    List.exists
      (function
        | Telemetry.Sink.Span_end { name = "boom"; attrs; _ } ->
          List.mem_assoc "error" attrs
        | _ -> false)
      (events ())
  in
  Alcotest.(check bool) "exception closes the span with an error attr" true
    closed_with_error

(* ---------------- exporters ---------------- *)

let test_csv_row_non_finite () =
  (* regression: results/*.csv used to print "inf"/"nan" through %.6g *)
  check Alcotest.string "non-finite values become empty cells" "1.5,,,2"
    (Telemetry.Csv.row [ 1.5; Float.infinity; Float.nan; 2. ]);
  check Alcotest.string "neg_infinity too" ","
    (Telemetry.Csv.row [ Float.neg_infinity; Float.nan ]);
  check Alcotest.string "%.6g formatting retained" "0.333333"
    (Telemetry.Csv.cell (1. /. 3.))

let test_json_emission () =
  check Alcotest.string "nan is null" "null" (Telemetry.Json.number Float.nan);
  check Alcotest.string "inf is null" "null" (Telemetry.Json.number Float.infinity);
  check Alcotest.string "string escaping" "a\\\"b\\\\c\\n"
    (Telemetry.Json.escape "a\"b\\c\n");
  check Alcotest.string "object/array composition"
    "{\"xs\":[1,2],\"ok\":true}"
    (Telemetry.Json.(
       to_string (fun b ->
           obj b (fun b ->
               arr_field b "xs" (fun b ->
                   List.iter
                     (fun x ->
                       sep b;
                       add_number b x)
                     [ 1.; 2. ]);
               bool_field b "ok" true))))

(* ---------------- checkpoint schema gate ---------------- *)

let test_checkpoint_version () =
  let path = Filename.temp_file "deltanet_ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sweep checkpoint =
        Netsim.Replicate.statistic_ci ~runs:3 ~base_seed:7L ~checkpoint
          (fun ~seed -> Int64.to_float (Int64.rem seed 1000L))
      in
      (* a fresh sweep writes the current schema header and checkpoints *)
      let s = sweep path in
      check Alcotest.int "fresh sweep completes" 3 s.Netsim.Replicate.completed;
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check bool) "header carries the v2 schema" true
        (String.length header >= 22
        && String.sub header 0 22 = "deltanet-replicate v2 ");
      (* resuming against the same file loads every run *)
      let s2 = sweep path in
      check Alcotest.int "resume loads all runs" 3 s2.Netsim.Replicate.resumed;
      (* a v1 checkpoint is rejected with a version message *)
      let oc = open_out path in
      output_string oc "deltanet-replicate v1 7 3\n0 1.0\n";
      close_out oc;
      Alcotest.check_raises "v1 schema rejected"
        (Invalid_argument
           (Printf.sprintf
              "Replicate: checkpoint %s uses schema v1, but this build writes \
               v2 — rerun the sweep from scratch (delete the file) or use the \
               matching build"
              path))
        (fun () -> ignore (sweep path));
      (* a non-checkpoint file is rejected too *)
      let oc = open_out path in
      output_string oc "totally not a checkpoint\n";
      close_out oc;
      (match sweep path with
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "foreign file names the missing header" true
          (String.length msg > 0
          &&
          let sub = "no schema header" in
          let rec find i =
            i + String.length sub <= String.length msg
            && (String.sub msg i (String.length sub) = sub || find (i + 1))
          in
          find 0)
      | _ -> Alcotest.fail "foreign file accepted as checkpoint"))

(* ---------------- CLI integration: --metrics JSON-lines ---------------- *)

(* Minimal recursive-descent JSON syntax checker — the project has no JSON
   dependency, and the point is precisely that the emitted lines parse. *)
let json_parses s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if peek () = Some c then incr pos else raise Exit in
  let lit w =
    String.iter expect w
  in
  let string_lit () =
    expect '"';
    let rec go () =
      if !pos >= n then raise Exit
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
          | Some 'u' ->
            incr pos;
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
              | _ -> raise Exit
            done
          | _ -> raise Exit);
          go ()
        | _ ->
          incr pos;
          go ()
    in
    go ()
  in
  let number_lit () =
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done;
      if !pos = d0 then raise Exit
    in
    digits ();
    if peek () = Some '.' then begin incr pos; digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ())
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then incr pos
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; members ()
          | _ -> expect '}'
        in
        members ()
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then incr pos
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; elements ()
          | _ -> expect ']'
        in
        elements ()
    | Some '"' -> string_lit ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number_lit ()
    | _ -> raise Exit);
    skip_ws ()
  in
  match value (); !pos = n with
  | complete -> complete
  | exception Exit -> false

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_cli_metrics () =
  (* the test binary runs in _build/default/test; the CLI is a declared
     dep one directory over *)
  let cli = Filename.concat Filename.parent_dir_name "bin/deltanet_cli.exe" in
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else begin
    let out = Filename.temp_file "deltanet_metrics" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let cmd =
          Printf.sprintf "%s simulate -H 2 --slots 200 --metrics %s > /dev/null 2>&1"
            (Filename.quote cli) (Filename.quote out)
        in
        check Alcotest.int "CLI exits 0" 0 (Sys.command cmd);
        let lines = read_lines out in
        Alcotest.(check bool) "metrics file is non-empty" true (lines <> []);
        List.iteri
          (fun i line ->
            Alcotest.(check bool)
              (Printf.sprintf "line %d parses as JSON" (i + 1))
              true (json_parses line))
          lines;
        let all = String.concat "\n" lines in
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " appears in the stream") true
              (contains all ("\"" ^ name ^ "\"")))
          [
            "cli.simulate";
            "netsim.tandem.run";
            "tandem.node";
            "tandem.done";
            "netsim.tandem.slots";
            "netsim.node.offers";
          ])
  end

(* ---------------- flight-recorder ring ---------------- *)

let test_ring_overflow_merge () =
  let (sink, events) = collecting_sink () in
  with_telemetry sink (fun () ->
      let cap = Telemetry.Ring.default_capacity in
      let extra = 100 in
      for i = 0 to cap + extra - 1 do
        Telemetry.event "ring.e" ~attrs:[ ("i", Telemetry.Int i) ]
      done;
      (* the writes land in the ring only; nothing reaches the sink until
         the merge runs *)
      check Alcotest.int "ring buffers until flush" 0 (List.length (events ()));
      Alcotest.(check bool) "ring_stats counts this domain's writes" true
        (List.exists (fun (_, w) -> w >= cap + extra) (Telemetry.ring_stats ()));
      Telemetry.flush ();
      let points =
        List.filter_map
          (function
            | Telemetry.Sink.Point { ts; name; attrs; _ } -> Some (ts, name, attrs)
            | _ -> None)
          (events ())
      in
      (match points with
      | (_, "telemetry.ring.dropped", attrs) :: rest ->
        (match List.assoc_opt "count" attrs with
        | Some (Telemetry.Int d) ->
          check Alcotest.int "drop marker counts the overwritten prefix" extra d
        | _ -> Alcotest.fail "drop marker has no count attr");
        check Alcotest.int "ring keeps exactly its capacity" cap
          (List.length rest);
        (* the survivors are the newest [cap] events, in order *)
        (match (List.hd rest, List.nth rest (cap - 1)) with
        | ((_, _, first_attrs), (_, _, last_attrs)) ->
          Alcotest.(check bool) "oldest survivor is the first un-dropped event"
            true
            (match List.assoc_opt "i" first_attrs with
            | Some (Telemetry.Int i) -> i = extra
            | _ -> false);
          Alcotest.(check bool) "newest survivor is the last event" true
            (match List.assoc_opt "i" last_attrs with
            | Some (Telemetry.Int i) -> i = cap + extra - 1
            | _ -> false));
        let rec ordered = function
          | (ta, _, _) :: ((tb, _, _) :: _ as tl) -> ta <= tb && ordered tl
          | _ -> true
        in
        Alcotest.(check bool) "merged stream is timestamp-ordered" true
          (ordered points)
      | _ -> Alcotest.fail "flush did not lead with the drop marker"))

(* ---------------- Prometheus exposition ---------------- *)

let test_prometheus_golden () =
  with_telemetry Telemetry.Sink.null (fun () ->
      let c = Telemetry.Counter.make "golden.requests" in
      let g = Telemetry.Gauge.make "golden.depth" in
      let h = Telemetry.Histogram.make "golden.lat_ms{outcome=ok}" in
      Telemetry.Counter.add c 3;
      Telemetry.Gauge.set g 7.;
      Telemetry.Gauge.set g 2.5;
      (* 0.5 lands in the (0.25, 0.5] ... bucket upper 1 (frexp puts
         [2^(e-1), 2^e) under upper 2^e); 3.0 under upper 4 *)
      Telemetry.Histogram.observe h 0.5;
      Telemetry.Histogram.observe h 3.0;
      let rendered =
        List.filter
          (fun line -> contains line "golden_")
          (String.split_on_char '\n' (Telemetry.Prometheus.render ()))
      in
      Alcotest.(check (list string))
        "golden exposition: counter _total, gauge + _max, cumulative \
         buckets with +Inf"
        [
          "# HELP golden_requests_total deltanet counter";
          "# TYPE golden_requests_total counter";
          "golden_requests_total 3";
          "# HELP golden_depth deltanet gauge";
          "# TYPE golden_depth gauge";
          "golden_depth 2.5";
          "# HELP golden_depth_max deltanet gauge";
          "# TYPE golden_depth_max gauge";
          "golden_depth_max 7";
          "# HELP golden_lat_ms deltanet histogram";
          "# TYPE golden_lat_ms histogram";
          "golden_lat_ms_bucket{outcome=\"ok\",le=\"1\"} 1";
          "golden_lat_ms_bucket{outcome=\"ok\",le=\"4\"} 2";
          "golden_lat_ms_bucket{outcome=\"ok\",le=\"+Inf\"} 2";
          "golden_lat_ms_sum{outcome=\"ok\"} 3.5";
          "golden_lat_ms_count{outcome=\"ok\"} 2";
        ]
        rendered)

let test_prometheus_write_file () =
  with_telemetry Telemetry.Sink.null (fun () ->
      let c = Telemetry.Counter.make "golden.requests" in
      Telemetry.Counter.incr c;
      let path = Filename.temp_file "deltanet_prom" ".prom" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          Telemetry.Prometheus.write_file path;
          Alcotest.(check bool) "no .tmp litter" false
            (Sys.file_exists (path ^ ".tmp"));
          let body = String.concat "\n" (read_lines path) in
          Alcotest.(check bool) "snapshot holds the rendered registry" true
            (contains body "golden_requests_total 1")))

(* Property: the log-2 bucket quantile brackets the exact order statistic
   at the same target rank — never below it, never more than one bucket
   (a factor of 2) above it. *)
let prop_quantile_within_bucket =
  QCheck.Test.make ~name:"histogram quantile within one log-2 bucket of exact"
    ~count:(Qc.count 200)
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (float_range 1e-6 1e9))
        (float_range 0. 1.))
    (fun (xs, q) ->
      Telemetry.reset ();
      Telemetry.configure ();
      Fun.protect ~finally:Telemetry.shutdown (fun () ->
          let h = Telemetry.Histogram.make "prop.quantile" in
          List.iter (Telemetry.Histogram.observe h) xs;
          let hq = Telemetry.Histogram.quantile h q in
          let sorted = List.sort Float.compare xs in
          let n = List.length xs in
          let target =
            max 1 (int_of_float (Float.round (q *. float_of_int n)))
          in
          let exact = List.nth sorted (target - 1) in
          exact <= hq && hq <= 2. *. exact))

let suite =
  [
    Alcotest.test_case "counter: disabled/accumulate/reset" `Quick test_counter;
    Alcotest.test_case "gauge: last value and high-water" `Quick test_gauge;
    Alcotest.test_case "histogram: log-scale quantiles" `Quick test_histogram;
    Alcotest.test_case "span: nesting, depths, auto-metrics" `Quick
      test_span_nesting;
    Alcotest.test_case "span: exception closes with error" `Quick
      test_span_exception;
    Alcotest.test_case "csv: non-finite cells are empty" `Quick
      test_csv_row_non_finite;
    Alcotest.test_case "json: numbers, escaping, composition" `Quick
      test_json_emission;
    Alcotest.test_case "replicate: checkpoint schema versioning" `Quick
      test_checkpoint_version;
    Alcotest.test_case "cli: --metrics emits parseable JSON-lines" `Quick
      test_cli_metrics;
    Alcotest.test_case "ring: overflow keeps the tail, merge is ordered" `Quick
      test_ring_overflow_merge;
    Alcotest.test_case "prometheus: golden exposition incl +Inf" `Quick
      test_prometheus_golden;
    Alcotest.test_case "prometheus: atomic file snapshot" `Quick
      test_prometheus_write_file;
    QCheck_alcotest.to_alcotest prop_quantile_within_bucket;
  ]

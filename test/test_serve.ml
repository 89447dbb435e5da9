(* Tests for lib/serve: the total JSON reader, the wire protocol, the
   bounded LRU, the engine's degradation ladder (deadlines, shedding,
   approx fallback, supervision) under an injected clock, and a live
   daemon round trip through the CLI.  The fuzz section hammers the
   protocol surface: any byte string must come back as a structured
   response, never an exception or a hang. *)

module Sjson = Serve.Sjson
module P = Serve.Protocol
module Cache = Serve.Cache
module Engine = Serve.Engine

let check = Alcotest.check

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let parse_resp line =
  match Sjson.parse line with
  | Ok j -> j
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let str_field j k =
  match Sjson.member k j with
  | Some (Sjson.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S" k

let num_field j k =
  match Sjson.member k j with
  | Some (Sjson.Num v) -> v
  | _ -> Alcotest.failf "missing number field %S" k

(* deterministic clocks for the engine tests *)
let const_clock v () = v

let queue_clock vs =
  let q = ref vs in
  fun () ->
    match !q with
    | [] -> 0.
    | [ x ] -> x
    | x :: tl ->
      q := tl;
      x

(* ---------------- Sjson ---------------- *)

let sjson_ok s =
  match Sjson.parse s with
  | Ok v -> v
  | Error m -> Alcotest.failf "Sjson rejected %S: %s" s m

let test_sjson_values () =
  (match sjson_ok "null" with Sjson.Null -> () | _ -> Alcotest.fail "null");
  (match sjson_ok " true " with
  | Sjson.Bool true -> ()
  | _ -> Alcotest.fail "true");
  (match sjson_ok "-12.5e2" with
  | Sjson.Num v -> check (Alcotest.float 1e-9) "-12.5e2" (-1250.) v
  | _ -> Alcotest.fail "number");
  (match sjson_ok "[1, 2, [3]]" with
  | Sjson.Arr [ Sjson.Num _; Sjson.Num _; Sjson.Arr [ Sjson.Num _ ] ] -> ()
  | _ -> Alcotest.fail "array");
  (match sjson_ok "{\"a\": {\"b\": false}}" with
  | Sjson.Obj [ ("a", Sjson.Obj [ ("b", Sjson.Bool false) ]) ] -> ()
  | _ -> Alcotest.fail "object");
  (* overflowing literals are kept as infinity: the protocol layer, not
     the reader, owns the finiteness policy *)
  (match sjson_ok "1e999" with
  | Sjson.Num v -> check Alcotest.bool "1e999 -> inf" true (Float.equal v Float.infinity)
  | _ -> Alcotest.fail "1e999")

let test_sjson_strings () =
  (match sjson_ok "\"a\\u0041\\n\\\\\"" with
  | Sjson.Str s -> check Alcotest.string "escapes" "aA\n\\" s
  | _ -> Alcotest.fail "escapes");
  (* surrogate pair: U+1F600 encodes to four UTF-8 bytes *)
  (match sjson_ok "\"\\ud83d\\ude00\"" with
  | Sjson.Str s -> check Alcotest.int "surrogate pair utf8 length" 4 (String.length s)
  | _ -> Alcotest.fail "surrogate")

let test_sjson_member () =
  let j = sjson_ok "{\"k\": 1, \"k\": 2}" in
  match Sjson.member "k" j with
  | Some (Sjson.Num v) -> check (Alcotest.float 0.) "first binding wins" 1. v
  | _ -> Alcotest.fail "member"

let test_sjson_rejects () =
  List.iter
    (fun s ->
      match Sjson.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "Sjson accepted %S" s)
    [
      "";
      "{";
      "[1,";
      "01";
      "1.";
      "-";
      "+1";
      "0x1";
      "nan";
      "NaN";
      "Infinity";
      "tru";
      "\"ab";
      "\"\\q\"";
      "{\"a\":1,}";
      "[1 2]";
      "1 2";
      "{}x";
      String.make 80 '[' ^ String.make 80 ']' (* past max_depth *);
    ]

(* The exact error text, byte offsets included, of a malformed corpus:
   loadgen's five kinds (three are valid JSON and fail only in the
   protocol), broken strings, escapes and surrogates, raw control
   bytes, number-grammar violations, nesting past the depth bound,
   trailing garbage and empty input.  Clients and logs see these
   strings, so they must not drift. *)
let sjson_error_corpus =
  let nest open_ close n = String.concat "" (List.init n (fun _ -> open_)) ^ close n in
  [
    ("{\"op\":\"admit\",\"h\":5", "expected ',' or '}' at byte 19");
    ("{\"op\":\"nonsense\"}", "ok");
    ("{\"op\":\"admit\",\"h\":\"five\",\"u0\":0.1,\"uc\":0.1,\"deadline\":50}", "ok");
    ("{\"op\":\"admit\",\"h\":5,\"u0\":1e999,\"uc\":0.1,\"deadline\":50}", "ok");
    ("not json at all", "expected 'u', found 'o' at byte 1");
    ("\"ab", "unterminated string at byte 3");
    ("{\"a", "unterminated string at byte 3");
    ("{\"op\":\"adm", "unterminated string at byte 10");
    ("\"ab\\", "unterminated escape at byte 4");
    ("\"\\q\"", "bad escape character at byte 3");
    ("\"\\u12", "bad \\u escape at byte 5");
    ("\"\\u12G4\"", "bad \\u escape at byte 5");
    ("\"\\ud83d\\ude00\"", "ok");
    ("\"\\ud83d\"", "expected '\\', found '\"' at byte 7");
    ("\"\\ud83dx\"", "expected '\\', found 'x' at byte 7");
    ("\"\\ud83d\\u0041\"", "unpaired surrogate at byte 13");
    ("\"\\ude00\"", "unpaired surrogate at byte 7");
    ("\"\\ud83d\\", "expected 'u', found end of input at byte 8");
    ("\"a\nb\"", "raw control character in string at byte 2");
    ("\"\001\"", "raw control character in string at byte 1");
    ("\"\000\"", "raw control character in string at byte 1");
    ("\000", "unexpected character '\000' at byte 0");
    ("\"tab\there\"", "raw control character in string at byte 4");
    ("{\"k\001\":1}", "raw control character in string at byte 3");
    ("-", "malformed number at byte 1");
    ("01", "trailing garbage at byte 1");
    ("1.", "malformed number: no digits after '.' at byte 2");
    ("1e", "malformed number: empty exponent at byte 2");
    ("1e+", "malformed number: empty exponent at byte 3");
    ("-01", "trailing garbage at byte 2");
    (".5", "unexpected character '.' at byte 0");
    ("+1", "unexpected character '+' at byte 0");
    ("0x1", "trailing garbage at byte 1");
    ("1.e5", "malformed number: no digits after '.' at byte 2");
    ("-a", "malformed number at byte 1");
    ("[1.]", "malformed number: no digits after '.' at byte 3");
    ("{\"h\":1e}", "malformed number: empty exponent at byte 7");
    (nest "[" (fun n -> String.make n ']') 64, "ok");
    (nest "[" (fun n -> String.make n ']') 65, "nesting too deep at byte 64");
    (nest "{\"a\":" (fun n -> "1" ^ String.make n '}') 65, "nesting too deep at byte 320");
    ("{}x", "trailing garbage at byte 2");
    ("1 2", "trailing garbage at byte 2");
    ("[1] ]", "trailing garbage at byte 4");
    ("true false", "trailing garbage at byte 5");
    ("{\"op\":\"admit\"} {", "trailing garbage at byte 15");
    ("", "unexpected end of input at byte 0");
    ("   ", "unexpected end of input at byte 3");
    ("tru", "expected 'e', found end of input at byte 3");
    ("nul", "expected 'l', found end of input at byte 3");
    ("{\"a\" 1}", "expected ':', found '1' at byte 5");
    ("{\"a\":1,}", "expected '\"', found '}' at byte 7");
    ("[1,]", "unexpected character ']' at byte 3");
    ("[1 2]", "expected ',' or ']' at byte 3");
    ("{1:2}", "expected '\"', found '1' at byte 1");
    ("nan", "expected 'u', found 'a' at byte 1");
    ("Infinity", "unexpected character 'I' at byte 0");
    ("[", "unexpected end of input at byte 1");
    ("{", "expected '\"', found end of input at byte 1");
    ("{\"a\":", "unexpected end of input at byte 5");
  ]

let test_sjson_error_text () =
  List.iter
    (fun (line, want) ->
      let got = match Sjson.parse line with Ok _ -> "ok" | Error m -> m in
      check Alcotest.string (String.escaped line) want got)
    sjson_error_corpus

(* A random byte string, written as a JSON literal with each byte
   either raw (where JSON allows it), as its short escape or as \u00XX,
   and with random code points spliced in as \u escapes (surrogate
   pairs above the BMP): it must decode to exactly the bytes meant. *)
let gen_escaped_string =
  QCheck.Gen.(
    let piece =
      oneof
        [
          map
            (fun (c, how) ->
              let raw = String.make 1 c in
              let lit =
                match (c, how mod 3) with
                | '"', 0 -> "\\\""
                | '\\', 0 -> "\\\\"
                | '\n', 0 -> "\\n"
                | '\t', 0 -> "\\t"
                | '/', 0 -> "\\/"
                | '\b', 0 -> "\\b"
                | '\012', 0 -> "\\f"
                | '\r', 0 -> "\\r"
                | c, 1 when Char.code c < 0x80 -> Printf.sprintf "\\u%04X" (Char.code c)
                | c, _ when Char.code c < 0x20 || c = '"' || c = '\\' ->
                  Printf.sprintf "\\u%04x" (Char.code c)
                | c, _ -> String.make 1 c
              in
              (raw, lit))
            (pair (map Char.chr (int_bound 255)) (int_bound 2));
          map
            (fun cp ->
              let cp = if cp >= 0xD800 && cp <= 0xDFFF then cp + 0x800 else cp in
              let b = Buffer.create 4 in
              Buffer.add_utf_8_uchar b (Uchar.of_int cp);
              let lit =
                if cp < 0x10000 then Printf.sprintf "\\u%04x" cp
                else
                  let v = cp - 0x10000 in
                  Printf.sprintf "\\u%04X\\u%04x" (0xD800 lor (v lsr 10)) (0xDC00 lor (v land 0x3FF))
              in
              (Buffer.contents b, lit))
            (int_bound 0x10FFFF);
        ]
    in
    map
      (fun ps -> (String.concat "" (List.map fst ps), "\"" ^ String.concat "" (List.map snd ps) ^ "\""))
      (list_size (int_bound 24) piece))

let prop_sjson_escapes =
  QCheck.Test.make ~name:"sjson decodes random escapes to the bytes meant" ~count:(Qc.count 500)
    (QCheck.make ~print:(fun (v, lit) -> String.escaped v ^ " <- " ^ lit) gen_escaped_string)
    (fun (value, lit) ->
      match Sjson.parse lit with
      | Ok (Sjson.Str s) -> String.equal s value
      | Ok _ | Error _ -> false)

(* ---------------- protocol ---------------- *)

let admit_line = "{\"op\":\"admit\",\"id\":\"q\",\"h\":4,\"u0\":0.2,\"uc\":0.1,\"deadline\":25}"

let test_protocol_admit_defaults () =
  let id, r = P.parse ~debug_ops:false admit_line in
  check Alcotest.(option string) "id" (Some "q") id;
  match r with
  | Ok (P.Admit p) ->
    check Alcotest.int "h" 4 p.P.h;
    check (Alcotest.float 1e-15) "eps default" 1e-9 p.P.epsilon;
    check (Alcotest.float 0.) "deadline" 25. p.P.deadline;
    (match p.P.scheduler with P.Fifo -> () | _ -> Alcotest.fail "fifo default");
    check Alcotest.bool "no budget" true (p.P.budget_ms = None)
  | _ -> Alcotest.fail "expected admit"

let test_protocol_numeric_id () =
  let id, _ = P.parse ~debug_ops:false "{\"op\":\"health\",\"id\":7}" in
  check Alcotest.(option string) "integral id" (Some "7") id

let test_protocol_edf () =
  match P.parse ~debug_ops:false
          "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":9,\"sched\":\"edf\",\"edf_ratio\":4}"
  with
  | _, Ok (P.Admit { P.scheduler = P.Edf { cross_over_through }; _ }) ->
    check (Alcotest.float 0.) "edf ratio" 4. cross_over_through
  | _ -> Alcotest.fail "expected EDF admit"

let expect_error ?(debug_ops = false) name kind line =
  match P.parse ~debug_ops line with
  | _, Error e ->
    check Alcotest.string name (P.error_code kind) (P.error_code e.P.kind)
  | _, Ok _ -> Alcotest.failf "%s: %S was accepted" name line

let test_protocol_validation () =
  expect_error "not json" P.Parse_error "][";
  expect_error "missing op" P.Invalid_request "{}";
  expect_error "non-object" P.Invalid_request "null";
  expect_error "unknown op" P.Invalid_request "{\"op\":\"frob\"}";
  expect_error "op not a string" P.Invalid_request "{\"op\":3}";
  expect_error "missing h" P.Invalid_request "{\"op\":\"admit\",\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
  expect_error "fractional h" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2.5,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
  expect_error "h out of range" P.Invalid_request
    "{\"op\":\"admit\",\"h\":0,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
  expect_error "u0 out of range" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":1.5,\"uc\":0.1,\"deadline\":5}";
  expect_error "u0 overflows to inf" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":1e999,\"uc\":0.1,\"deadline\":5}";
  expect_error "missing deadline" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1}";
  expect_error "bad eps" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":5,\"eps\":2}";
  expect_error "bad scheduler" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":5,\"sched\":\"wfq\"}";
  expect_error "bad budget" P.Invalid_request
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.1,\"uc\":0.1,\"deadline\":5,\"budget_ms\":0}";
  expect_error "unstable load" P.Unstable
    "{\"op\":\"admit\",\"h\":2,\"u0\":0.6,\"uc\":0.5,\"deadline\":5}";
  expect_error "debug op gated off" P.Invalid_request "{\"op\":\"debug-fail\"}";
  (* check works without a deadline — it validates shape, not admission *)
  (match P.parse ~debug_ops:false "{\"op\":\"check\",\"h\":2,\"u0\":0.1,\"uc\":0.1}" with
  | _, Ok (P.Check _) -> ()
  | _ -> Alcotest.fail "check without deadline");
  match P.parse ~debug_ops:false ~max_bytes:64 (String.make 65 'a') with
  | _, Error { P.kind = P.Invalid_request; _ } -> ()
  | _ -> Alcotest.fail "oversized line"

let test_protocol_exit_hints () =
  List.iter
    (fun (kind, hint) -> check Alcotest.int (P.error_code kind) hint (P.exit_hint kind))
    [
      (P.Parse_error, 2);
      (P.Invalid_request, 2);
      (P.Unstable, 3);
      (P.Contract_violation, 1);
      (P.Overloaded, 1);
      (P.Deadline_exceeded, 1);
      (P.Internal, 1);
    ]

let test_protocol_render_round_trip () =
  (* every renderer's output must be readable by the protocol's own
     parser — the daemon's output is somebody else's input *)
  let r1 =
    P.render_admit ~id:"a" ~admitted:true ~bound_ms:3.5 ~deadline_ms:10. ~mode:P.Exact
      ~cache_hit:false ~elapsed_ms:0.2 ()
  in
  let j1 = parse_resp r1 in
  check Alcotest.string "status" "ok" (str_field j1 "status");
  check Alcotest.string "mode" "exact" (str_field j1 "mode");
  check (Alcotest.float 1e-9) "bound" 3.5 (num_field j1 "bound_ms");
  let j2 = parse_resp (P.render_error ~id:"e\"scape" ~kind:P.Parse_error ~detail:"bad \"quote\"" ()) in
  check Alcotest.string "escaped id" "e\"scape" (str_field j2 "id");
  check Alcotest.string "code" "parse-error" (str_field j2 "code");
  check (Alcotest.float 0.) "hint" 2. (num_field j2 "exit_hint");
  let j3 = parse_resp (P.render_shed ~retry_after_ms:7.5 ()) in
  check Alcotest.string "shed status" "shed" (str_field j3 "status");
  check (Alcotest.float 0.) "retry hint" 7.5 (num_field j3 "retry_after_ms");
  let j4 = parse_resp (P.render_timeout ~elapsed_ms:12. ~budget_ms:10. ()) in
  check Alcotest.string "timeout status" "timeout" (str_field j4 "status");
  let j5 =
    parse_resp
      (P.render_stats ~trace:"t-1" ~uptime_s:1. ~served:3 ~cache_len:2
         ~cache_capacity:8 ~cache_hits:3 ~cache_misses:1 ~shed:2 ~timeouts:1
         ~errors:4 ~counters:[ ("serve.requests", 3) ] ())
  in
  check (Alcotest.float 0.) "served" 3. (num_field j5 "served");
  check (Alcotest.float 1e-9) "hit ratio" 0.75 (num_field j5 "cache_hit_ratio");
  check (Alcotest.float 0.) "shed count" 2. (num_field j5 "shed");
  check Alcotest.string "trace echoed" "t-1" (str_field j5 "trace");
  match Sjson.member "counters" j5 with
  | Some (Sjson.Obj [ ("serve.requests", Sjson.Num 3.) ]) -> ()
  | _ -> Alcotest.fail "stats counters object"

(* Every renderer against the list-and-concatenation one it replaced
   (test/oracle): random floats including NaN, the infinities, -0.0,
   subnormals and integers; ids, details and keys with quotes,
   backslashes, control bytes and non-ASCII bytes; with and without the
   id and trace fields. *)
let gen_render_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 50.; 1e16; 1e17; 5e-324;
            Float.min_float; Float.max_float; 0.1; 1. /. 3. ];
        map Int64.float_of_bits ui64;
        map float_of_int (int_range (-100_000) 100_000);
        float_range (-1e3) 1e3;
        map (fun x -> x *. 1e-310) (float_bound_inclusive 1.);
      ])

let gen_render_text =
  QCheck.Gen.(
    string_size ~gen:(oneof [ map Char.chr (int_bound 255); oneofl [ '"'; '\\'; '\n'; '\000'; 'a' ] ])
      (int_bound 16))

type render_case = {
  r_id : string option;
  r_trace : string option;
  r_text : string;
  r_texts : string list;
  r_floats : float array;
  r_ints : int array;
  r_bools : bool array;
  r_kind : P.error_kind;
  r_counters : (string * int) list;
}

let gen_render_case =
  QCheck.Gen.(
    let* r_id = opt gen_render_text in
    let* r_trace = opt gen_render_text in
    let* r_text = gen_render_text in
    let* r_texts = list_size (int_bound 4) gen_render_text in
    let* r_floats = array_repeat 3 gen_render_float in
    let* r_ints = array_repeat 9 (int_range (-1_000_000) 1_000_000) in
    let* r_bools = array_repeat 3 bool in
    let* r_kind =
      oneofl
        [ P.Parse_error; P.Invalid_request; P.Unstable; P.Contract_violation; P.Overloaded;
          P.Deadline_exceeded; P.Internal ]
    in
    let+ r_counters = list_size (int_bound 4) (pair gen_render_text small_signed_int) in
    { r_id; r_trace; r_text; r_texts; r_floats; r_ints; r_bools; r_kind; r_counters })

module type RENDER = module type of Oracle.Render

let renders (module R : RENDER) c =
  let id = c.r_id and trace = c.r_trace and f = c.r_floats and n = c.r_ints in
  [
    R.render_admit ?id ?trace ~admitted:c.r_bools.(0) ~bound_ms:f.(0) ~deadline_ms:f.(1)
      ~mode:(if c.r_bools.(1) then P.Exact else P.Approx) ~cache_hit:c.r_bools.(2)
      ~elapsed_ms:f.(2) ();
    R.render_check ?id ?trace ~findings:c.r_texts ();
    R.render_error ?id ?trace ~kind:c.r_kind ~detail:c.r_text ();
    R.render_shed ?id ?trace ~retry_after_ms:f.(0) ();
    R.render_timeout ?id ?trace ~elapsed_ms:f.(1) ~budget_ms:f.(2) ();
    R.render_stats ?id ?trace ~uptime_s:f.(0) ~served:n.(0) ~cache_len:n.(1)
      ~cache_capacity:n.(2) ~cache_hits:(abs n.(3)) ~cache_misses:(abs n.(4)) ~shed:n.(5)
      ~timeouts:n.(6) ~errors:n.(7) ~counters:c.r_counters ();
    R.render_health ?id ?trace ~uptime_s:f.(1) ();
    R.render_metrics ?id ?trace ~prometheus:c.r_text ();
  ]

let prop_render_matches_oracle =
  QCheck.Test.make ~name:"protocol renders match the reference byte for byte"
    ~count:(Qc.count 500)
    (QCheck.make gen_render_case)
    (fun c ->
      List.for_all2 String.equal (renders (module P : RENDER) c) (renders (module Oracle.Render) c))

(* ---------------- cache ---------------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  (* touching a makes b the LRU, so inserting c evicts b *)
  check Alcotest.(option int) "hit a" (Some 1) (Cache.find c "a");
  Cache.put c "c" 3;
  check Alcotest.int "bounded" 2 (Cache.length c);
  check Alcotest.(option int) "a survives" (Some 1) (Cache.find c "a");
  check Alcotest.(option int) "b evicted" None (Cache.find c "b");
  (* overwrite refreshes without growing *)
  Cache.put c "a" 10;
  check Alcotest.int "overwrite keeps length" 2 (Cache.length c);
  check Alcotest.(option int) "overwritten" (Some 10) (Cache.find c "a")

let test_cache_mem_no_refresh () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  check Alcotest.bool "mem a" true (Cache.mem c "a");
  (* mem did not refresh a, so a is still the LRU and gets evicted *)
  Cache.put c "c" 3;
  check Alcotest.bool "a evicted" false (Cache.mem c "a");
  check Alcotest.bool "b kept" true (Cache.mem c "b")

let test_cache_validation () =
  raises_invalid "capacity 0" (fun () -> Cache.create ~capacity:0)

let test_cache_soak () =
  (* the daemon's memory bound at unit level: 10^4 distinct keys through a
     small cache never grow it past capacity *)
  let c = Cache.create ~capacity:64 in
  for i = 0 to 9_999 do
    let key = Printf.sprintf "shape-%d" i in
    (match Cache.find c key with Some _ -> () | None -> Cache.put c key i);
    if Cache.length c > 64 then Alcotest.failf "cache grew past capacity at %d" i
  done;
  check Alcotest.int "cache pinned at capacity" 64 (Cache.length c)

(* ---------------- engine ---------------- *)

let mk_engine ?(cfg = Engine.default_config) ?(clock = const_clock 0.) () =
  Engine.create ~now:clock cfg

let admit_req ?(extra = "") ~id ~u0 () =
  Printf.sprintf "{\"op\":\"admit\",\"id\":%S,\"h\":3,\"u0\":%.4f,\"uc\":0.2,\"deadline\":500%s}"
    id u0 extra

let test_engine_validation () =
  raises_invalid "budget" (fun () ->
      mk_engine ~cfg:{ Engine.default_config with Engine.budget_ms = 0. } ());
  raises_invalid "queue" (fun () ->
      mk_engine ~cfg:{ Engine.default_config with Engine.max_queue = 0 } ());
  raises_invalid "degrade ratio" (fun () ->
      mk_engine ~cfg:{ Engine.default_config with Engine.degrade_ratio = 1.5 } ());
  raises_invalid "grids" (fun () ->
      mk_engine ~cfg:{ Engine.default_config with Engine.gamma_points = 1 } ())

let test_engine_admit_and_cache () =
  let e = mk_engine () in
  let j1 = parse_resp (Engine.handle_line e (admit_req ~id:"r1" ~u0:0.3 ())) in
  check Alcotest.string "status" "ok" (str_field j1 "status");
  check Alcotest.string "mode" "exact" (str_field j1 "mode");
  check Alcotest.string "first is a miss" "miss" (str_field j1 "cache");
  check Alcotest.string "id echo" "r1" (str_field j1 "id");
  let j2 = parse_resp (Engine.handle_line e (admit_req ~id:"r2" ~u0:0.3 ())) in
  check Alcotest.string "repeat is a hit" "hit" (str_field j2 "cache");
  check Alcotest.string "hit stays exact" "exact" (str_field j2 "mode");
  check (Alcotest.float 1e-9) "memoized bound is identical"
    (num_field j1 "bound_ms") (num_field j2 "bound_ms");
  check Alcotest.int "one shape cached" 1 (Engine.cache_length e);
  check Alcotest.int "served" 2 (Engine.served e)

(* Cache keys are bit patterns: equal parameters share a key, while
   -0.0 and 0.0, or EDF gaps one ulp apart, do not — the same classes
   as the [%h] text keys they replaced. *)
let test_engine_cache_keys () =
  let base =
    {
      P.h = 4;
      u_through = 0.25;
      u_cross = 0.3;
      epsilon = 1e-9;
      deadline = 50.;
      scheduler = P.Fifo;
      budget_ms = None;
    }
  in
  let key p = Engine.key_of p (Engine.two_class_of p) in
  let same name a b = check Alcotest.bool name true (String.equal a b) in
  let differ name a b = check Alcotest.bool name false (String.equal a b) in
  same "equal parameters, equal keys" (key base) (key { base with P.u_through = 0.5 /. 2. });
  same "deadline and budget are not in a FIFO key" (key base)
    (key { base with P.deadline = 70.; budget_ms = Some 3. });
  differ "-0.0 and 0.0 u0" (key { base with P.u_through = 0. })
    (key { base with P.u_through = -0. });
  differ "u0 one ulp apart" (key base) (key { base with P.u_through = Float.succ 0.25 });
  differ "uc" (key base) (key { base with P.u_cross = 0.31 });
  differ "eps" (key base) (key { base with P.epsilon = 1e-6 });
  differ "h" (key base) (key { base with P.h = 5 });
  differ "scheduler" (key base) (key { base with P.scheduler = P.Bmux });
  let gap g = Engine.key_of base (Scheduler.Classes.Edf_gap g) in
  same "equal gaps" (gap (-45.)) (gap (-90. /. 2.));
  differ "EDF gaps one ulp apart" (gap (-45.)) (gap (Float.succ (-45.)));
  differ "-0.0 and 0.0 gap" (gap 0.) (gap (-0.));
  differ "EDF gap 0 is not FIFO" (gap 0.) (key base);
  (* through the engine: a repeat is a hit, -0.0 gets its own entry *)
  let e = mk_engine () in
  let line u0 = Printf.sprintf "{\"op\":\"admit\",\"h\":3,\"u0\":%s,\"uc\":0.2,\"deadline\":500}" u0 in
  let cache u0 = str_field (parse_resp (Engine.handle_line e (line u0))) "cache" in
  check Alcotest.string "first 0.0" "miss" (cache "0.0");
  check Alcotest.string "0 repeats 0.0" "hit" (cache "0");
  check Alcotest.string "-0.0 is its own shape" "miss" (cache "-0.0");
  check Alcotest.string "-0.0 repeats" "hit" (cache "-0");
  check Alcotest.int "two entries" 2 (Engine.cache_length e)

let test_engine_degrade_and_soundness () =
  let e = mk_engine () in
  (* a 1 ms budget cannot fit the predicted exact cost: the request
     degrades to the cached-kernel approx bound *)
  let ja =
    parse_resp (Engine.handle_line e (admit_req ~id:"a" ~u0:0.31 ~extra:",\"budget_ms\":1" ()))
  in
  check Alcotest.string "degraded mode" "approx" (str_field ja "mode");
  let b_approx = num_field ja "bound_ms" in
  (* same shape with the full budget: exact optimization *)
  let je = parse_resp (Engine.handle_line e (admit_req ~id:"b" ~u0:0.31 ())) in
  check Alcotest.string "exact mode" "exact" (str_field je "mode");
  let b_exact = num_field je "bound_ms" in
  check Alcotest.bool "both finite" true
    (Float.is_finite b_approx && Float.is_finite b_exact && b_exact > 0.);
  (* soundness of the ladder: the degraded answer is never tighter *)
  check Alcotest.bool
    (Printf.sprintf "approx (%g) >= exact (%g)" b_approx b_exact)
    true
    (b_approx >= b_exact *. 0.999)

let test_engine_shed () =
  let cfg = { Engine.default_config with Engine.max_queue = 1 } in
  let e = mk_engine ~cfg () in
  match
    Engine.handle_batch e
      [ admit_req ~id:"one" ~u0:0.30 (); admit_req ~id:"two" ~u0:0.35 () ]
  with
  | [ r1; r2 ] ->
    check Alcotest.string "first served" "ok" (str_field (parse_resp r1) "status");
    let j2 = parse_resp r2 in
    check Alcotest.string "second shed" "shed" (str_field j2 "status");
    check Alcotest.string "shed id" "two" (str_field j2 "id");
    check Alcotest.bool "retry hint positive" true (num_field j2 "retry_after_ms" > 0.)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

let test_engine_timeout_warms_cache () =
  (* clock script: create, batch start, plan, exact-phase start/end (the
     per-job service-time sample), then 1 s elapsed at render time — the
     exact compute blows its 250 ms budget *)
  let e = mk_engine ~clock:(queue_clock [ 0.; 0.; 0.; 0.; 0.; 1. ]) () in
  let j1 = parse_resp (Engine.handle_line e (admit_req ~id:"t1" ~u0:0.3 ())) in
  check Alcotest.string "timeout status" "timeout" (str_field j1 "status");
  check Alcotest.string "timeout code" "deadline-exceeded" (str_field j1 "code");
  check (Alcotest.float 1e-6) "elapsed" 1000. (num_field j1 "elapsed_ms");
  (* the timed-out bound was still memoized: the retry is a free hit *)
  let j2 = parse_resp (Engine.handle_line e (admit_req ~id:"t2" ~u0:0.3 ())) in
  check Alcotest.string "retry ok" "ok" (str_field j2 "status");
  check Alcotest.string "retry is a hit" "hit" (str_field j2 "cache")

let test_engine_supervision () =
  let cfg = { Engine.default_config with Engine.debug_ops = true } in
  let e = mk_engine ~cfg () in
  match
    Engine.handle_batch e
      [ "{\"op\":\"debug-fail\",\"id\":\"poison\"}"; admit_req ~id:"ok" ~u0:0.3 () ]
  with
  | [ r1; r2 ] ->
    let j1 = parse_resp r1 in
    check Alcotest.string "poison isolated" "error" (str_field j1 "status");
    check Alcotest.string "internal code" "internal" (str_field j1 "code");
    check Alcotest.string "poison id" "poison" (str_field j1 "id");
    let j2 = parse_resp r2 in
    check Alcotest.string "neighbour survives" "ok" (str_field j2 "status");
    (* the engine keeps serving after the fault *)
    check Alcotest.string "engine alive" "ok"
      (str_field (parse_resp (Engine.handle_line e (admit_req ~id:"after" ~u0:0.3 ()))) "status")
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

let test_engine_batch_order () =
  let e = mk_engine () in
  let lines =
    [
      "{\"op\":\"health\",\"id\":1}";
      "{\"op\":\"stats\",\"id\":\"s\"}";
      "{\"op\":\"admit\",\"id\":\"bad\",\"h\":0,\"u0\":0.1,\"uc\":0.1,\"deadline\":5}";
      "{\"op\":\"admit\",\"id\":\"hot\",\"h\":5,\"u0\":0.6,\"uc\":0.5,\"deadline\":5}";
      admit_req ~id:"fine" ~u0:0.2 ();
    ]
  in
  let rs = Engine.handle_batch e lines in
  check Alcotest.int "arity" (List.length lines) (List.length rs);
  let js = List.map parse_resp rs in
  (* responses come back in request order with ids intact — the stats
     response is the one op that does not echo an id *)
  List.iter
    (fun (i, id) -> check Alcotest.string ("id at " ^ string_of_int i) id (str_field (List.nth js i) "id"))
    [ (0, "1"); (2, "bad"); (3, "hot"); (4, "fine") ];
  check Alcotest.string "stats in place" "stats" (str_field (List.nth js 1) "op");
  let j3 = List.nth js 2 in
  check Alcotest.string "invalid typed" "invalid-request" (str_field j3 "code");
  let j4 = parse_resp (List.nth rs 3) in
  check Alcotest.string "unstable typed" "unstable" (str_field j4 "code");
  check (Alcotest.float 0.) "unstable exit hint" 3. (num_field j4 "exit_hint")

let test_engine_soak () =
  (* 10^4 distinct shapes through a 32-entry cache on the degraded path:
     memory stays bounded and every response is structured *)
  let cfg = { Engine.default_config with Engine.cache_entries = 32 } in
  let e = mk_engine ~cfg () in
  let last = ref "" in
  for i = 0 to 9_999 do
    let u0 = 0.05 +. (0.85 *. float_of_int i /. 10_000.) in
    let line =
      Printf.sprintf
        "{\"op\":\"admit\",\"h\":2,\"u0\":%.6f,\"uc\":0.05,\"deadline\":100,\"budget_ms\":1}" u0
    in
    last := Engine.handle_line e line;
    if Engine.cache_length e > 32 then Alcotest.failf "cache grew past capacity at %d" i
  done;
  check Alcotest.int "cache bounded over soak" 32 (Engine.cache_length e);
  check Alcotest.int "all served" 10_000 (Engine.served e);
  let j = parse_resp !last in
  check Alcotest.string "soak tail ok" "ok" (str_field j "status");
  check Alcotest.string "soak runs degraded" "approx" (str_field j "mode")

(* ---------------- fuzz ---------------- *)

let valid_base = "{\"op\":\"admit\",\"id\":\"x\",\"h\":3,\"u0\":0.30,\"uc\":0.20,\"deadline\":50}"

let gen_fuzz_line =
  QCheck.Gen.(
    oneof
      [
        (* arbitrary printable bytes *)
        string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 200);
        (* json-ish soup: braces, digits, quotes, escapes *)
        (let alphabet = "{}[]\",:0123456789eE+-.truefalsenul\\ " in
         map
           (fun cs -> String.concat "" (List.map (String.make 1) cs))
           (list_size (int_bound 120)
              (map (String.get alphabet) (int_bound (String.length alphabet - 1)))));
        (* single-byte mutations of a valid request *)
        map2
          (fun pos c ->
            let b = Bytes.of_string valid_base in
            Bytes.set b (pos mod Bytes.length b) c;
            Bytes.to_string b)
          (int_bound 10_000)
          (map Char.chr (int_range 32 126));
        (* truncations of a valid request *)
        map (fun n -> String.sub valid_base 0 (n mod String.length valid_base)) (int_bound 10_000);
      ])

let arb_fuzz = QCheck.make ~print:String.escaped gen_fuzz_line

let prop_protocol_total =
  QCheck.Test.make ~name:"protocol parse is total and typed" ~count:(Qc.count 500) arb_fuzz
    (fun line ->
      match P.parse ~debug_ops:false line with
      | _, Ok _ -> true
      | _, Error { P.kind; _ } -> List.mem (P.exit_hint kind) [ 1; 2; 3 ])

let prop_sjson_total =
  QCheck.Test.make ~name:"sjson parse is total" ~count:(Qc.count 500) arb_fuzz (fun line ->
      match Sjson.parse line with Ok _ | Error _ -> true)

let fuzz_engine = lazy (mk_engine ())

let prop_engine_structured =
  QCheck.Test.make ~name:"engine answers any line with structured JSON" ~count:(Qc.count 150)
    arb_fuzz (fun line ->
      let e = Lazy.force fuzz_engine in
      match Sjson.parse (Engine.handle_line e line) with
      | Error _ -> false
      | Ok j -> (
        match Sjson.member "status" j with
        | Some (Sjson.Str s) -> List.mem s [ "ok"; "error"; "shed"; "timeout" ]
        | _ -> false))

let test_engine_nasty_corpus () =
  let e = mk_engine () in
  let expect code line =
    let j = parse_resp (Engine.handle_line e line) in
    check Alcotest.string (Printf.sprintf "%S -> %s" (String.sub line 0 (min 40 (String.length line))) code)
      code (str_field j "code")
  in
  expect "parse-error" "";
  expect "parse-error" "{";
  expect "parse-error" "{\"op\":\"admit\",\"h\":5";
  expect "parse-error" "not json at all";
  expect "parse-error" "{\"op\":\"admit\",\"h\":NaN}";
  expect "parse-error" (String.make 100 '[');
  expect "invalid-request" "null";
  expect "invalid-request" "42";
  expect "invalid-request" "{\"op\":\"admit\",\"h\":5,\"u0\":1e999,\"uc\":0.1,\"deadline\":10}";
  expect "invalid-request" "{\"op\":\"admit\",\"h\":5,\"u0\":-0.1,\"uc\":0.1,\"deadline\":10}";
  expect "invalid-request" "{\"op\":\"admit\",\"h\":5,\"u0\":0.1,\"uc\":0.1}";
  expect "invalid-request" "{\"op\":\"debug-fail\"}";
  expect "invalid-request" (String.make 70_000 'a');
  expect "unstable" "{\"op\":\"admit\",\"h\":5,\"u0\":0.6,\"uc\":0.5,\"deadline\":10}"

(* ---------------- daemon round trip ---------------- *)

let read_all ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let test_daemon_round_trip () =
  (* the test binary runs in _build/default/test; the CLI is a declared
     dep one directory over *)
  let cli = Filename.concat Filename.parent_dir_name "bin/deltanet_cli.exe" in
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let cmd = Printf.sprintf "%s serve 2>/dev/null" (Filename.quote cli) in
    let ic, oc = Unix.open_process cmd in
    let send l =
      output_string oc l;
      output_char oc '\n'
    in
    send "{\"op\":\"health\",\"id\":\"h1\"}";
    send "{\"op\":\"admit\",\"id\":\"a1\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":500}";
    send "{\"op\":\"admit\",\"id\":\"a2\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":500}";
    send "this is not json";
    send "{\"op\":\"check\",\"id\":\"c1\",\"h\":3,\"u0\":0.3,\"uc\":0.2}";
    close_out oc;
    let lines = read_all ic in
    let status = Unix.close_process (ic, oc) in
    check Alcotest.int "daemon exits 0"
      0
      (match status with Unix.WEXITED n -> n | _ -> -1);
    (* five responses in request order, then the drain stats line *)
    check Alcotest.int "responses + drain stats" 6 (List.length lines);
    let js = List.map parse_resp lines in
    let nth = List.nth js in
    check Alcotest.string "health" "ok" (str_field (nth 0) "status");
    check Alcotest.string "health id" "h1" (str_field (nth 0) "id");
    check Alcotest.string "admit a1" "admit" (str_field (nth 1) "op");
    check Alcotest.string "a2 correlated" "a2" (str_field (nth 2) "id");
    check Alcotest.string "a2 is a cache hit" "hit" (str_field (nth 2) "cache");
    check Alcotest.string "garbage typed" "parse-error" (str_field (nth 3) "code");
    check Alcotest.string "check answered" "check" (str_field (nth 4) "op");
    check Alcotest.string "drain stats" "stats" (str_field (nth 5) "op");
    check Alcotest.bool "stats counted the burst" true (num_field (nth 5) "served" >= 5.)
  end

let test_daemon_burst_no_loss () =
  (* regression: a sustained burst whose buffered size passes the 2x
     line-bound cap (here ~260 KB of valid lines) must answer every
     request — the cap applies to the trailing partial line, never to
     complete buffered lines — and one multi-read oversized line must
     come back as exactly one typed error *)
  let cli = Filename.concat Filename.parent_dir_name "bin/deltanet_cli.exe" in
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let out = Filename.temp_file "serve-burst" ".jsonl" in
    let cmd =
      Printf.sprintf "%s serve > %s 2>/dev/null" (Filename.quote cli) (Filename.quote out)
    in
    let oc = Unix.open_process_out cmd in
    let n = 3_000 in
    for i = 1 to n do
      Printf.fprintf oc
        "{\"op\":\"admit\",\"id\":\"b%d\",\"h\":3,\"u0\":0.3,\"uc\":0.2,\"deadline\":500}\n" i
    done;
    (* one 200 KB line: larger than the cap, so it is discarded across
       several reads — the client must still see exactly one response *)
    output_string oc (String.make 200_000 'x');
    output_char oc '\n';
    output_string oc "{\"op\":\"health\",\"id\":\"tail\"}\n";
    let status = Unix.close_process_out oc in
    check Alcotest.int "daemon exits 0" 0
      (match status with Unix.WEXITED n -> n | _ -> -1);
    let ic = open_in out in
    let lines = read_all ic in
    close_in ic;
    Sys.remove out;
    let js = List.map parse_resp lines in
    (* n admits + 1 oversized error + 1 health + the drain stats line *)
    check Alcotest.int "one response per request" (n + 3) (List.length js);
    let count pred = List.length (List.filter pred js) in
    let has_field j k v =
      match Sjson.member k j with Some (Sjson.Str s) -> String.equal s v | _ -> false
    in
    check Alcotest.int "exactly one oversized error" 1
      (count (fun j -> has_field j "status" "error"));
    check Alcotest.int "nothing shed" 0 (count (fun j -> has_field j "status" "shed"));
    let stats = List.nth js (List.length js - 1) in
    check Alcotest.string "drain stats" "stats" (str_field stats "op");
    (* the oversized line is either discarded before parsing (never
       reaches the engine: n + 1 served) or — when its newline lands in
       the same read burst — extracted complete and rejected by the
       protocol's max_bytes check (n + 2 served); both are one typed
       error for one request *)
    let served = num_field stats "served" in
    check Alcotest.bool
      (Printf.sprintf "served %g within [n+1, n+2]" served)
      true
      (served >= float_of_int (n + 1) && served <= float_of_int (n + 2))
  end

(* ---------------- observability: metrics verb, trace ids, SLO tallies ---------------- *)

let test_engine_metrics_and_trace () =
  let e = mk_engine () in
  let j = parse_resp (Engine.handle_line e "{\"op\":\"metrics\",\"id\":\"m1\"}") in
  check Alcotest.string "metrics op" "metrics" (str_field j "op");
  check Alcotest.string "status ok" "ok" (str_field j "status");
  check Alcotest.string "id echo" "m1" (str_field j "id");
  (* the exposition rides inside the response; registry may be quiet but
     the field must exist *)
  ignore (str_field j "prometheus");
  let t0 = str_field j "trace" in
  let j2 = parse_resp (Engine.handle_line e (admit_req ~id:"r1" ~u0:0.3 ())) in
  let t1 = str_field j2 "trace" in
  check Alcotest.bool "trace ids non-empty" true
    (String.length t0 > 0 && String.length t1 > 0);
  check Alcotest.bool "trace ids unique per request" true
    (not (String.equal t0 t1))

let test_engine_slo_telemetry () =
  Telemetry.reset ();
  let events = ref [] in
  let sink =
    Telemetry.Sink.make
      ~emit:(fun ev -> events := ev :: !events)
      ~flush:(fun () -> ())
  in
  Telemetry.configure ~sink ();
  Fun.protect ~finally:Telemetry.shutdown (fun () ->
      let e = mk_engine () in
      ignore (Engine.handle_line e (admit_req ~id:"r1" ~u0:0.3 ()));
      Telemetry.flush ();
      let snap = Telemetry.snapshot () in
      check Alcotest.bool "outcome-labelled latency histogram recorded" true
        (List.exists
           (fun (n, hv) ->
             String.equal n "serve.request_latency_ms{outcome=exact}"
             && hv.Telemetry.h_count = 1)
           snap.Telemetry.histograms);
      check Alcotest.bool "access event carries trace + outcome attrs" true
        (List.exists
           (function
             | Telemetry.Sink.Point { name = "serve.access"; attrs; _ } ->
               List.mem_assoc "trace" attrs && List.mem_assoc "outcome" attrs
             | _ -> false)
           !events))

let suite =
  [
    Alcotest.test_case "sjson values" `Quick test_sjson_values;
    Alcotest.test_case "sjson strings" `Quick test_sjson_strings;
    Alcotest.test_case "sjson duplicate keys" `Quick test_sjson_member;
    Alcotest.test_case "sjson rejects" `Quick test_sjson_rejects;
    Alcotest.test_case "sjson error text is pinned" `Quick test_sjson_error_text;
    QCheck_alcotest.to_alcotest prop_sjson_escapes;
    Alcotest.test_case "protocol admit defaults" `Quick test_protocol_admit_defaults;
    Alcotest.test_case "protocol numeric id" `Quick test_protocol_numeric_id;
    Alcotest.test_case "protocol edf" `Quick test_protocol_edf;
    Alcotest.test_case "protocol validation" `Quick test_protocol_validation;
    Alcotest.test_case "protocol exit hints" `Quick test_protocol_exit_hints;
    Alcotest.test_case "protocol render round trip" `Quick test_protocol_render_round_trip;
    QCheck_alcotest.to_alcotest prop_render_matches_oracle;
    Alcotest.test_case "cache LRU semantics" `Quick test_cache_lru;
    Alcotest.test_case "cache mem is pure" `Quick test_cache_mem_no_refresh;
    Alcotest.test_case "cache validation" `Quick test_cache_validation;
    Alcotest.test_case "cache bounded soak" `Quick test_cache_soak;
    Alcotest.test_case "engine config validation" `Quick test_engine_validation;
    Alcotest.test_case "engine admit + cache hit" `Quick test_engine_admit_and_cache;
    Alcotest.test_case "engine cache keys are bit patterns" `Quick test_engine_cache_keys;
    Alcotest.test_case "engine degrade soundness" `Quick test_engine_degrade_and_soundness;
    Alcotest.test_case "engine sheds past the queue bound" `Quick test_engine_shed;
    Alcotest.test_case "engine timeout warms the cache" `Quick test_engine_timeout_warms_cache;
    Alcotest.test_case "engine survives a poisoned request" `Quick test_engine_supervision;
    Alcotest.test_case "engine batch order + correlation" `Quick test_engine_batch_order;
    Alcotest.test_case "engine bounded soak (10k shapes)" `Slow test_engine_soak;
    QCheck_alcotest.to_alcotest prop_sjson_total;
    QCheck_alcotest.to_alcotest prop_protocol_total;
    QCheck_alcotest.to_alcotest prop_engine_structured;
    Alcotest.test_case "engine nasty corpus" `Quick test_engine_nasty_corpus;
    Alcotest.test_case "daemon round trip" `Quick test_daemon_round_trip;
    Alcotest.test_case "daemon burst loses nothing past the cap" `Quick
      test_daemon_burst_no_loss;
    Alcotest.test_case "engine metrics verb + per-request trace ids" `Quick
      test_engine_metrics_and_trace;
    Alcotest.test_case "engine records outcome SLO telemetry" `Quick
      test_engine_slo_telemetry;
  ]

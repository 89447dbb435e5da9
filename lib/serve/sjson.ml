(* Recursive-descent JSON reader.  Totality strategy: one internal [Fail]
   exception caught at the single entry point, an explicit depth counter
   against stack exhaustion, and every byte read guarded by a [pos < len]
   test, so out-of-bounds reads become parse errors instead of
   [Invalid_argument].  The scanner allocates only what the tree holds:
   no option per byte, and a string with no escape is one [String.sub]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

type state = { src : string; len : int; mutable pos : int }

let fail st msg = raise (Fail (Printf.sprintf "%s at byte %d" msg st.pos))
let advance st = st.pos <- st.pos + 1
let is_digit c = c >= '0' && c <= '9'

(* [at st c]: the next byte exists and is [c]. *)
let at st c = st.pos < st.len && Char.equal (String.unsafe_get st.src st.pos) c
  [@@zero_alloc_check]

let digit_at st = st.pos < st.len && is_digit (String.unsafe_get st.src st.pos)
  [@@zero_alloc_check]

let skip_digits st = while digit_at st do advance st done [@@zero_alloc_check]

let expect st c =
  if st.pos >= st.len then fail st (Printf.sprintf "expected '%c', found end of input" c)
  else
    let d = st.src.[st.pos] in
    if Char.equal d c then advance st
    else fail st (Printf.sprintf "expected '%c', found '%c'" c d)

let skip_ws st =
  while
    st.pos < st.len
    && match String.unsafe_get st.src st.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    advance st
  done
  [@@zero_alloc_check]

(* literal [true] / [false] / [null] *)
let expect_word st w v =
  for i = 0 to String.length w - 1 do
    expect st w.[i]
  done;
  v

let hex_digit st =
  if st.pos >= st.len then fail st "bad \\u escape"
  else
    match st.src.[st.pos] with
    | '0' .. '9' as c -> advance st; Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> advance st; Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> advance st; Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"

let hex4 st =
  let a = hex_digit st in
  let b = hex_digit st in
  let c = hex_digit st in
  let d = hex_digit st in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The general string reader: escapes decoded into a buffer, and every
   malformed string's error raised at its byte. *)
let parse_escaped_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then fail st "unterminated string"
    else
      match st.src.[st.pos] with
      | '"' -> advance st; Buffer.contents buf
      | '\\' ->
        advance st;
        if st.pos >= st.len then fail st "unterminated escape"
        else begin
          let c = st.src.[st.pos] in
          advance st;
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let cp = hex4 st in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* high surrogate: a low surrogate must follow *)
              expect st '\\';
              expect st 'u';
              let lo = hex4 st in
              if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate"
              else
                add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired surrogate"
            else add_utf8 buf cp
          | _ -> fail st "bad escape character");
          go ()
        end
      | c when Char.code c < 0x20 -> fail st "raw control character in string"
      | c -> advance st; Buffer.add_char buf c; go ()
  in
  go ()

(* The common case: no escape and no control byte before the closing
   quote, so the string is the bytes in between.  Anything else starts
   again at the opening quote on the general reader. *)
let parse_string st =
  let quote = st.pos in
  expect st '"';
  while
    st.pos < st.len
    && match String.unsafe_get st.src st.pos with
       | '"' | '\\' -> false
       | c -> Char.code c >= 0x20
  do
    advance st
  done;
  if at st '"' then begin
    advance st;
    String.sub st.src (quote + 1) (st.pos - quote - 2)
  end
  else begin
    st.pos <- quote;
    parse_escaped_string st
  end

(* JSON number grammar: -? int frac? exp?; the scan enforces the grammar
   shape (so "-", "01", "1." and "0x1" all fail) and [float_of_string]
   does the value conversion.  Overflow to [infinity] is preserved. *)
let parse_number st =
  let start = st.pos in
  if at st '-' then advance st;
  if at st '0' then advance st
  else if digit_at st then skip_digits st
  else fail st "malformed number";
  if at st '.' then begin
    advance st;
    if not (digit_at st) then fail st "malformed number: no digits after '.'";
    skip_digits st
  end;
  if at st 'e' || at st 'E' then begin
    advance st;
    if at st '+' || at st '-' then advance st;
    if not (digit_at st) then fail st "malformed number: empty exponent";
    skip_digits st
  end;
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some v -> v
  | None -> fail st "malformed number"

let rec parse_value st depth =
  if depth <= 0 then fail st "nesting too deep";
  skip_ws st;
  if st.pos >= st.len then fail st "unexpected end of input";
  match st.src.[st.pos] with
  | 't' -> expect_word st "true" (Bool true)
  | 'f' -> expect_word st "false" (Bool false)
  | 'n' -> expect_word st "null" Null
  | '"' -> Str (parse_string st)
  | '[' ->
    advance st;
    skip_ws st;
    if at st ']' then begin
      advance st;
      Arr []
    end
    else items st depth []
  | '{' ->
    advance st;
    skip_ws st;
    if at st '}' then begin
      advance st;
      Obj []
    end
    else fields st depth []
  | '-' | '0' .. '9' -> Num (parse_number st)
  | c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and items st depth acc =
  let v = parse_value st (depth - 1) in
  skip_ws st;
  if at st ',' then begin
    advance st;
    items st depth (v :: acc)
  end
  else if at st ']' then begin
    advance st;
    Arr (List.rev (v :: acc))
  end
  else fail st "expected ',' or ']'"

and fields st depth acc =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  let v = parse_value st (depth - 1) in
  skip_ws st;
  if at st ',' then begin
    advance st;
    fields st depth ((k, v) :: acc)
  end
  else if at st '}' then begin
    advance st;
    Obj (List.rev ((k, v) :: acc))
  end
  else fail st "expected ',' or '}'"

let parse ?(max_depth = 64) src =
  let st = { src; len = String.length src; pos = 0 } in
  match parse_value st max_depth with
  | v ->
    skip_ws st;
    if st.pos <> st.len then Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
    else Ok v
  | exception Fail msg -> Error msg

let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function
  | Obj fields -> assoc key fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (number f)
    | Str s -> escape b s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          l;
        Buffer.add_char b ']'
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            escape b k;
            Buffer.add_char b ':';
            go x)
          l;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

exception Bad of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then bad (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else bad "bad literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then bad "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then bad "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | _ -> bad "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> bad "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> bad "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> bad "expected ',' or ']'"
          in
          items []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> bad "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then bad "trailing data";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception (Failure msg | Invalid_argument msg) -> Error msg

let member k = function Obj l -> Option.value ~default:Null (List.assoc_opt k l) | _ -> Null
let to_float = function Num f -> f | _ -> failwith "json: number expected"
let to_list = function Arr l -> l | _ -> failwith "json: array expected"
let to_str = function Str s -> s | _ -> failwith "json: string expected"

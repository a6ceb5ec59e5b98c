type t = Null | Int of int | Float of float | Str of string

type op = Eq | Neq | Lt | Leq | Gt | Geq

(* [Int]/[Float] compare exactly: [float_of_int] rounds beyond 2^53, so
   comparing through it would make [Int (2^60 + 1)] equal [Float 2^60]
   while [Int 2^60] does too. Every [int] lies in [-2^62, 2^62), where
   [Float.to_int] of an integral float is exact. *)
let int_equal_float x y = float_of_int x = y && y < 0x1p62 && Float.to_int y = x

(* the sign of [x - y]; a NaN [y] sorts below every number, as under
   [compare] on floats *)
let compare_int_float x y =
  if Float.is_nan y || y < -0x1p62 then 1
  else if y >= 0x1p62 then -1
  else
    let f = Float.floor y in
    let c = Int.compare x (Float.to_int f) in
    if c <> 0 then c else if f = y then 0 else -1

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> int_equal_float x y
  | Str x, Str y -> String.equal x y
  | _ -> false

(* One integer mix for every integral number: an [Int], and a [Float]
   that is integral and in [-2^62, 2^62) — exactly the floats an [Int]
   can equal, [-0.] included — hash by their int, so numerically equal
   twins hash alike with no float boxed. Other floats (fractions, beyond
   the int range, infinities, NaN) equal no [Int] and keep
   [Hashtbl.hash]. The result is non-negative. *)
let mix_int i =
  let h = i * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

let hash = function
  | Int i -> mix_int i
  | Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 -> mix_int (Float.to_int f)
  | Float f -> Hashtbl.hash f
  | Str s -> String.hash s
  | Null -> Hashtbl.hash Null

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let compare_opt a b =
  match (a, b) with
  | Null, Null -> Some 0
  | Null, _ -> Some (-1)
  | _, Null -> Some 1
  | Int x, Int y -> Some (compare x y)
  | Float x, Float y -> Some (compare x y)
  | Int x, Float y -> Some (compare_int_float x y)
  | Float x, Int y -> Some (- compare_int_float y x)
  | Str x, Str y -> Some (String.compare x y)
  | _ -> None

let eval op a b =
  match op with
  | Eq -> equal a b
  | Neq -> not (equal a b)
  | Lt -> ( match compare_opt a b with Some c -> c < 0 | None -> false)
  | Leq -> ( match compare_opt a b with Some c -> c <= 0 | None -> false)
  | Gt -> ( match compare_opt a b with Some c -> c > 0 | None -> false)
  | Geq -> ( match compare_opt a b with Some c -> c >= 0 | None -> false)

let kind_rank = function Null -> 0 | Int _ -> 1 | Float _ -> 1 | Str _ -> 2

let total_compare a b =
  match compare_opt a b with
  | Some c -> c
  | None -> compare (kind_rank a) (kind_rank b)

let is_null = function Null -> true | _ -> false

let is_nan = function Float f -> Float.is_nan f | _ -> false

let of_string s =
  let s' = String.trim s in
  if s' = "" || String.lowercase_ascii s' = "null" then Null
  else
    match int_of_string_opt s' with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s' with Some f -> Float f | None -> Str s')

let to_string = function
  | Null -> "null"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let pp ppf v = Format.pp_print_string ppf (to_string v)

let op_of_string = function
  | "=" | "==" -> Some Eq
  | "!=" | "<>" -> Some Neq
  | "<" -> Some Lt
  | "<=" -> Some Leq
  | ">" -> Some Gt
  | ">=" -> Some Geq
  | _ -> None

let op_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="

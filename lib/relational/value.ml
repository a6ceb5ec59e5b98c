type t = Null | Int of int | Float of float | Str of string

type op = Eq | Neq | Lt | Leq | Gt | Geq

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | Str x, Str y -> String.equal x y
  | _ -> false

(* an [Int] hashes as the float it equals; [Hashtbl.hash] maps [-0.] and
   [0.] alike *)
let hash = function
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | v -> Hashtbl.hash v

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
  | Int x, Float y -> Some (compare (float_of_int x) y)
  | Float x, Int y -> Some (compare x (float_of_int y))
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

let pp_op ppf op = Format.pp_print_string ppf (op_to_string op)

type t = { schema : Schema.t; values : Value.t array }

let of_array schema values =
  if Array.length values <> Schema.arity schema then
    invalid_arg "Tuple: arity mismatch";
  { schema; values = Array.copy values }

let make schema values = of_array schema (Array.of_list values)

let schema t = t.schema

let get t i =
  if i < 0 || i >= Array.length t.values then invalid_arg "Tuple.get";
  t.values.(i)

let cells t = t.values

let get_by_name t a = t.values.(Schema.index t.schema a)

let set t i v =
  if i < 0 || i >= Array.length t.values then invalid_arg "Tuple.set";
  let values = Array.copy t.values in
  values.(i) <- v;
  { t with values }

let values t = Array.to_list t.values

let equal t1 t2 =
  Schema.equal t1.schema t2.schema
  && Array.for_all2 Value.equal t1.values t2.values

let pp ppf t =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (List.map Value.to_string (values t)))

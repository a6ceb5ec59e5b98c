type t = { schema : Schema.t; tuples : Tuple.t array }

let make schema tuples =
  if tuples = [] then invalid_arg "Entity.make: empty entity instance";
  List.iter
    (fun t ->
      if not (Schema.equal (Tuple.schema t) schema) then
        invalid_arg "Entity.make: tuple over a different schema")
    tuples;
  { schema; tuples = Array.of_list tuples }

let schema e = e.schema

let size e = Array.length e.tuples

let tuple e i =
  if i < 0 || i >= size e then invalid_arg "Entity.tuple: bad index";
  e.tuples.(i)

let tuples e = Array.to_list e.tuples

let value e i a = Tuple.get (tuple e i) a

(* hashing that agrees with [Value.equal]: an [Int] hashes as the float
   it equals ([Hashtbl.hash] already maps [-0.] and [0.] alike); NaN,
   equal to nothing, is never found, so each occurrence stays distinct
   exactly as under a list scan *)
module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  let hash = function
    | Value.Int i -> Hashtbl.hash (float_of_int i)
    | Value.Float f -> Hashtbl.hash f
    | v -> Hashtbl.hash v
end)

let active_domain e a =
  let seen = VTbl.create 16 in
  Array.fold_left
    (fun acc t ->
      let v = Tuple.get t a in
      if VTbl.mem seen v then acc else (VTbl.add seen v (); v :: acc))
    [] e.tuples
  |> List.rev

let has_conflict e a = List.length (active_domain e a) > 1

let conflicting_attrs e =
  List.filter (has_conflict e) (List.init (Schema.arity e.schema) Fun.id)

let pp ppf e =
  Format.fprintf ppf "@[<v>%a@ %a@]" Schema.pp e.schema
    (Format.pp_print_list Tuple.pp)
    (tuples e)

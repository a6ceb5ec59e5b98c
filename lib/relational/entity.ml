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

let active_domain_ids e a =
  let n = Array.length e.tuples in
  (* NaN, equal to nothing, is never found, so each occurrence stays
     distinct exactly as under a list scan *)
  let seen = Value.Tbl.create 16 in
  let ids = Array.make n 0 in
  let adom = ref [] and next = ref 0 in
  for i = 0 to n - 1 do
    let v = Tuple.get e.tuples.(i) a in
    match Value.Tbl.find seen v with
    | id -> ids.(i) <- id
    | exception Not_found ->
        Value.Tbl.add seen v !next;
        ids.(i) <- !next;
        adom := v :: !adom;
        incr next
  done;
  (Array.of_list (List.rev !adom), ids)

let active_domain e a = Array.to_list (fst (active_domain_ids e a))

let has_conflict e a = List.length (active_domain e a) > 1

let conflicting_attrs e =
  List.filter (has_conflict e) (List.init (Schema.arity e.schema) Fun.id)

let pp ppf e =
  Format.fprintf ppf "@[<v>%a@ %a@]" Schema.pp e.schema
    (Format.pp_print_list Tuple.pp)
    (tuples e)

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

(* A cell that may never merge its row: NaN equals nothing. Every other
   value's [Value.equal] class is one clique, which is what lets a
   duplicate row share its first occurrence's ids. *)
let unmergeable = function Value.Float f -> Float.is_nan f | _ -> false

let distinct_rows e =
  let n = Array.length e.tuples and arity = Schema.arity e.schema in
  (* [Hashtbl.hash] on the value array would stop after ten meaningful
     words: combine [Value.hash] per cell instead. -1 marks a row that
     never merges. Loops, not closures: this runs on every tuple of
     every encoded entity. *)
  let hashes = Array.make n (-1) in
  for i = 0 to n - 1 do
    let t = e.tuples.(i) in
    let h = ref 0 and a = ref 0 in
    while !a < arity && !h >= 0 do
      let v = Tuple.get t !a in
      h := if unmergeable v then -1 else ((!h * 31) + Value.hash v) land max_int;
      incr a
    done;
    hashes.(i) <- !h
  done;
  let module Rows = Hashtbl.Make (struct
    type t = int

    let equal i j =
      let ti = e.tuples.(i) and tj = e.tuples.(j) in
      let a = ref 0 in
      while !a < arity && Value.equal (Tuple.get ti !a) (Tuple.get tj !a) do
        incr a
      done;
      !a = arity

    let hash i = hashes.(i)
  end) in
  let seen = Rows.create 16 in
  let rows = ref [] in
  for i = 0 to n - 1 do
    if hashes.(i) < 0 then rows := i :: !rows
    else if not (Rows.mem seen i) then begin
      Rows.add seen i ();
      rows := i :: !rows
    end
  done;
  Array.of_list (List.rev !rows)

let active_domain_ids ?rows e a =
  let rows = match rows with Some r -> r | None -> Array.init (Array.length e.tuples) Fun.id in
  let n = Array.length rows in
  (* NaN, equal to nothing, is never found, so each occurrence stays
     distinct exactly as under a list scan *)
  let seen = Value.Tbl.create 16 in
  let ids = Array.make n 0 in
  let adom = ref [] and next = ref 0 in
  for k = 0 to n - 1 do
    let v = Tuple.get e.tuples.(rows.(k)) a in
    match Value.Tbl.find seen v with
    | id -> ids.(k) <- id
    | exception Not_found ->
        Value.Tbl.add seen v !next;
        ids.(k) <- !next;
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

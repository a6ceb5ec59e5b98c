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

(* [distinct_rows]' table: open addressing with linear probing, one slot
   per distinct row (its first index and its hash), kept at most half
   full. It starts at 16 slots and doubles with the distinct rows, so a
   long history of few records never sizes anything by its length. *)
type row_table = {
  mutable slots : int array;  (* a class's first row index; -1 = free *)
  mutable slot_hash : int array;  (* that row's hash *)
  mutable used : int;
  mutable rows : int array;  (* the distinct rows so far, ascending *)
  mutable nrows : int;
}

(* Every tuple of an entity has [arity] cells ([make] checks the schema),
   so [distinct_rows]' cell reads below [arity] are in bounds. *)
let same_row tuples arity i j =
  let ci = Tuple.cells tuples.(i) and cj = Tuple.cells tuples.(j) in
  let a = ref 0 in
  while !a < arity && Value.equal (Array.unsafe_get ci !a) (Array.unsafe_get cj !a) do
    incr a
  done;
  !a = arity

(* the first free slot from [s] on: a rehash meets no duplicate *)
let rec free_slot slots mask s = if slots.(s) < 0 then s else free_slot slots mask ((s + 1) land mask)

let rehash tbl =
  let cap = 2 * Array.length tbl.slots in
  let slots = Array.make cap (-1) and slot_hash = Array.make cap 0 in
  let mask = cap - 1 in
  Array.iteri
    (fun s j ->
      if j >= 0 then begin
        let h = tbl.slot_hash.(s) in
        let s' = free_slot slots mask (h land mask) in
        slots.(s') <- j;
        slot_hash.(s') <- h
      end)
    tbl.slots;
  tbl.slots <- slots;
  tbl.slot_hash <- slot_hash

let push_row tbl i =
  if tbl.nrows = Array.length tbl.rows then begin
    let rows = Array.make (2 * tbl.nrows) 0 in
    Array.blit tbl.rows 0 rows 0 tbl.nrows;
    tbl.rows <- rows
  end;
  tbl.rows.(tbl.nrows) <- i;
  tbl.nrows <- tbl.nrows + 1

(* row [i] with hash [h], probing from slot [s]: the first row of a new
   class is recorded, a row equal to a recorded one is dropped *)
let rec add_row tbl tuples arity i h s =
  let j = tbl.slots.(s) in
  if j < 0 then begin
    tbl.slots.(s) <- i;
    tbl.slot_hash.(s) <- h;
    tbl.used <- tbl.used + 1;
    if 2 * tbl.used > Array.length tbl.slots then rehash tbl;
    push_row tbl i
  end
  else if not (tbl.slot_hash.(s) = h && same_row tuples arity i j) then
    add_row tbl tuples arity i h ((s + 1) land (Array.length tbl.slots - 1))

let distinct_rows e =
  let n = Array.length e.tuples and arity = Schema.arity e.schema in
  let tbl =
    {
      slots = Array.make 16 (-1);
      slot_hash = Array.make 16 0;
      used = 0;
      rows = Array.make (min n 16) 0;
      nrows = 0;
    }
  in
  (* [Hashtbl.hash] on the value array would stop after ten meaningful
     words: combine [Value.hash] per cell instead. A row with a NaN cell
     never merges and is not hashed further. Loops, not closures: this
     runs on every tuple of every encoded entity. *)
  for i = 0 to n - 1 do
    let cells = Tuple.cells e.tuples.(i) in
    let h = ref 0 and a = ref 0 in
    while !a < arity && !h >= 0 do
      let v = Array.unsafe_get cells !a in
      h := if unmergeable v then -1 else ((!h * 31) + Value.hash v) land max_int;
      incr a
    done;
    if !h < 0 then push_row tbl i else add_row tbl e.tuples arity i !h (!h land (Array.length tbl.slots - 1))
  done;
  Array.sub tbl.rows 0 tbl.nrows

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

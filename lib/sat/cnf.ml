type clause = Lit.t array

type block = { first : int; d : int }

type t = { nvars : int; clauses : clause list; blocks : block list }

(* ---- tournament blocks ----

   One variable per unordered pair u < v of the block's values, numbered
   row-major over the upper triangle: row [u] starts [u·(2d − u − 1)/2]
   variables after [first]. The positive literal is [u ≺ v]. *)

let block_nvars d = d * (d - 1) / 2

let row_start d u = u * ((2 * d) - u - 1) / 2

let pair_var b u v = b.first + row_start b.d u + (v - u - 1)

let pair_lit b lo hi =
  if lo < hi then Lit.pos (pair_var b lo hi) else Lit.neg_of (pair_var b hi lo)

(* The row of a local index is the largest [u] with [row_start d u <=
   local]: the float root of the row-start quadratic, corrected by at most
   a step either way against the exact integer bound. *)
let block_pair b var =
  let d = b.d and local = var - b.first in
  let m = float_of_int ((2 * d) - 1) in
  let u = ref (int_of_float ((m -. sqrt ((m *. m) -. (8. *. float_of_int local))) /. 2.)) in
  if !u < 0 then u := 0;
  while !u > 0 && row_start d !u > local do
    decr u
  done;
  while row_start d (!u + 1) <= local && !u + 1 < d do
    incr u
  done;
  (!u, !u + 1 + (local - row_start d !u))

(* the two cyclic orientations of each triple i < j < k, pushed in that
   order: the list ends with the first triple's *)
let block_clauses b =
  let acc = ref [] in
  let x i j = Lit.pos (pair_var b i j) in
  for i = 0 to b.d - 1 do
    for j = i + 1 to b.d - 1 do
      for k = j + 1 to b.d - 1 do
        acc := [| Lit.negate (x i j); Lit.negate (x j k); x i k |] :: !acc;
        acc := [| Lit.negate (x i k); x j k; x i j |] :: !acc
      done
    done
  done;
  !acc

(* ---- construction ---- *)

let check_clause nvars c =
  Array.iter
    (fun l ->
      let v = Lit.var l in
      if v < 0 || v >= nvars then
        invalid_arg
          (Printf.sprintf "Cnf: literal over variable %d but nvars = %d" v nvars))
    c

let check_block nvars b =
  if b.first < 0 || b.d < 0 || b.first + block_nvars b.d > nvars then
    invalid_arg
      (Printf.sprintf "Cnf: block (first %d, d %d) outside nvars = %d" b.first b.d nvars)

let make ?(blocks = []) ~nvars clauses =
  if nvars < 0 then invalid_arg "Cnf.make: negative nvars";
  List.iter (check_clause nvars) clauses;
  List.iter (check_block nvars) blocks;
  { nvars; clauses; blocks }

let unsafe_make ?(blocks = []) ~nvars clauses =
  if nvars < 0 then invalid_arg "Cnf.unsafe_make: negative nvars";
  { nvars; clauses; blocks }

let nclauses f = List.length f.clauses

let add_clause f c =
  check_clause f.nvars c;
  { f with clauses = c :: f.clauses }

(* the last block's clauses first: the order the encoder once emitted its
   per-attribute structural clauses in, after the instance clauses *)
let expand f =
  match f.blocks with
  | [] -> f
  | blocks ->
      let axioms = List.fold_left (fun acc b -> block_clauses b @ acc) [] blocks in
      { f with clauses = f.clauses @ axioms; blocks = [] }

let eval_clause assignment c =
  Array.exists (fun l -> assignment.(Lit.var l) = Lit.sign l) c

let eval assignment f = List.for_all (eval_clause assignment) (expand f).clauses

let nlits f = List.fold_left (fun acc c -> acc + Array.length c) 0 f.clauses

let pp ppf f =
  let f = expand f in
  Format.fprintf ppf "p cnf %d %d@." f.nvars (nclauses f);
  List.iter
    (fun c ->
      Array.iter (fun l -> Format.fprintf ppf "%a " Lit.pp l) c;
      Format.fprintf ppf "0@.")
    f.clauses

type clause = Lit.t array

type block = { first : int; d : int }

type arena = { lits : Lit.t array; offs : int array }

type t = { nvars : int; arenas : arena list; blocks : block list }

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

let block_naxioms d = d * (d - 1) * (d - 2) / 3

(* the two cyclic orientations of each triple i < j < k, the last
   triple's first and, within a triple, [¬x_ik ∨ x_jk ∨ x_ij] before
   [¬x_ij ∨ ¬x_jk ∨ x_ik] *)
let iter_block_clauses f b =
  let x i j = Lit.pos (pair_var b i j) in
  for i = b.d - 1 downto 0 do
    for j = b.d - 1 downto i + 1 do
      for k = b.d - 1 downto j + 1 do
        f [| Lit.negate (x i k); x j k; x i j |];
        f [| Lit.negate (x i j); Lit.negate (x j k); x i k |]
      done
    done
  done

let block_clauses b =
  let acc = ref [] in
  iter_block_clauses (fun c -> acc := c :: !acc) b;
  List.rev !acc

(* ---- arenas ---- *)

let arena_length a = Array.length a.offs - 1

let arena_of_clauses clauses =
  let n = List.length clauses in
  let offs = Array.make (n + 1) 0 in
  List.iteri (fun k c -> offs.(k + 1) <- offs.(k) + Array.length c) clauses;
  let lits = Array.make offs.(n) 0 in
  List.iteri (fun k c -> Array.blit c 0 lits offs.(k) (Array.length c)) clauses;
  { lits; offs }

(* ---- construction ---- *)

let check_lits nvars lits =
  Array.iter
    (fun l ->
      let v = Lit.var l in
      if v < 0 || v >= nvars then
        invalid_arg
          (Printf.sprintf "Cnf: literal over variable %d but nvars = %d" v nvars))
    lits

let check_block nvars b =
  if b.first < 0 || b.d < 0 || b.first + block_nvars b.d > nvars then
    invalid_arg
      (Printf.sprintf "Cnf: block (first %d, d %d) outside nvars = %d" b.first b.d nvars)

let unsafe_of_arenas ?(blocks = []) ~nvars arenas =
  if nvars < 0 then invalid_arg "Cnf.unsafe_of_arenas: negative nvars";
  { nvars; arenas; blocks }

let make ?(blocks = []) ~nvars clauses =
  if nvars < 0 then invalid_arg "Cnf.make: negative nvars";
  List.iter (check_lits nvars) clauses;
  List.iter (check_block nvars) blocks;
  unsafe_of_arenas ~blocks ~nvars [ arena_of_clauses clauses ]

let unsafe_make ?blocks ~nvars clauses =
  unsafe_of_arenas ?blocks ~nvars [ arena_of_clauses clauses ]

let nclauses f = List.fold_left (fun n a -> n + arena_length a) 0 f.arenas

let nlits f = List.fold_left (fun n a -> n + Array.length a.lits) 0 f.arenas

(* ---- reading ---- *)

let iter_packed g f =
  List.iter
    (fun a ->
      let offs = a.offs in
      for k = 0 to arena_length a - 1 do
        g a.lits offs.(k) (offs.(k + 1) - offs.(k))
      done)
    f.arenas

let iter g f = iter_packed (fun lits off len -> g (Array.sub lits off len)) f

let fold g acc f =
  let acc = ref acc in
  iter (fun c -> acc := g !acc c) f;
  !acc

let clauses f = List.rev (fold (fun acc c -> c :: acc) [] f)

let add_clause f c =
  check_lits f.nvars c;
  { f with arenas = f.arenas @ [ arena_of_clauses [ c ] ] }

(* the last block's clauses first: the order the encoder once emitted its
   per-attribute structural clauses in, after the instance clauses *)
let iter_axioms g f = List.iter (iter_block_clauses g) (List.rev f.blocks)

let expand f =
  match f.blocks with
  | [] -> f
  | _ ->
      let axioms = ref [] in
      iter_axioms (fun c -> axioms := c :: !axioms) f;
      { f with arenas = f.arenas @ [ arena_of_clauses (List.rev !axioms) ]; blocks = [] }

let eval_clause assignment c =
  Array.exists (fun l -> assignment.(Lit.var l) = Lit.sign l) c

(* A tournament is transitive iff its out-degrees are exactly 0 .. d-1:
   a transitive one ranks its values, and a 3-cycle leaves two values of
   equal out-degree (out-degrees of a tournament sum to d(d-1)/2, so
   distinct ones are a permutation of 0 .. d-1, and then the value of
   out-degree d-1 beats all, recursively, which is an order). *)
let block_holds assignment b =
  let out = Array.make b.d 0 in
  for u = 0 to b.d - 1 do
    for v = u + 1 to b.d - 1 do
      if assignment.(pair_var b u v) then out.(u) <- out.(u) + 1 else out.(v) <- out.(v) + 1
    done
  done;
  let seen = Bytes.make b.d '\000' in
  Array.for_all
    (fun k ->
      Bytes.get seen k = '\000'
      &&
      (Bytes.set seen k '\001';
       true))
    out

let eval assignment f =
  List.for_all
    (fun a ->
      let ok = ref true and k = ref 0 in
      while !ok && !k < arena_length a do
        let stop = a.offs.(!k + 1) in
        let rec holds i =
          i < stop && (assignment.(Lit.var a.lits.(i)) = Lit.sign a.lits.(i) || holds (i + 1))
        in
        ok := holds a.offs.(!k);
        incr k
      done;
      !ok)
    f.arenas
  && List.for_all (block_holds assignment) f.blocks

let pp ppf f =
  let naxioms = List.fold_left (fun n b -> n + block_naxioms b.d) 0 f.blocks in
  Format.fprintf ppf "p cnf %d %d@." f.nvars (nclauses f + naxioms);
  let print_slice lits off len =
    for i = off to off + len - 1 do
      Format.fprintf ppf "%a " Lit.pp lits.(i)
    done;
    Format.fprintf ppf "0@."
  in
  iter_packed print_slice f;
  iter_axioms (fun c -> print_slice c 0 (Array.length c)) f

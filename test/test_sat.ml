(* The CDCL solver, tested against hand-built formulas, DIMACS fixtures,
   and the brute-force reference on random CNFs (qcheck). *)

let lit = Sat.Lit.make

let solve_cnf f =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s f;
  (s, Sat.Solver.solve s)

let is_sat f = match solve_cnf f with _, Sat.Solver.Sat -> true | _ -> false

let test_lit_encoding () =
  Alcotest.(check int) "var" 7 (Sat.Lit.var (lit 7 true));
  Alcotest.(check int) "var neg" 7 (Sat.Lit.var (lit 7 false));
  Alcotest.(check bool) "sign pos" true (Sat.Lit.sign (lit 3 true));
  Alcotest.(check bool) "sign neg" false (Sat.Lit.sign (lit 3 false));
  Alcotest.(check int) "negate round trip" (lit 4 true) (Sat.Lit.negate (Sat.Lit.negate (lit 4 true)));
  Alcotest.(check int) "dimacs pos" 5 (Sat.Lit.to_dimacs (Sat.Lit.of_dimacs 5));
  Alcotest.(check int) "dimacs neg" (-5) (Sat.Lit.to_dimacs (Sat.Lit.of_dimacs (-5)))

let test_trivial () =
  Alcotest.(check bool) "empty formula" true (is_sat (Sat.Cnf.make ~nvars:0 []));
  Alcotest.(check bool) "unit" true (is_sat (Sat.Cnf.make ~nvars:1 [ [| lit 0 true |] ]));
  Alcotest.(check bool) "contradiction" false
    (is_sat (Sat.Cnf.make ~nvars:1 [ [| lit 0 true |]; [| lit 0 false |] ]));
  Alcotest.(check bool) "empty clause" false (is_sat (Sat.Cnf.make ~nvars:1 [ [||] ]))

let test_model () =
  let f =
    Sat.Cnf.make ~nvars:3
      [ [| lit 0 true |]; [| lit 0 false; lit 1 true |]; [| lit 1 false; lit 2 false |] ]
  in
  let s, r = solve_cnf f in
  Alcotest.(check bool) "sat" true (r = Sat.Solver.Sat);
  let m = Sat.Solver.model s in
  Alcotest.(check bool) "model satisfies" true (Sat.Cnf.eval m f);
  Alcotest.(check bool) "x0" true (Sat.Solver.model_value s 0);
  Alcotest.(check bool) "x1" true (Sat.Solver.model_value s 1);
  Alcotest.(check bool) "x2" false (Sat.Solver.model_value s 2)

let test_level0 () =
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_nvars s 2;
  Sat.Solver.add_clause s [ lit 0 true ];
  Sat.Solver.add_clause s [ lit 0 false; lit 1 true ];
  Alcotest.(check (option bool)) "x0 fixed" (Some true) (Sat.Solver.value_level0 s 0);
  Alcotest.(check (option bool)) "x1 propagated" (Some true) (Sat.Solver.value_level0 s 1)

let test_pigeonhole () =
  (* PHP(4,3): 4 pigeons in 3 holes, classic small UNSAT instance that
     needs real conflict analysis *)
  let var p h = (p * 3) + h in
  let clauses = ref [] in
  for p = 0 to 3 do
    clauses := Array.init 3 (fun h -> lit (var p h) true) :: !clauses
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        clauses := [| lit (var p1 h) false; lit (var p2 h) false |] :: !clauses
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" false (is_sat (Sat.Cnf.make ~nvars:12 !clauses))

let test_assumptions () =
  let f = Sat.Cnf.make ~nvars:2 [ [| lit 0 true; lit 1 true |] ] in
  let s, r = solve_cnf f in
  Alcotest.(check bool) "base sat" true (r = Sat.Solver.Sat);
  Alcotest.(check bool) "assume both false"
    (Sat.Solver.solve ~assumptions:[ lit 0 false; lit 1 false ] s = Sat.Solver.Unsat)
    true;
  Alcotest.(check bool) "assume one false"
    (Sat.Solver.solve ~assumptions:[ lit 0 false ] s = Sat.Solver.Sat)
    true;
  (* solver still usable without assumptions *)
  Alcotest.(check bool) "still sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "still ok" true (Sat.Solver.ok s)

let test_incremental () =
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_nvars s 3;
  Sat.Solver.add_clause s [ lit 0 true; lit 1 true ];
  Alcotest.(check bool) "sat 1" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Sat.Solver.add_clause s [ lit 0 false ];
  Alcotest.(check bool) "sat 2" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Sat.Solver.add_clause s [ lit 1 false ];
  Alcotest.(check bool) "unsat after narrowing" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "ok false" false (Sat.Solver.ok s)

let test_dimacs_roundtrip () =
  let text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let f = Sat.Dimacs.parse_string text in
  Alcotest.(check int) "nvars" 3 f.Sat.Cnf.nvars;
  Alcotest.(check int) "nclauses" 2 (Sat.Cnf.nclauses f);
  let f2 = Sat.Dimacs.parse_string (Sat.Dimacs.to_string f) in
  Alcotest.(check int) "round trip clauses" (Sat.Cnf.nclauses f) (Sat.Cnf.nclauses f2);
  Alcotest.(check bool) "both sat" (is_sat f) (is_sat f2)

let test_dimacs_errors () =
  Alcotest.(check bool) "bad token"
    (try ignore (Sat.Dimacs.parse_string "1 x 0"); false with Failure _ -> true)
    true

(* ---- randomised differential tests ---- *)

let rand_cnf st nvars nclauses =
  let clause () =
    let len = 1 + Random.State.int st 3 in
    Array.init len (fun _ -> lit (Random.State.int st nvars) (Random.State.bool st))
  in
  Sat.Cnf.make ~nvars (List.init nclauses (fun _ -> clause ()))

let qcheck_cnf =
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Sat.Cnf.pp f)
    QCheck.Gen.(
      int_range 1 10 >>= fun nvars ->
      int_range 0 40 >>= fun ncl ->
      int_bound 1_000_000 >|= fun seed ->
      rand_cnf (Random.State.make [| seed |]) nvars ncl)

let prop_agrees_with_brute =
  QCheck.Test.make ~count:300 ~name:"cdcl agrees with brute force" qcheck_cnf (fun f ->
      let brute_sat = Sat.Brute.solve f <> None in
      let s, r = solve_cnf f in
      match r with
      | Sat.Solver.Sat -> brute_sat && Sat.Cnf.eval (Sat.Solver.model s) f
      | Sat.Solver.Unsat -> not brute_sat)

let prop_assumptions_sound =
  QCheck.Test.make ~count:200 ~name:"assumptions = added units" qcheck_cnf (fun f ->
      if f.Sat.Cnf.nvars < 2 then true
      else begin
        let a1 = lit 0 true and a2 = lit 1 false in
        let f' = Sat.Cnf.add_clause (Sat.Cnf.add_clause f [| a1 |]) [| a2 |] in
        let s, _ = solve_cnf f in
        let with_assump = Sat.Solver.solve ~assumptions:[ a1; a2 ] s in
        let direct = if Sat.Brute.solve f' <> None then Sat.Solver.Sat else Sat.Solver.Unsat in
        with_assump = direct
      end)

let prop_model_count_positive =
  QCheck.Test.make ~count:100 ~name:"sat iff count_models > 0" qcheck_cnf (fun f ->
      let n = Sat.Brute.count_models f in
      is_sat f = (n > 0))

(* ---- clause-database management ---- *)

let test_binary_contradiction () =
  (* a = b and a = ~b: four binary clauses, all in the implication layer,
     with no unit or long clause to start from — only search over the
     binary layer refutes them *)
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_nvars s 2;
  Sat.Solver.add_clause s [ lit 0 false; lit 1 true ];
  Sat.Solver.add_clause s [ lit 1 false; lit 0 true ];
  Sat.Solver.add_clause s [ lit 0 false; lit 1 false ];
  Sat.Solver.add_clause s [ lit 0 true; lit 1 true ];
  Alcotest.(check int) "binary layer" 4 (Sat.Solver.stats s).Sat.Solver.binaries;
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat)

(* Variables made one at a time after a CNF load, across two capacity
   growths (20 loaded, 30 new), take binary and long clauses over new and
   loaded variables, which propagate and solve like loaded ones. *)
let test_vars_after_load () =
  let x i = i and n = 20 in
  let chain = List.init (n - 1) (fun i -> [| lit (x i) false; lit (x (i + 1)) true |]) in
  let s, r = solve_cnf (Sat.Cnf.make ~nvars:n chain) in
  Alcotest.(check bool) "loaded sat" true (r = Sat.Solver.Sat);
  let y = Array.init 30 (fun _ -> Sat.Solver.new_var s) in
  Alcotest.(check (list int)) "fresh numbering" (List.init 30 (fun j -> n + j)) (Array.to_list y);
  (* y_j → y_(j+1), y_29 → x_0, and the long clause ¬y_29 ∨ ¬x_19 ∨ ¬y_10 *)
  for j = 0 to 28 do
    Sat.Solver.add_clause s [ lit y.(j) false; lit y.(j + 1) true ]
  done;
  Sat.Solver.add_clause s [ lit y.(29) false; lit (x 0) true ];
  Sat.Solver.add_clause s [ lit y.(29) false; lit (x (n - 1)) false; lit y.(10) false ];
  Alcotest.(check bool) "y_0 refuted through both layers" true
    (Sat.Solver.solve ~assumptions:[ lit y.(0) true ] s = Sat.Solver.Unsat);
  Alcotest.(check bool) "y_11 satisfiable" true
    (Sat.Solver.solve ~assumptions:[ lit y.(11) true ] s = Sat.Solver.Sat);
  Alcotest.(check bool) "the long clause forced y_10 false" false (Sat.Solver.model_value s y.(10));
  Alcotest.(check bool) "x_19 reached" true (Sat.Solver.model_value s (x (n - 1)));
  Sat.Solver.add_clause s [ lit y.(15) true ];
  List.iter
    (fun (v, b) ->
      Alcotest.(check (option bool)) (Printf.sprintf "level 0: var %d" v) (Some b)
        (Sat.Solver.value_level0 s v))
    [ (y.(29), true); (x 0, true); (x (n - 1), true); (y.(10), false); (y.(0), false) ];
  Alcotest.(check bool) "still sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check int) "variables" (n + 30) (Sat.Solver.nvars s)

let prop_incremental_sound =
  (* f2 arrives after a solve of f1 left learnt clauses, saved phases and
     level-0 facts behind; the answer must match brute force on f1 /\ f2,
     and any model returned must satisfy both original formulas. *)
  QCheck.Test.make ~count:200 ~name:"clauses added across solves stay sound"
    (QCheck.pair qcheck_cnf qcheck_cnf) (fun (f1, f2) ->
      let nv = max f1.Sat.Cnf.nvars f2.Sat.Cnf.nvars in
      let s = Sat.Solver.create () in
      Sat.Solver.ensure_nvars s nv;
      Sat.Solver.add_cnf s f1;
      ignore (Sat.Solver.solve s);
      Sat.Solver.add_cnf s f2;
      let both = Sat.Cnf.make ~nvars:nv (Sat.Cnf.clauses f1 @ Sat.Cnf.clauses f2) in
      let expect =
        if Sat.Brute.solve both <> None then Sat.Solver.Sat else Sat.Solver.Unsat
      in
      match Sat.Solver.solve s with
      | Sat.Solver.Unsat -> expect = Sat.Solver.Unsat
      | Sat.Solver.Sat ->
          expect = Sat.Solver.Sat && Sat.Cnf.eval (Sat.Solver.model s) both)

let prop_budget_resume_slices =
  QCheck.Test.make ~count:150 ~name:"budget resume in one-conflict slices" qcheck_cnf (fun f ->
      let expect = if Sat.Brute.solve f <> None then Sat.Solver.Sat else Sat.Solver.Unsat in
      let s = Sat.Solver.create () in
      Sat.Solver.add_cnf s f;
      (* solve in tiny, growing budget slices: interrupted runs resumed on
         the same solver must reach the same answer as an uninterrupted
         solve *)
      let rec go budget rounds =
        if rounds > 5_000 then None
        else begin
          Sat.Solver.set_budget ~conflicts:budget s;
          match Sat.Solver.solve_limited s with
          | Sat.Solver.Limited.Unknown -> go (budget + 1) (rounds + 1)
          | Sat.Solver.Limited.Sat -> Some Sat.Solver.Sat
          | Sat.Solver.Limited.Unsat -> Some Sat.Solver.Unsat
        end
      in
      match go 1 0 with
      | None -> false
      | Some r ->
          r = expect
          && (r <> Sat.Solver.Sat || Sat.Cnf.eval (Sat.Solver.model s) f))

let prop_export_roundtrip =
  QCheck.Test.make ~count:200 ~name:"of_solver DIMACS round-trips equisatisfiably"
    qcheck_cnf (fun f ->
      let s = Sat.Solver.create () in
      Sat.Solver.add_cnf s f;
      let f2 = Sat.Dimacs.parse_string (Sat.Dimacs.of_solver s) in
      is_sat f = is_sat f2)

(* The export is not merely equisatisfiable: it has exactly the input's
   models over every variable — what [crsolve batch --dump-dimacs] hands
   to an external tool. *)
let qcheck_binary_cnf =
  (* two- and three-literal clauses, at most three per variable: binary
     cycles (equivalent literals) show up in about a fifth of the cases,
     where [qcheck_cnf]'s unit-heavy formulas almost never get one *)
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Sat.Cnf.pp f)
    QCheck.Gen.(
      int_range 2 10 >>= fun nvars ->
      int_range 0 (3 * nvars) >>= fun ncl ->
      int_bound 1_000_000 >|= fun seed ->
      let st = Random.State.make [| seed |] in
      Sat.Cnf.make ~nvars
        (List.init ncl (fun _ ->
             Array.init
               (2 + Random.State.int st 2)
               (fun _ -> lit (Random.State.int st nvars) (Random.State.bool st)))))

let prop_export_equivalent =
  QCheck.Test.make ~count:300 ~name:"export_cnf keeps every model"
    qcheck_binary_cnf (fun f ->
      let s = Sat.Solver.create () in
      Sat.Solver.add_cnf s f;
      Sat.Brute.count_models (Sat.Solver.export_cnf s) = Sat.Brute.count_models f)

(* ---- the clause loader ---- *)

(* The loader's contract, restated with lists: a clause true at level 0
   or holding p and ¬p is dropped ([None]); otherwise its distinct
   literals not false at level 0, in ascending order. *)
let reference_normalise s lits =
  let l0 l =
    Option.map (fun b -> b = Sat.Lit.sign l) (Sat.Solver.value_level0 s (Sat.Lit.var l))
  in
  let lits = List.sort_uniq compare (Array.to_list lits) in
  if
    List.exists (fun l -> List.mem (Sat.Lit.negate l) lits) lits
    || List.exists (fun l -> l0 l = Some true) lits
  then None
  else Some (List.filter (fun l -> l0 l = None) lits)

(* clauses of length 0-40 over few variables, so duplicate literals,
   tautologies and literals already fixed at level 0 (by the interleaved
   units) are all common *)
let qcheck_loader_clauses =
  QCheck.make
    ~print:(fun (nvars, cls) ->
      Format.asprintf "%a" Sat.Cnf.pp (Sat.Cnf.make ~nvars cls))
    QCheck.Gen.(
      int_range 1 12 >>= fun nvars ->
      let lit = map2 (fun v b -> lit v b) (int_bound (nvars - 1)) bool in
      let clause =
        frequency
          [
            (3, map (fun l -> [| l |]) lit);
            (6, array_size (int_range 0 6) lit);
            (2, array_size (int_range 7 40) lit);
          ]
      in
      map (fun cls -> (nvars, cls)) (list_size (int_range 0 40) clause))

(* Each clause goes raw into [a] and, normalised by the reference, into
   [b]. Every long clause [a] keeps must be the reference's, literal for
   literal (the export lists the newest long clause first; propagation
   may later swap its watched pair). The loaded databases must be
   identical — same units, binary pairs and long clauses in the same
   order — and so must a solve on them, down to the statistics. No
   argument may be modified. *)
let prop_loader_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"loader == list-based reference normaliser"
    qcheck_loader_clauses (fun (nvars, cls) ->
      let a = Sat.Solver.create () and b = Sat.Solver.create () in
      Sat.Solver.ensure_nvars a nvars;
      Sat.Solver.ensure_nvars b nvars;
      let loaded_ok =
        List.for_all
          (fun c ->
            let before = Array.copy c in
            let expect = if Sat.Solver.ok b then reference_normalise b c else None in
            Sat.Solver.add_clause_a a c;
            Option.iter (fun ls -> Sat.Solver.add_clause_a b (Array.of_list ls)) expect;
            c = before
            &&
            match expect with
            | Some (_ :: _ :: _ :: _ as ls) -> (
                match Sat.Cnf.clauses (Sat.Solver.export_cnf a) with
                | newest :: _ -> newest = Array.of_list ls
                | [] -> false)
            | _ -> true)
          cls
      in
      let same_db = Sat.Solver.export_cnf a = Sat.Solver.export_cnf b in
      let ra = Sat.Solver.solve a and rb = Sat.Solver.solve b in
      loaded_ok && same_db && ra = rb && Sat.Solver.stats a = Sat.Solver.stats b)

(* ---- saved phases ---- *)

(* phases only reorder the search: under arbitrary phases and across
   incremental calls, answers match brute force and every model
   satisfies the formula *)
let prop_set_phase_sound =
  QCheck.Test.make ~count:300 ~name:"set_phase never changes answers"
    (QCheck.pair qcheck_binary_cnf QCheck.int) (fun (f, seed) ->
      let st = Random.State.make [| seed |] in
      let expect = Sat.Brute.solve f <> None in
      let s = Sat.Solver.create () in
      Sat.Solver.add_cnf s f;
      let round () =
        for v = 0 to f.Sat.Cnf.nvars - 1 do
          if Random.State.bool st then Sat.Solver.set_phase s (lit v (Random.State.bool st))
        done;
        match Sat.Solver.solve s with
        | Sat.Solver.Sat -> expect && Sat.Cnf.eval (Sat.Solver.model s) f
        | Sat.Solver.Unsat -> not expect
      in
      let first = round () in
      let second = round () in
      first && second && round ())

(* ---- tournament blocks ---- *)

let test_block_layout () =
  List.iter
    (fun d ->
      let b = { Sat.Cnf.first = 5; d } in
      let next = ref 5 in
      for u = 0 to d - 1 do
        for v = u + 1 to d - 1 do
          Alcotest.(check int) "row-major" !next (Sat.Cnf.pair_var b u v);
          Alcotest.(check (pair int int)) "inverse" (u, v) (Sat.Cnf.block_pair b !next);
          Alcotest.(check int) "positive is u<v" (Sat.Lit.pos !next) (Sat.Cnf.pair_lit b u v);
          Alcotest.(check int) "negative is v<u" (Sat.Lit.neg_of !next) (Sat.Cnf.pair_lit b v u);
          incr next
        done
      done;
      Alcotest.(check int) "block_nvars" (!next - 5) (Sat.Cnf.block_nvars d);
      Alcotest.(check int) "d(d-1)(d-2)/3 axioms" (d * (d - 1) * (d - 2) / 3)
        (List.length (Sat.Cnf.block_clauses b)))
    [ 0; 1; 2; 3; 4; 7; 40 ]

(* a 3-cycle over one block: Cnf.eval rejects it, the solver refutes it
   at load whether the units come before or after the block *)
let test_block_cyclic_units () =
  let b = { Sat.Cnf.first = 0; d = 3 } in
  let units = [ [| Sat.Cnf.pair_lit b 0 1 |]; [| Sat.Cnf.pair_lit b 1 2 |]; [| Sat.Cnf.pair_lit b 2 0 |] ] in
  let f = Sat.Cnf.make ~blocks:[ b ] ~nvars:3 units in
  let order = Sat.Cnf.make ~blocks:[ b ] ~nvars:3 [] in
  (* variables x01, x02, x12: 0<1, 1<2 and 2<0 is the cycle *)
  Alcotest.(check bool) "eval rejects a 3-cycle" false (Sat.Cnf.eval [| true; false; true |] order);
  Alcotest.(check bool) "eval accepts an order" true (Sat.Cnf.eval [| true; true; true |] order);
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s f;
  Alcotest.(check bool) "units then block: ok = false" false (Sat.Solver.ok s);
  let late = Sat.Solver.create () in
  Sat.Solver.add_cnf late (Sat.Cnf.make ~nvars:3 units);
  Alcotest.(check bool) "units alone: ok" true (Sat.Solver.ok late);
  Sat.Solver.add_cnf late (Sat.Cnf.make ~blocks:[ b ] ~nvars:3 []);
  Alcotest.(check bool) "block after the units: ok = false" false (Sat.Solver.ok late)

(* [Cnf.eval] checks a block's transitivity by its out-degrees; the
   reference is [eval] on the expansion, every 3-cycle clause listed. One
   block at a random offset of d ∈ {0–5, 61–66, 128–131} values, a few
   random clauses over its variables, and a model that is a random
   assignment, a random strict order, or such an order with one pair
   flipped. A wide block's expansion takes a tenth of a second, so they
   are drawn rarely. *)
let qcheck_eval_blocks =
  QCheck.make
    ~print:(fun (f, m) ->
      Format.asprintf "block %s, model %s"
        (String.concat " "
           (List.map (fun b -> Printf.sprintf "(%d,%d)" b.Sat.Cnf.first b.Sat.Cnf.d) f.Sat.Cnf.blocks))
        (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") m))))
    QCheck.Gen.(
      frequency [ (6, int_range 0 5); (3, int_range 61 66); (1, int_range 128 131) ] >>= fun d ->
      int_bound 3 >>= fun first ->
      int_bound 3 >>= fun ncl ->
      int_bound 2 >>= fun kind ->
      int_bound 1_000_000 >|= fun seed ->
      let st = Random.State.make [| seed |] in
      let b = { Sat.Cnf.first; d } in
      let nvars = first + Sat.Cnf.block_nvars d + 1 in
      let clauses =
        List.init ncl (fun _ ->
            Array.init (1 + Random.State.int st 3) (fun _ ->
                lit (Random.State.int st nvars) (Random.State.bool st)))
      in
      let m = Array.init nvars (fun _ -> Random.State.bool st) in
      if kind > 0 && d >= 2 then begin
        (* rank.(u) is u's position in a random order *)
        let rank = Array.init d Fun.id in
        for i = d - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = rank.(i) in
          rank.(i) <- rank.(j);
          rank.(j) <- t
        done;
        for u = 0 to d - 1 do
          for v = u + 1 to d - 1 do
            m.(Sat.Cnf.pair_var b u v) <- rank.(u) < rank.(v)
          done
        done;
        if kind = 2 then begin
          let x = first + Random.State.int st (Sat.Cnf.block_nvars d) in
          m.(x) <- not m.(x)
        end
      end;
      (Sat.Cnf.make ~blocks:[ b ] ~nvars clauses, m))

let prop_eval_is_expanded_eval =
  QCheck.Test.make ~count:150 ~name:"Cnf.eval == eval of the expansion (d up to 131)" qcheck_eval_blocks
    (fun (f, m) -> Sat.Cnf.eval m f = Sat.Cnf.eval m (Sat.Cnf.expand f))

(* Packing is invisible to readers: [make] (one arena) and
   [unsafe_of_arenas] (the list cut into arenas anywhere, empty ones
   too) give back the very clause list through [clauses], [iter],
   [fold] and [iter_packed], and [nclauses]/[nlits] count it. *)
let prop_cnf_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Cnf make/iter round trip"
    QCheck.(pair qcheck_cnf (small_list small_nat))
    (fun (f0, cuts) ->
      let cls = Sat.Cnf.clauses f0 @ [ [||] ] in
      let rec chunks acc l = function
        | [] -> List.rev (l :: acc)
        | k :: ks ->
            let k = k mod (List.length l + 1) in
            chunks (List.filteri (fun i _ -> i < k) l :: acc) (List.filteri (fun i _ -> i >= k) l) ks
      in
      let f = Sat.Cnf.make ~nvars:f0.Sat.Cnf.nvars cls in
      let g =
        Sat.Cnf.unsafe_of_arenas ~nvars:f0.Sat.Cnf.nvars
          (List.map Sat.Cnf.arena_of_clauses (chunks [] cls cuts))
      in
      let listed h =
        let it = ref [] and packed = ref [] in
        Sat.Cnf.iter (fun c -> it := c :: !it) h;
        Sat.Cnf.iter_packed (fun lits off len -> packed := Array.sub lits off len :: !packed) h;
        [ Sat.Cnf.clauses h; List.rev !it; List.rev !packed; List.rev (Sat.Cnf.fold (fun acc c -> c :: acc) [] h) ]
      in
      List.for_all (fun h -> List.for_all (( = ) cls) (listed h)) [ f; g ]
      && List.for_all
           (fun h ->
             Sat.Cnf.nclauses h = List.length cls
             && Sat.Cnf.nlits h = List.fold_left (fun n c -> n + Array.length c) 0 cls)
           [ f; g ])

(* One of three shapes, each with random clauses of 1–3 literals and
   three lists of up to four assumptions:
   - one or two blocks of 3–6 values (with a free variable between
     them), the clauses over every variable;
   - one block of 61–66 values, around the 63 bits of one bitset word
     (its top bit is the sign bit; from 64 values a row takes two);
   - rarely, one block of 128–131 values, whose rows take three words.
   A wide block's clauses and assumptions are order literals between
   values on both sides of each word boundary (and a free variable): a
   random literal over all its pairs would hardly ever meet another. *)
let qcheck_blocks =
  QCheck.make
    ~print:(fun (f, assumptions) ->
      Format.asprintf "blocks %s@.assumptions %s@.%a"
        (String.concat " "
           (List.map (fun b -> Printf.sprintf "(%d,%d)" b.Sat.Cnf.first b.Sat.Cnf.d) f.Sat.Cnf.blocks))
        (String.concat " | "
           (List.map
              (fun a -> String.concat " " (List.map (fun l -> string_of_int (Sat.Lit.to_dimacs l)) a))
              assumptions))
        Sat.Cnf.pp { f with Sat.Cnf.blocks = [] })
    QCheck.Gen.(
      frequency [ (191, return `Narrow); (8, return `Word); (1, return `Wide) ] >>= fun shape ->
      int_range 1 2 >>= fun nblocks ->
      int_range 3 6 >>= fun d1 ->
      int_range 3 6 >>= fun d2 ->
      int_range 61 66 >>= fun d_word ->
      int_range 128 131 >>= fun d_wide ->
      int_range 0 25 >>= fun ncl ->
      int_bound 1_000_000 >|= fun seed ->
      let st = Random.State.make [| seed |] in
      let blocks, nvars, rlit =
        match shape with
        | `Narrow ->
            let b1 = { Sat.Cnf.first = 0; d = d1 } in
            let blocks, nvars =
              if nblocks = 1 then ([ b1 ], Sat.Cnf.block_nvars d1 + 1)
              else
                let first = Sat.Cnf.block_nvars d1 + 1 in
                ([ b1; { Sat.Cnf.first; d = d2 } ], first + Sat.Cnf.block_nvars d2)
            in
            (blocks, nvars, fun () -> lit (Random.State.int st nvars) (Random.State.bool st))
        | (`Word | `Wide) as w ->
            let d = if w = `Word then d_word else d_wide in
            let b = { Sat.Cnf.first = 0; d } in
            let nvars = Sat.Cnf.block_nvars d + 1 in
            let wb = Sys.int_size in
            let hot =
              Array.of_list
                (List.filter
                   (fun z -> z < d)
                   [ 0; 1; wb - 2; wb - 1; wb; wb + 1; (2 * wb) - 1; 2 * wb; d - 2; d - 1 ])
            in
            let pick () = hot.(Random.State.int st (Array.length hot)) in
            let rec pair () =
              let x = pick () and y = pick () in
              if x = y then pair () else Sat.Cnf.pair_lit b x y
            in
            ( [ b ],
              nvars,
              fun () ->
                if Random.State.int st 8 = 0 then lit (nvars - 1) (Random.State.bool st) else pair () )
      in
      let clauses = List.init ncl (fun _ -> Array.init (1 + Random.State.int st 3) (fun _ -> rlit ())) in
      let assumptions = List.init 3 (fun _ -> List.init (Random.State.int st 5) (fun _ -> rlit ())) in
      (Sat.Cnf.make ~blocks ~nvars clauses, assumptions))

let level0 s = List.init (Sat.Solver.nvars s) (Sat.Solver.value_level0 s)

(* Each solver answers the empty and the three assumption lists in turn,
   then the empty list again: bits a backtrack left set would show as a
   wrong answer or model in a later solve. *)
let prop_blocks_match_clauses =
  QCheck.Test.make ~count:500 ~name:"block propagator == its 3-cycle clauses" qcheck_blocks
    (fun (f, assumption_lists) ->
      let expanded = Sat.Cnf.expand f in
      let load f =
        let s = Sat.Solver.create () in
        Sat.Solver.add_cnf s f;
        s
      in
      let sb = load f and sc = load expanded in
      (* the blocks registered after the clauses: the level-0 trail is
         propagated through them again *)
      let sl = load { f with Sat.Cnf.blocks = [] } in
      Sat.Solver.add_cnf sl { f with Sat.Cnf.arenas = [] };
      (* [expanded] lists [f]'s clauses and its blocks' axioms *)
      let model_ok s = Sat.Cnf.eval (Sat.Solver.model s) expanded in
      Sat.Solver.ok sb = Sat.Solver.ok sc
      && Sat.Solver.ok sl = Sat.Solver.ok sc
      && ((not (Sat.Solver.ok sc)) || (level0 sb = level0 sc && level0 sl = level0 sc))
      && List.for_all
           (fun assumptions ->
             let rb = Sat.Solver.solve ~assumptions sb and rc = Sat.Solver.solve ~assumptions sc in
             let rl = Sat.Solver.solve ~assumptions sl in
             rb = rc && rl = rc
             && (rb <> Sat.Solver.Sat || (model_ok sb && model_ok sl)))
           (([] :: assumption_lists) @ [ [] ]))

(* Watch and binary lists are made at a literal's first push. A block
   (whose pair variables sit in no clause) and a few free variables are
   loaded with a few clauses of two or three literals, so most literals
   never get a list; the export right after loading is exactly the
   clauses loaded. After a solve, units, binaries and long clauses go
   onto literals no clause watched yet and onto fresh [new_var]
   variables, and the second solve must still agree with brute force. *)
let qcheck_first_use =
  QCheck.make
    ~print:(fun (d, nfree, nnew, seed) -> Printf.sprintf "d=%d free=%d new=%d seed=%d" d nfree nnew seed)
    QCheck.Gen.(quad (int_range 3 4) (int_range 2 6) (int_range 1 3) (int_bound 1_000_000))

let sorted_clauses cls = List.sort compare (List.map (fun c -> List.sort compare (Array.to_list c)) cls)

let prop_lists_on_first_use =
  QCheck.Test.make ~count:300 ~name:"watch and binary lists made on first use" qcheck_first_use
    (fun (d, nfree, nnew, seed) ->
      let st = Random.State.make [| seed |] in
      let b = { Sat.Cnf.first = 0; d } in
      let nvars = Sat.Cnf.block_nvars d + nfree in
      (* a clause over [len] distinct variables of [pool] *)
      let clause pool len =
        let pool = Array.of_list pool in
        let n = Array.length pool in
        let picked = ref [] in
        while List.length !picked < min len n do
          let v = pool.(Random.State.int st n) in
          if not (List.mem v !picked) then picked := v :: !picked
        done;
        Array.of_list (List.map (fun v -> lit v (Random.State.bool st)) !picked)
      in
      let all = List.init nvars Fun.id in
      let loaded = List.init (Random.State.int st 4) (fun _ -> clause all (2 + Random.State.int st 2)) in
      let f = Sat.Cnf.make ~blocks:[ b ] ~nvars loaded in
      let s = Sat.Solver.create () in
      Sat.Solver.add_cnf s f;
      let export = Sat.Solver.export_cnf s in
      let exported_exactly =
        sorted_clauses (Sat.Cnf.clauses export) = sorted_clauses loaded
        && export.Sat.Cnf.blocks = [ b ]
      in
      let verdict f = if Sat.Brute.solve f <> None then Sat.Solver.Sat else Sat.Solver.Unsat in
      let agrees f r = r = verdict f && (r <> Sat.Solver.Sat || Sat.Cnf.eval (Sat.Solver.model s) f) in
      let first = agrees f (Sat.Solver.solve s) in
      let watched = List.concat_map (fun c -> List.map Sat.Lit.var (Array.to_list c)) loaded in
      let fresh = List.init nnew (fun _ -> Sat.Solver.new_var s) in
      let unwatched = List.filter (fun v -> not (List.mem v watched)) all @ fresh in
      let added =
        List.init (Random.State.int st 2) (fun _ -> clause unwatched 1)
        @ List.init (1 + Random.State.int st 3) (fun _ -> clause unwatched 2)
        @ List.init (Random.State.int st 3) (fun _ -> clause (unwatched @ all) 3)
      in
      List.iter (Sat.Solver.add_clause_a s) added;
      let g = Sat.Cnf.make ~blocks:[ b ] ~nvars:(nvars + nnew) (loaded @ added) in
      exported_exactly && first && agrees g (Sat.Solver.solve s))

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "literal encoding" `Quick test_lit_encoding;
          Alcotest.test_case "trivial formulas" `Quick test_trivial;
          Alcotest.test_case "model extraction" `Quick test_model;
          Alcotest.test_case "level-0 values" `Quick test_level0;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "dimacs round trip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
          Alcotest.test_case "binary layer: contradictory equivalence" `Quick
            test_binary_contradiction;
          Alcotest.test_case "variables added after a load" `Quick test_vars_after_load;
          Alcotest.test_case "block layout" `Quick test_block_layout;
          Alcotest.test_case "block: cyclic units refuted at load" `Quick test_block_cyclic_units;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_agrees_with_brute;
            prop_assumptions_sound;
            prop_eval_is_expanded_eval;
            prop_cnf_roundtrip;
            prop_model_count_positive;
            prop_set_phase_sound;
            prop_loader_matches_reference;
            prop_blocks_match_clauses;
            prop_lists_on_first_use;
          ] );
      ( "simplify",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_incremental_sound;
            prop_budget_resume_slices;
            prop_export_roundtrip;
            prop_export_equivalent;
          ] );
    ]

(* Stress and adversarial tests for the CDCL solver and its use by the
   encoding pipeline: bigger instances, structured hard formulas, clause
   pathologies, and long incremental sessions. *)

let lit = Sat.Lit.make

let test_random_3sat_phase_transition () =
  (* 60 variables at clause ratio ~4.2: hard-ish region; the solver must
     terminate and, when SAT, return a genuine model *)
  let st = Random.State.make [| 1234 |] in
  for _ = 1 to 10 do
    let nvars = 60 in
    let nclauses = 252 in
    let clause () =
      let rec distinct acc =
        if List.length acc = 3 then acc
        else
          let v = Random.State.int st nvars in
          if List.mem v acc then distinct acc else distinct (v :: acc)
      in
      Array.of_list (List.map (fun v -> lit v (Random.State.bool st)) (distinct []))
    in
    let f = Sat.Cnf.make ~nvars (List.init nclauses (fun _ -> clause ())) in
    let s = Sat.Solver.create () in
    Sat.Solver.add_cnf s f;
    match Sat.Solver.solve s with
    | Sat.Solver.Sat -> Alcotest.(check bool) "model valid" true (Sat.Cnf.eval (Sat.Solver.model s) f)
    | Sat.Solver.Unsat -> ()
  done

(* PHP(pigeons, holes): every pigeon in some hole, no two in one *)
let php pigeons holes =
  let var p h = (p * holes) + h in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := Array.init holes (fun h -> lit (var p h) true) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        clauses := [| lit (var p1 h) false; lit (var p2 h) false |] :: !clauses
      done
    done
  done;
  Sat.Cnf.make ~nvars:(pigeons * holes) !clauses

let test_php_scaling () =
  (* pigeonhole instances force deep conflict analysis; PHP(6,5) has
     thousands of conflicts *)
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s (php 6 5);
  Alcotest.(check bool) "php(6,5) unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "real conflicts happened" true
    ((Sat.Solver.stats s).Sat.Solver.conflicts > 10);
  (* satisfiable variant: as many holes as pigeons *)
  let s2 = Sat.Solver.create () in
  Sat.Solver.add_cnf s2 (php 5 5);
  Alcotest.(check bool) "php(5,5) sat" true (Sat.Solver.solve s2 = Sat.Solver.Sat)

(* The solver keeps every learnt clause for its whole life. These two
   tests drive single solvers well past 2000 conflicts, the point where
   a learnt-database reduction would traditionally first fire, and check
   every answer. *)
let long_run = 2000

let test_php_long_run () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s (php 8 7);
  Alcotest.(check bool) "php(8,7) unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "past the long-run mark" true
    ((Sat.Solver.stats s).Sat.Solver.conflicts > long_run)

(* A satisfiable random 3-CNF (a planted assignment satisfies every
   clause) queried on one solver by alternating budgeted [solve_limited]
   slices and assumption solves until the solver has spent [long_run]
   conflicts. Every model must satisfy the CNF and the assumptions;
   every assumption [Unsat] must agree with a fresh solver loaded with
   the CNF plus the assumptions as units. The run must see both answers
   and at least one interrupted slice. *)
let test_sat_long_run () =
  let st = Random.State.make [| 2000 |] in
  let nvars = 150 in
  let planted = Array.init nvars (fun _ -> Random.State.bool st) in
  let rec clause () =
    let vs = List.init 3 (fun _ -> Random.State.int st nvars) in
    let c = List.map (fun v -> lit v (Random.State.bool st)) vs in
    if List.exists (fun l -> Sat.Lit.sign l = planted.(Sat.Lit.var l)) c then Array.of_list c
    else clause ()
  in
  let f = Sat.Cnf.make ~nvars (List.init 640 (fun _ -> clause ())) in
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s f;
  let n_sat = ref 0 and n_unsat = ref 0 and n_resumed = ref 0 in
  let check_answer assumptions = function
    | Sat.Solver.Sat ->
        incr n_sat;
        let m = Sat.Solver.model s in
        Alcotest.(check bool) "model satisfies the CNF" true (Sat.Cnf.eval m f);
        Alcotest.(check bool) "model satisfies the assumptions" true
          (List.for_all (fun l -> m.(Sat.Lit.var l) = Sat.Lit.sign l) assumptions)
    | Sat.Solver.Unsat ->
        incr n_unsat;
        let fresh = Sat.Solver.create () in
        Sat.Solver.add_cnf fresh f;
        Sat.Solver.add_units fresh assumptions;
        Alcotest.(check bool) "assumption Unsat confirmed" true
          (Sat.Solver.solve fresh = Sat.Solver.Unsat)
  in
  let rec sliced assumptions =
    Sat.Solver.set_budget ~conflicts:25 s;
    match Sat.Solver.solve_limited ~assumptions s with
    | Sat.Solver.Limited.Unknown ->
        incr n_resumed;
        sliced assumptions
    | Sat.Solver.Limited.Sat -> Sat.Solver.Sat
    | Sat.Solver.Limited.Unsat -> Sat.Solver.Unsat
  in
  let conflicts () = (Sat.Solver.stats s).Sat.Solver.conflicts in
  let round = ref 0 in
  while conflicts () <= long_run && !round < 10_000 do
    let assumptions =
      List.init (4 + Random.State.int st 8) (fun _ ->
          lit (Random.State.int st nvars) (Random.State.bool st))
    in
    let r =
      if !round mod 2 = 0 then sliced assumptions
      else Sat.Solver.solve ~assumptions s
    in
    check_answer assumptions r;
    incr round
  done;
  Alcotest.(check bool) "past the long-run mark" true (conflicts () > long_run);
  Alcotest.(check bool) "both answers and a resumed slice" true
    (!n_sat > 0 && !n_unsat > 0 && !n_resumed > 0);
  Alcotest.(check bool) "still satisfiable" true (Sat.Solver.solve s = Sat.Solver.Sat);
  check_answer [] Sat.Solver.Sat

let test_clause_pathologies () =
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_nvars s 3;
  (* tautologies are dropped silently *)
  Sat.Solver.add_clause s [ lit 0 true; lit 0 false ];
  (* duplicate literals collapse *)
  Sat.Solver.add_clause s [ lit 1 true; lit 1 true; lit 1 true ];
  Alcotest.(check (option bool)) "duplicate unit propagated" (Some true)
    (Sat.Solver.value_level0 s 1);
  (* clause false at level 0 shrinks *)
  Sat.Solver.add_clause s [ lit 1 false; lit 2 true ];
  Alcotest.(check (option bool)) "chain propagated" (Some true) (Sat.Solver.value_level0 s 2);
  Alcotest.(check bool) "still sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  (* unallocated variable rejected *)
  Alcotest.(check bool) "unallocated var" true
    (try Sat.Solver.add_clause s [ lit 99 true ]; false with Invalid_argument _ -> true)

let test_incremental_session () =
  (* long alternation of clause additions and assumption solves *)
  let s = Sat.Solver.create () in
  let n = 40 in
  Sat.Solver.ensure_nvars s n;
  (* implication chain x0 -> x1 -> ... -> x39 *)
  for v = 0 to n - 2 do
    Sat.Solver.add_clause s [ lit v false; lit (v + 1) true ]
  done;
  Alcotest.(check bool) "chain head forces tail" true
    (Sat.Solver.solve ~assumptions:[ lit 0 true; lit (n - 1) false ] s = Sat.Solver.Unsat);
  Alcotest.(check bool) "without head: free" true
    (Sat.Solver.solve ~assumptions:[ lit (n - 1) false ] s = Sat.Solver.Sat);
  (* now pin the head permanently and re-ask *)
  Sat.Solver.add_clause s [ lit 0 true ];
  Alcotest.(check bool) "tail now forced" true
    (Sat.Solver.solve ~assumptions:[ lit (n - 1) false ] s = Sat.Solver.Unsat);
  Alcotest.(check bool) "still sat unconditionally" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "model respects chain" true (Sat.Solver.model_value s (n - 1))

let test_many_solves_stats_monotone () =
  let st = Random.State.make [| 5 |] in
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_nvars s 20;
  let last_props = ref 0 in
  for _ = 1 to 50 do
    let c =
      Array.init (1 + Random.State.int st 3) (fun _ ->
          lit (Random.State.int st 20) (Random.State.bool st))
    in
    Sat.Solver.add_clause_a s c;
    ignore (Sat.Solver.solve s);
    let p = (Sat.Solver.stats s).Sat.Solver.propagations in
    Alcotest.(check bool) "propagations monotone" true (p >= !last_props);
    last_props := p
  done

(* large encoded instances: a big Person entity end-to-end *)
let test_large_person_pipeline () =
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities = 1;
        size_min = 4000;
        size_max = 4000;
        extra_events = 8;
      }
  in
  let case = List.hd ds.Datagen.Types.cases in
  let spec = Datagen.Types.spec_of ds case in
  let enc = Crcore.Encode.encode spec in
  Alcotest.(check bool) "valid" true (Crcore.Validity.check enc);
  let d = Crcore.Deduce.deduce_order enc in
  Alcotest.(check bool) "deduces something" true (Crcore.Deduce.n_facts d > 0);
  let o = Crcore.Framework.resolve ~user:(Crcore.Framework.oracle case.truth) spec in
  Alcotest.(check bool) "resolves" true o.Crcore.Framework.valid;
  Array.iteri
    (fun a vo ->
      match vo with
      | Some v ->
          Alcotest.(check bool) "matches truth" true (Value.equal v (Tuple.get case.truth a))
      | None -> Alcotest.fail "attribute left open with oracle")
    o.Crcore.Framework.resolved

let test_walksat_on_hard_hard_clauses () =
  (* hard clauses forming an implication cycle plus soft units pulling the
     other way: the feasible optimum flips the whole cycle *)
  let nvars = 10 in
  let hard =
    Sat.Cnf.make ~nvars
      (List.init nvars (fun v -> [| lit v false; lit ((v + 1) mod nvars) true |]))
  in
  let soft = List.init nvars (fun v -> [| lit v true |]) in
  match Maxsat.Walksat.solve ~max_flips:20_000 ~hard ~soft () with
  | None -> Alcotest.fail "hard is satisfiable"
  | Some o ->
      Alcotest.(check bool) "feasible" true (Sat.Cnf.eval o.Maxsat.Walksat.model hard);
      (* optimum satisfies all soft (all true satisfies the cycle) *)
      Alcotest.(check int) "optimum found" nvars o.Maxsat.Walksat.satisfied

let () =
  Alcotest.run "solver_stress"
    [
      ( "sat",
        [
          Alcotest.test_case "random 3-SAT near threshold" `Quick test_random_3sat_phase_transition;
          Alcotest.test_case "pigeonhole scaling" `Quick test_php_scaling;
          Alcotest.test_case "php(8,7) past 2000 conflicts" `Quick test_php_long_run;
          Alcotest.test_case "sat queries past 2000 conflicts" `Quick test_sat_long_run;
          Alcotest.test_case "clause pathologies" `Quick test_clause_pathologies;
          Alcotest.test_case "incremental session" `Quick test_incremental_session;
          Alcotest.test_case "stats monotone over solves" `Quick test_many_solves_stats_monotone;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "4k-tuple person end-to-end" `Slow test_large_person_pipeline;
          Alcotest.test_case "walksat hard-clause cycle" `Quick test_walksat_on_hard_hard_clauses;
        ] );
    ]

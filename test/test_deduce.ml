(* DeduceOrder / NaiveDeduce and true-value extraction (Section V-B),
   including the paper's Examples 2, 4 and 9, and soundness against the
   exhaustive reference semantics. *)

module E = Crcore.Encode
module D = Crcore.Deduce

let deduced_value d name =
  let a = Schema.index Fixtures.schema name in
  (D.true_values d).(a)

let check_value d name expect =
  match deduced_value d name with
  | Some v -> Alcotest.(check string) name expect (Value.to_string v)
  | None -> Alcotest.failf "%s: no true value deduced" name

let check_unknown d name =
  match deduced_value d name with
  | None -> ()
  | Some v -> Alcotest.failf "%s: unexpected true value %s" name (Value.to_string v)

let test_edith_example2 () =
  (* the paper's Example 2: all of Edith's true values are deducible *)
  let enc = E.encode (Fixtures.edith_spec ()) in
  let d = D.deduce_order enc in
  check_value d "name" "Edith Shain";
  check_value d "status" "deceased";
  check_value d "job" "n/a";
  check_value d "kids" "3";
  check_value d "city" "LA";
  check_value d "AC" "213";
  check_value d "zip" "90058";
  check_value d "county" "Vermont"

let test_george_example4 () =
  (* Example 4: only name and kids are determined for George *)
  let enc = E.encode (Fixtures.george_spec ()) in
  let d = D.deduce_order enc in
  check_value d "name" "George";
  check_value d "kids" "2";
  List.iter (check_unknown d) [ "status"; "job"; "city"; "AC"; "zip"; "county" ]

let test_george_partial_orders () =
  (* Example 9's deduced facts: 0<2 kids, working<retired status, and the
     ϕ5–ϕ7 consequences *)
  let enc = E.encode (Fixtures.george_spec ()) in
  let d = D.deduce_order enc in
  let coding = enc.E.coding in
  let lt name v1 v2 =
    let a = Schema.index Fixtures.schema name in
    D.lt d ~attr:a
      (Crcore.Coding.vid coding a (Value.of_string v1))
      (Crcore.Coding.vid coding a (Value.of_string v2))
  in
  Alcotest.(check bool) "kids 0<2" true (lt "kids" "0" "2");
  Alcotest.(check bool) "status working<retired" true (lt "status" "working" "retired");
  Alcotest.(check bool) "job sailor<veteran" true (lt "job" "sailor" "veteran");
  Alcotest.(check bool) "AC 401<212" true (lt "AC" "401" "212");
  Alcotest.(check bool) "zip 02840<12404" true (lt "zip" "02840" "12404");
  Alcotest.(check bool) "status retired vs unemployed open" false (lt "status" "retired" "unemployed")

let test_george_example9_after_input () =
  (* validating status = retired lets everything else be deduced *)
  let spec = Fixtures.george_spec () in
  let spec =
    Crcore.Spec.add_order_edges spec [ { Crcore.Spec.attr = "status"; lo = 2; hi = 1 } ]
  in
  let d = D.deduce_order (E.encode spec) in
  check_value d "status" "retired";
  check_value d "job" "veteran";
  check_value d "AC" "212";
  check_value d "zip" "12404";
  check_value d "city" "NY";
  check_value d "county" "Accord"

let test_candidates () =
  let enc = E.encode (Fixtures.george_spec ()) in
  let d = D.deduce_order enc in
  let cand name =
    let a = Schema.index Fixtures.schema name in
    List.map
      (fun id -> Value.to_string (Crcore.Coding.value enc.E.coding a id))
      (D.candidates d a)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "status candidates" [ "retired"; "unemployed" ] (cand "status");
  Alcotest.(check (list string)) "kids candidate" [ "2" ] (cand "kids");
  Alcotest.(check (list string)) "AC candidates" [ "212"; "312" ] (cand "AC")

let test_naive_agrees_on_paper_examples () =
  List.iter
    (fun spec ->
      let enc = E.encode spec in
      let d = D.deduce_order enc in
      let n = D.naive_deduce enc in
      let tv_d = D.true_values d and tv_n = D.true_values n in
      Array.iteri
        (fun a vd ->
          let vn = tv_n.(a) in
          match (vd, vn) with
          | Some x, Some y ->
              Alcotest.(check string) "same value" (Value.to_string x) (Value.to_string y)
          | None, None -> ()
          | Some x, None ->
              (* DeduceOrder may find strictly more via negative units *)
              ignore x
          | None, Some y ->
              Alcotest.failf "naive found %s where deduce_order did not" (Value.to_string y))
        tv_d)
    [ Fixtures.edith_spec (); Fixtures.george_spec () ]

let test_n_facts_monotone () =
  (* adding user input can only grow the deduced order *)
  let spec = Fixtures.george_spec () in
  let d0 = D.deduce_order (E.encode spec) in
  let spec' =
    Crcore.Spec.add_order_edges spec [ { Crcore.Spec.attr = "status"; lo = 2; hi = 1 } ]
  in
  let d1 = D.deduce_order (E.encode spec') in
  Alcotest.(check bool) "monotone" true (D.n_facts d1 > D.n_facts d0)

(* ---- differential properties against the reference semantics ---- *)

let prop_deduced_facts_implied =
  QCheck.Test.make ~count:120 ~name:"every Od fact holds in all valid completions (exact mode)"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode ~mode:E.Exact spec in
      if not (Crcore.Validity.check enc) then true
      else begin
        let d = D.deduce_order enc in
        let coding = enc.E.coding in
        let schema = Crcore.Coding.schema coding in
        let ok = ref true in
        Array.iteri
          (fun a o ->
            List.iter
              (fun (lo, hi) ->
                let v1 = Crcore.Coding.value coding a lo in
                let v2 = Crcore.Coding.value coding a hi in
                match
                  Crcore.Reference.implied spec ~attr:(Schema.name schema a) v1 v2
                with
                | Some true | None -> ()
                | Some false -> ok := false)
              (Porder.Strict_order.pairs o))
          d.D.od;
        !ok
      end)

let prop_true_values_agree_with_reference =
  QCheck.Test.make ~count:120 ~name:"deduced true values match reference agreement (exact mode)"
    Fixtures.qcheck_spec (fun spec ->
      match Crcore.Reference.analyze spec with
      | None -> true
      | Some r ->
          if not r.Crcore.Reference.valid then true
          else begin
            let enc = E.encode ~mode:E.Exact spec in
            let d = D.deduce_order enc in
            let tv = D.true_values d in
            let ok = ref true in
            Array.iteri
              (fun a vo ->
                match (vo, r.Crcore.Reference.agreed.(a)) with
                | Some v, Some w -> if not (Value.equal v w) then ok := false
                | Some _, None -> ok := false
                | None, _ -> ())
              tv;
            !ok
          end)

let prop_naive_facts_implied =
  QCheck.Test.make ~count:60 ~name:"naive_deduce facts hold in all valid completions (exact mode)"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode ~mode:E.Exact spec in
      if not (Crcore.Validity.check enc) then true
      else begin
        let n = D.naive_deduce enc in
        let coding = enc.E.coding in
        let schema = Crcore.Coding.schema coding in
        let ok = ref true in
        Array.iteri
          (fun a o ->
            List.iter
              (fun (lo, hi) ->
                match
                  Crcore.Reference.implied spec ~attr:(Schema.name schema a)
                    (Crcore.Coding.value coding a lo) (Crcore.Coding.value coding a hi)
                with
                | Some true | None -> ()
                | Some false -> ok := false)
              (Porder.Strict_order.pairs o))
          n.D.od;
        !ok
      end)

(* completeness, not just soundness: in Exact mode the backbone is
   exactly the implication relation the exhaustive reference decides —
   every ordered pair of distinct universe values, both orientations *)
let prop_backbone_equals_reference =
  QCheck.Test.make ~count:100 ~name:"backbone facts == reference implied pairs (exact mode)"
    Fixtures.qcheck_spec (fun spec ->
      let limit = 20_000 in
      match Crcore.Reference.analyze ~limit spec with
      | None -> true
      | Some r when not r.Crcore.Reference.valid -> true
      | Some _ ->
          let enc = E.encode ~mode:E.Exact spec in
          let d = D.backbone enc in
          let coding = enc.E.coding in
          let schema = Crcore.Coding.schema coding in
          let ok = ref true in
          for a = 0 to Schema.arity schema - 1 do
            let n = Array.length (Crcore.Coding.universe coding a) in
            for lo = 0 to n - 1 do
              for hi = 0 to n - 1 do
                if lo <> hi then
                  let expect =
                    Crcore.Reference.implied ~limit spec ~attr:(Schema.name schema a)
                      (Crcore.Coding.value coding a lo) (Crcore.Coding.value coding a hi)
                  in
                  if expect <> Some (D.lt d ~attr:a lo hi) then ok := false
              done
            done
          done;
          !ok)

(* ---- backbone: complete deduction by model intersection ---- *)

let sorted_pairs (d : D.t) =
  Array.map (fun o -> List.sort compare (Porder.Strict_order.pairs o)) d.D.od

let same_orders a b =
  let pa = sorted_pairs a and pb = sorted_pairs b in
  Array.length pa = Array.length pb && Array.for_all2 ( = ) pa pb

let subset_orders a b =
  (* every pair of [a]'s closure appears in [b]'s *)
  Array.for_all2
    (fun pa pb -> List.for_all (fun p -> List.mem p pb) pa)
    (sorted_pairs a) (sorted_pairs b)

let test_backbone_on_paper_examples () =
  List.iter
    (fun spec ->
      let enc = E.encode spec in
      let b = D.backbone enc in
      let n = D.naive_deduce enc in
      Alcotest.(check bool) "backbone od == naive od" true (same_orders b n);
      Alcotest.(check bool) "fewer SAT calls than naive" true
        (b.D.stats.D.sat_calls < n.D.stats.D.sat_calls))
    [ Fixtures.edith_spec (); Fixtures.george_spec () ]

(* a session solver with the static closure seeded as unit clauses (so the
   level-0 trail already holds the static facts), then the validity solve
   whose model the deducer starts from: the set-up [Deduce.backbone
   ?static] documents, kept for callers that saturate first *)
let seeded_session enc cl =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s enc.E.cnf;
  Sat.Solver.add_units s (Crcore.Saturate.unit_lits cl);
  let sat = Sat.Solver.solve s = Sat.Solver.Sat in
  (s, sat)

(* the headline property (both encoding modes, with a reused session
   solver, and with a closure-seeded one): backbone computes exactly
   NaiveDeduce's positive backbone *)
let prop_backbone_equals_naive =
  QCheck.Test.make ~count:300 ~name:"backbone == naive_deduce (both modes, fresh + reused solver)"
    Fixtures.qcheck_spec (fun spec ->
      List.for_all
        (fun mode ->
          let enc = E.encode ~mode spec in
          if not (Crcore.Validity.check enc) then true
          else begin
            let n = D.naive_deduce enc in
            let b = D.backbone enc in
            (* a live session: CNF loaded, validity solved (model saved) *)
            let s = Sat.Solver.create () in
            Sat.Solver.add_cnf s enc.E.cnf;
            let sat = Sat.Solver.solve s = Sat.Solver.Sat in
            let br = D.backbone ~solver:s enc in
            let cl = Crcore.Saturate.of_encode enc in
            let se, sat_e = seeded_session enc cl in
            let be = D.backbone ~solver:se enc in
            (* a complete closure handed over as [static] *)
            let static_ok =
              (not (Crcore.Saturate.complete cl))
              ||
              let ss, sat_s = seeded_session enc cl in
              let bs = D.backbone ~solver:ss ~static:(Crcore.Saturate.fact_vars cl) enc in
              sat_s && same_orders bs n
            in
            sat && sat_e && same_orders b n && same_orders br n && same_orders be n
            && static_ok
            && b.D.stats.D.sat_calls <= enc.E.cnf.Sat.Cnf.nvars + 1
            && br.D.stats.D.reused_solver
            && (not b.D.stats.D.reused_solver)
          end)
        [ E.Paper; E.Exact ])

(* one long-history entity in its smoke shape (Exact mode, 300 tuples, 10
   extra life events), deduced on an engine-shaped session. Probe counts
   are deterministic: 16 before phase-guided probes, 2 with them. The
   bound sits 4x below the old count, so losing the phase guidance fails
   here even where the answers stay right. *)
let test_backbone_probe_count () =
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities = 1;
        size_min = 300;
        size_max = 300;
        extra_events = 10;
        seed = 2013;
      }
  in
  let enc = E.encode ~mode:E.Exact (Datagen.Types.spec_of ds (List.hd ds.Datagen.Types.cases)) in
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s enc.E.cnf;
  Alcotest.(check bool) "valid" true (Sat.Solver.solve s = Sat.Solver.Sat);
  let b = D.backbone ~solver:s enc in
  Alcotest.(check bool) "backbone od == naive od" true (same_orders b (D.naive_deduce enc));
  let probes = b.D.stats.D.probes in
  if probes > 4 then Alcotest.failf "%d probes, bound 4" probes

(* ---- true values decided without the backbone ---- *)

(* a session: Φ(Se) loaded, validity solved (model saved) *)
let session enc =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s enc.E.cnf;
  (s, Sat.Solver.solve s = Sat.Solver.Sat)

(* an Se ⊕ Ot step on a live session: the entity's first tuple appended
   again, asserted current on the spec's first attribute; the session
   takes the delta clauses when the extension rides [Encode.extend]'s
   Delta path, and reloads otherwise *)
let extended_session enc s =
  let spec = enc.E.spec in
  let schema = Crcore.Spec.schema spec in
  let t0 = List.hd (Entity.tuples spec.Crcore.Spec.entity) in
  let spec' = Crcore.Spec.extend_with_tuple spec t0 ~current_attrs:[ Schema.name schema 0 ] in
  match E.extend enc spec' with
  | Some (E.Delta (enc', delta)) ->
      List.iter (Sat.Solver.add_clause_a s) delta;
      (enc', s)
  | Some (E.Renumbered enc') -> (enc', fst (session enc'))
  | None ->
      let enc' = E.encode ~mode:enc.E.mode spec' in
      (enc', fst (session enc'))

let decided_equals_backbone ?solver enc =
  let tv = D.decide_true_values ?solver enc in
  tv.D.complete && tv.D.values = D.true_values (D.backbone enc)

(* the deducer's answer is the backbone's: on a fresh solver, on a
   validity-solved session, on a session after a delta extension, and on
   one carrying a suggestion's MaxSAT layer; in both modes *)
let prop_decided_equals_backbone =
  QCheck.Test.make ~count:500 ~name:"decide_true_values == true_values (backbone) (both modes)"
    Fixtures.qcheck_spec (fun spec ->
      List.for_all
        (fun mode ->
          let enc = E.encode ~mode spec in
          (not (Crcore.Validity.check enc))
          || decided_equals_backbone enc
             && (let s, sat = session enc in
                 sat && decided_equals_backbone ~solver:s enc)
             && (let s, _ = session enc in
                 let enc', s' = extended_session enc s in
                 (not (Crcore.Validity.check enc'))
                 || (Sat.Solver.solve s' = Sat.Solver.Sat
                    && decided_equals_backbone ~solver:s' enc'))
             &&
             let s, _ = session enc in
             let d = D.backbone ~solver:s enc in
             ignore (Crcore.Rules.suggest ~solver:s d ~known:(D.true_values d));
             decided_equals_backbone ~solver:s enc)
        [ E.Paper; E.Exact ])

(* under a conflict budget every value reported is the unbudgeted one,
   and an uninterrupted run reports them all *)
let prop_budgeted_decided_subset =
  QCheck.Test.make ~count:300 ~name:"budgeted decide_true_values ⊆ unbudgeted (both modes)"
    QCheck.(pair Fixtures.qcheck_spec (int_bound 20))
    (fun (spec, budget) ->
      List.for_all
        (fun mode ->
          let enc = E.encode ~mode spec in
          (not (Crcore.Validity.check enc))
          ||
          let full = D.decide_true_values enc in
          let cut = D.decide_true_values ~budget enc in
          Array.for_all2 (fun c f -> c = None || c = f) cut.D.values full.D.values
          && ((not cut.D.complete) || cut.D.values = full.D.values))
        [ E.Paper; E.Exact ])

(* deduce_order reads negative units as reversed pairs, which is sound
   under the total-order completion semantics the Exact mode encodes — so
   the subset relation against the complete deducers holds there *)
let prop_deduce_order_subset_of_complete =
  QCheck.Test.make ~count:200 ~name:"deduce_order facts subset of backbone and naive (exact mode)"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode ~mode:E.Exact spec in
      if not (Crcore.Validity.check enc) then true
      else begin
        let u = D.deduce_order enc in
        let b = D.backbone enc in
        let n = D.naive_deduce enc in
        subset_orders u b && subset_orders u n
      end)

(* duplicate literals within a clause must not change what loading
   derives at level 0 *)
let prop_duplicate_literals_harmless =
  QCheck.Test.make ~count:100 ~name:"deduce_order unchanged under duplicated clause literals"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode spec in
      let dup =
        {
          enc with
          E.cnf =
            Sat.Cnf.unsafe_make ~blocks:enc.E.cnf.Sat.Cnf.blocks ~nvars:enc.E.cnf.Sat.Cnf.nvars
              (List.map
                 (fun c -> Array.append c c)
                 (Sat.Cnf.clauses enc.E.cnf));
        }
      in
      same_orders (D.deduce_order enc) (D.deduce_order dup))

(* ---- the level-0 trail against the list-based reference ---- *)

(* the facts of the reference fixpoint's literals, read as deduce_order
   ([reversed]: a negative Paper-mode unit gives the reversed pair) and
   deduce_units (facts only) read the level-0 trail *)
let reference_pairs ~reversed enc lits =
  let coding = enc.E.coding in
  let od =
    Array.init
      (Schema.arity (Crcore.Coding.schema coding))
      (fun a -> Porder.Strict_order.create (Array.length (Crcore.Coding.universe coding a)))
  in
  let add { E.attr; lo; hi } = ignore (Porder.Strict_order.add od.(attr) lo hi) in
  List.iter
    (fun l ->
      match E.fact_of_lit enc l with
      | Some f -> add f
      | None ->
          if reversed then
            Option.iter
              (fun f -> add { f with E.lo = f.E.hi; hi = f.E.lo })
              (E.fact_of_lit enc (Sat.Lit.negate l)))
    lits;
  Array.map (fun o -> List.sort compare (Porder.Strict_order.pairs o)) od

(* refuted by both or by neither, and the same facts when not refuted *)
let trail_matches_reference enc =
  match (Sat.Unit_prop.propagate enc.E.cnf, D.deduce_units enc) with
  | None, None -> true
  | Some lits, Some u ->
      sorted_pairs u = reference_pairs ~reversed:false enc lits
      && sorted_pairs (D.deduce_order enc) = reference_pairs ~reversed:true enc lits
  | Some _, None | None, Some _ -> false

(* every clause written twice over: the solver dedupes literals on load,
   the reference per clause *)
let duplicated enc =
  let cnf = enc.E.cnf in
  {
    enc with
    E.cnf =
      Sat.Cnf.unsafe_make ~blocks:cnf.Sat.Cnf.blocks ~nvars:cnf.Sat.Cnf.nvars
        (List.map (fun c -> Array.append c c) (Sat.Cnf.clauses cnf));
  }

(* the spec with tuples 0 and 1 ordered both ways on [a]: refuted by unit
   propagation whenever the two tuples differ there *)
let contradicted spec =
  Crcore.Spec.add_order_edges spec
    [ { Crcore.Spec.attr = "a"; lo = 0; hi = 1 }; { Crcore.Spec.attr = "a"; lo = 1; hi = 0 } ]

let prop_trail_equals_unit_prop =
  QCheck.Test.make ~count:500
    ~name:"deduce_order/deduce_units == list-based unit propagation (both modes)"
    Fixtures.qcheck_spec (fun spec ->
      List.for_all
        (fun mode ->
          let enc = E.encode ~mode spec in
          trail_matches_reference enc
          && trail_matches_reference (duplicated enc)
          && trail_matches_reference (E.encode ~mode (contradicted spec)))
        [ E.Paper; E.Exact ])

(* contradictory orders on George: the reference and the trail both
   refute, so deduce_units answers [None] *)
let test_unit_refutation () =
  let spec =
    Crcore.Spec.add_order_edges (Fixtures.george_spec ())
      [
        { Crcore.Spec.attr = "status"; lo = 0; hi = 1 };
        { Crcore.Spec.attr = "status"; lo = 1; hi = 0 };
      ]
  in
  List.iter
    (fun mode ->
      let enc = E.encode ~mode spec in
      Alcotest.(check bool) "reference refutes" true (Sat.Unit_prop.propagate enc.E.cnf = None);
      Alcotest.(check bool) "deduce_units refutes" true (D.deduce_units enc = None);
      Alcotest.(check int) "deduce_order: no facts" 0 (D.n_facts (D.deduce_order enc)))
    [ E.Paper; E.Exact ]

(* [crsolve batch --dump-dimacs]'s path on an Exact encoding: the solver's
   DIMACS dump lists the order axioms its tournament blocks stand for, so
   a fresh solver loaded from the parsed dump agrees on validity and on
   the backbone *)
let prop_exact_dimacs_dump =
  QCheck.Test.make ~count:150 ~name:"Exact DIMACS dump: same validity and backbone"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode ~mode:E.Exact spec in
      let s = Sat.Solver.create () in
      Sat.Solver.add_cnf s enc.E.cnf;
      let dumped = Sat.Dimacs.parse_string (Sat.Dimacs.of_solver s) in
      let fresh = Sat.Solver.create () in
      Sat.Solver.add_cnf fresh dumped;
      let valid = Crcore.Validity.check enc in
      let axioms =
        List.fold_left
          (fun n b -> n + List.length (Sat.Cnf.block_clauses b))
          0 enc.E.cnf.Sat.Cnf.blocks
      in
      valid = (Sat.Solver.solve fresh = Sat.Solver.Sat)
      && dumped.Sat.Cnf.blocks = []
      && ((not valid) || Sat.Cnf.nclauses dumped >= axioms)
      && ((not valid) || same_orders (D.backbone enc) (D.backbone ~solver:fresh enc)))

let () =
  Alcotest.run "deduce"
    [
      ( "paper_examples",
        [
          Alcotest.test_case "Edith: Example 2" `Quick test_edith_example2;
          Alcotest.test_case "George: Example 4" `Quick test_george_example4;
          Alcotest.test_case "George: deduced orders" `Quick test_george_partial_orders;
          Alcotest.test_case "George: Example 9 after input" `Quick test_george_example9_after_input;
          Alcotest.test_case "candidate sets V(A)" `Quick test_candidates;
          Alcotest.test_case "naive vs deduce_order" `Quick test_naive_agrees_on_paper_examples;
          Alcotest.test_case "monotonicity" `Quick test_n_facts_monotone;
          Alcotest.test_case "backbone on paper examples" `Quick test_backbone_on_paper_examples;
          Alcotest.test_case "backbone probe count, long history" `Quick test_backbone_probe_count;
          Alcotest.test_case "unit refutation" `Quick test_unit_refutation;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_deduced_facts_implied;
            prop_true_values_agree_with_reference;
            prop_naive_facts_implied;
            prop_backbone_equals_reference;
            prop_backbone_equals_naive;
            prop_decided_equals_backbone;
            prop_budgeted_decided_subset;
            prop_deduce_order_subset_of_complete;
            prop_duplicate_literals_harmless;
            prop_trail_equals_unit_prop;
            prop_exact_dimacs_dump;
          ] );
    ]

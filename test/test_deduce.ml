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

(* duplicate literals within a clause must not corrupt the occurrence
   counting (n_active would go negative / fire bogus units) *)
let prop_duplicate_literals_harmless =
  QCheck.Test.make ~count:100 ~name:"deduce_order unchanged under duplicated clause literals"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode spec in
      let dup =
        {
          enc with
          E.cnf =
            Sat.Cnf.unsafe_make ~nvars:enc.E.cnf.Sat.Cnf.nvars
              (List.map
                 (fun c -> Array.append c c)
                 enc.E.cnf.Sat.Cnf.clauses);
        }
      in
      same_orders (D.deduce_order enc) (D.deduce_order dup))

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
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_deduced_facts_implied;
            prop_true_values_agree_with_reference;
            prop_naive_facts_implied;
            prop_backbone_equals_reference;
            prop_backbone_equals_naive;
            prop_deduce_order_subset_of_complete;
            prop_duplicate_literals_harmless;
          ] );
    ]

(* Derivation rules, the compatibility graph and Suggest (Section V-C):
   the paper's Examples 10–13 are checked literally. *)

module E = Crcore.Encode
module D = Crcore.Deduce
module R = Crcore.Rules

let george_deduction () =
  let enc = E.encode (Fixtures.george_spec ()) in
  let d = D.deduce_order enc in
  let known = D.true_values d in
  (d, known)

let rule_to_string d r = Format.asprintf "%a" (R.pp_rule d) r

let test_example10_rules () =
  let d, known = george_deduction () in
  let rules = R.derive_rules d ~known in
  let strings = List.sort compare (List.map (rule_to_string d) rules) in
  let expect =
    List.sort compare
      [
        "(status = retired) -> job = veteran";
        "(status = retired) -> AC = 212";
        "(status = retired) -> zip = 12404";
        "(city = NY, zip = 12404) -> county = Accord";
        "(AC = 212) -> city = NY";
        "(status = unemployed) -> job = n/a";
        "(status = unemployed) -> AC = 312";
        "(status = unemployed) -> zip = 60653";
        "(city = Chicago, zip = 60653) -> county = Bronzeville";
      ]
  in
  Alcotest.(check (list string)) "the paper's n1..n9" expect strings

let find_rule d rules s =
  match List.find_opt (fun r -> rule_to_string d r = s) rules with
  | Some r -> r
  | None -> Alcotest.failf "rule %s not derived" s

let test_example11_compatibility () =
  let d, known = george_deduction () in
  let rules = R.derive_rules d ~known in
  let g = R.compatibility_graph rules in
  let idx s =
    let r = find_rule d rules s in
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = r then i else go (i + 1) rest
    in
    go 0 rules
  in
  let n1 = idx "(status = retired) -> job = veteran" in
  let n2 = idx "(status = retired) -> AC = 212" in
  let n5 = idx "(AC = 212) -> city = NY" in
  let n7 = idx "(status = unemployed) -> AC = 312" in
  let n6 = idx "(status = unemployed) -> job = n/a" in
  Alcotest.(check bool) "n1-n2 compatible" true (Clique.Ugraph.has_edge g n1 n2);
  Alcotest.(check bool) "n5-n7 incompatible (different AC)" false (Clique.Ugraph.has_edge g n5 n7);
  Alcotest.(check bool) "n1-n6 incompatible (same attr)" false (Clique.Ugraph.has_edge g n1 n6);
  Alcotest.(check bool) "n2-n5 compatible (AC agrees)" true (Clique.Ugraph.has_edge g n2 n5)

let test_example12_suggestion () =
  let d, known = george_deduction () in
  let s = R.suggest d ~known in
  let names l = List.sort compare (List.map (Schema.name Fixtures.schema) l) in
  Alcotest.(check (list string)) "ask exactly status" [ "status" ] (names s.R.attrs);
  Alcotest.(check (list string)) "A' = job AC zip city county"
    [ "AC"; "city"; "county"; "job"; "zip" ]
    (names s.R.derivable);
  Alcotest.(check int) "max clique of 5 rules" 5 s.R.clique_size;
  Alcotest.(check int) "no conflict: full clique kept" 5 s.R.repaired_clique_size;
  (* the candidate values offered for status are its V(A) *)
  (match s.R.candidates with
  | [ (a, vals) ] ->
      Alcotest.(check string) "candidate attr" "status" (Schema.name Fixtures.schema a);
      Alcotest.(check (list string)) "candidate values" [ "retired"; "unemployed" ]
        (List.sort compare (List.map Value.to_string vals))
  | _ -> Alcotest.fail "expected one candidate set")

let test_example13_repair () =
  (* Example 13: the clique {n5, n6, n8} embeds conflicting values; MaxSAT
     keeps a consistent subset. We reproduce it by checking that rules n5
     (city = NY from AC = 212) and n7 (AC = 312) can't survive together:
     suggest never returns a repaired clique with conflicting AC values. *)
  let d, known = george_deduction () in
  let rules = R.derive_rules d ~known in
  let n5 = find_rule d rules "(AC = 212) -> city = NY" in
  let n6 = find_rule d rules "(status = unemployed) -> job = n/a" in
  let n8 = find_rule d rules "(status = unemployed) -> zip = 60653" in
  (* n5 assumes AC=212 is most current; n6/n8 assume status=unemployed,
     which via ϕ6 makes AC=312 most current: jointly inconsistent *)
  ignore (n5, n6, n8);
  let enc = (E.encode (Fixtures.george_spec ())) in
  let s_full = Sat.Solver.create () in
  Sat.Solver.add_cnf s_full enc.E.cnf;
  let coding = enc.E.coding in
  let a_ac = Schema.index Fixtures.schema "AC" in
  let a_status = Schema.index Fixtures.schema "status" in
  let unit attr lo hi = Crcore.Coding.lit_of coding ~attr lo hi in
  let vid attr s = Crcore.Coding.vid coding attr (Value.of_string s) in
  (* AC=212 on top and status=unemployed on top cannot hold together *)
  let assumptions =
    [
      unit a_ac (vid a_ac "401") (vid a_ac "212");
      unit a_ac (vid a_ac "312") (vid a_ac "212");
      unit a_status (vid a_status "working") (vid a_status "unemployed");
      unit a_status (vid a_status "retired") (vid a_status "unemployed");
    ]
  in
  Alcotest.(check bool) "conflicting assumptions unsat" true
    (Sat.Solver.solve ~assumptions s_full = Sat.Solver.Unsat)

let test_suggest_empty_rules () =
  (* with no constraints there are no rules; suggest falls back to asking
     every unknown attribute *)
  let spec = Crcore.Spec.make Fixtures.george_entity ~orders:[] ~sigma:[] ~gamma:[] in
  let enc = E.encode spec in
  let d = D.deduce_order enc in
  let known = D.true_values d in
  let s = R.suggest d ~known in
  let unknowns = Array.to_list known |> List.filter (fun v -> v = None) |> List.length in
  Alcotest.(check int) "asks all unknowns" unknowns (List.length s.R.attrs);
  Alcotest.(check int) "nothing derivable" 0 (List.length s.R.derivable)

let test_walksat_repair_mode () =
  let d, known = george_deduction () in
  let s = R.suggest ~repair:R.Walksat d ~known in
  (* same suggestion shape as the exact repair on this conflict-free clique *)
  Alcotest.(check int) "clique kept" s.R.clique_size s.R.repaired_clique_size

let prop_suggestion_covers_unknowns =
  QCheck.Test.make ~count:100 ~name:"suggested ∪ derivable ∪ known covers all attributes"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode spec in
      if not (Crcore.Validity.check enc) then true
      else begin
        let d = D.deduce_order enc in
        let known = D.true_values d in
        let s = R.suggest d ~known in
        let arity = Schema.arity (Crcore.Spec.schema spec) in
        List.for_all
          (fun a ->
            known.(a) <> None || List.mem a s.R.attrs || List.mem a s.R.derivable)
          (List.init arity Fun.id)
      end)

let prop_clique_edges_sound =
  (* every edge of the compatibility graph joins rules that derive
     different attributes and agree on shared assignments — the defining
     property of Example 11 *)
  QCheck.Test.make ~count:80 ~name:"compatibility edges are sound" Fixtures.qcheck_spec
    (fun spec ->
      let enc = Crcore.Encode.encode spec in
      if not (Crcore.Validity.check enc) then true
      else begin
        let d = Crcore.Deduce.deduce_order enc in
        let known = Crcore.Deduce.true_values d in
        let rules = Array.of_list (R.derive_rules d ~known) in
        let g = R.compatibility_graph (Array.to_list rules) in
        let n = Array.length rules in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if Clique.Ugraph.has_edge g i j then begin
              let ri = rules.(i) and rj = rules.(j) in
              if ri.R.b = rj.R.b then ok := false;
              let mi = (ri.R.b, ri.R.bval) :: ri.R.x and mj = (rj.R.b, rj.R.bval) :: rj.R.x in
              List.iter
                (fun (a, v) ->
                  match List.assoc_opt a mj with
                  | Some w when w <> v -> ok := false
                  | _ -> ())
                mi
            end
          done
        done;
        !ok
      end)

let prop_repaired_clique_consistent =
  QCheck.Test.make ~count:100 ~name:"repaired clique never exceeds the clique"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode spec in
      if not (Crcore.Validity.check enc) then true
      else begin
        let d = D.deduce_order enc in
        let known = D.true_values d in
        let s = R.suggest d ~known in
        s.R.repaired_clique_size <= s.R.clique_size
      end)

let () =
  Alcotest.run "rules"
    [
      ( "paper_examples",
        [
          Alcotest.test_case "Example 10: derivation rules" `Quick test_example10_rules;
          Alcotest.test_case "Example 11: compatibility graph" `Quick test_example11_compatibility;
          Alcotest.test_case "Example 12: suggestion" `Quick test_example12_suggestion;
          Alcotest.test_case "Example 13: conflicting clique" `Quick test_example13_repair;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "no rules fallback" `Quick test_suggest_empty_rules;
          Alcotest.test_case "walksat repair" `Quick test_walksat_repair_mode;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_suggestion_covers_unknowns;
            prop_clique_edges_sound;
            prop_repaired_clique_consistent;
          ] );
    ]

(* The spec linter: one positive and one negative unit case per
   diagnostic code, SAT cross-checks that every E-level construction is
   indeed unsatisfiable, and qcheck properties tying the analysis to the
   solver-backed semantics (soundness: an E-level diagnostic implies the
   encoding is unsatisfiable; the engine's rejection before solving
   never changes what a batch resolves). *)

module A = Crcore.Analyze
module E = Crcore.Engine
module F = Crcore.Framework

let parse = Currency.Parser.parse_exn

let mk_cfd lhs (battr, bval) =
  Cfd.Constant_cfd.make
    (List.map (fun (a, v) -> (a, Value.of_string v)) lhs)
    (battr, Value.of_string bval)

let edge attr lo hi = { Crcore.Spec.attr; lo; hi }

(* all unit cases run over the paper's Edith entity (Fig. 2): adoms
   name = {Edith Shain}, status = {working, retired, deceased},
   job = {nurse, n/a}, city = {NY, SFC, LA}, AC = {212, 415, 213} *)
let mk ?(orders = []) ?(sigma = []) ?(gamma = []) () =
  Crcore.Spec.make Fixtures.edith_entity ~orders ~sigma ~gamma

let codes_of ds = List.map (fun (d : A.diagnostic) -> d.A.code) ds
let codes spec = codes_of (A.analyze spec)
let check_has msg code spec = Alcotest.(check bool) msg true (List.mem code (codes spec))
let check_not msg code spec = Alcotest.(check bool) msg false (List.mem code (codes spec))

let check_unsat msg spec =
  Alcotest.(check bool) msg false (Crcore.Validity.check (Crcore.Encode.encode spec))

let check_sat msg spec =
  Alcotest.(check bool) msg true (Crcore.Validity.check (Crcore.Encode.encode spec))

(* ---- errors ---- *)

let test_e001 () =
  let cyc = mk ~orders:[ edge "status" 0 1; edge "status" 1 0 ] () in
  check_has "value-level order cycle" "E001" cyc;
  check_unsat "SAT agrees: cyclic order is unsat" cyc;
  check_not "acyclic order" "E001" (mk ~orders:[ edge "status" 0 1 ] ())

let phi = parse {|t1[status] = "working" & t2[status] = "retired" -> prec(status)|}
let phi_mirror = parse {|t1[status] = "retired" & t2[status] = "working" -> prec(status)|}

let test_e002 () =
  let contradictory = mk ~sigma:[ phi; phi_mirror ] () in
  check_has "contradictory ground instances" "E002" contradictory;
  check_unsat "SAT agrees: contradictory closure is unsat" contradictory;
  check_not "one direction only" "E002" (mk ~sigma:[ phi ] ())

let test_e003 () =
  (* name is a singleton adom, so both LHS patterns are forced *)
  let g v = mk_cfd [ ("name", "Edith Shain") ] ("city", v) in
  let forced = mk ~gamma:[ g "NY"; g "LA" ] () in
  check_has "forced contradictory CFDs" "E003" forced;
  check_unsat "SAT agrees: forced conflict is unsat" forced;
  (* same conflict over a non-singleton adom is W006 territory, not E003 *)
  let g' v = mk_cfd [ ("AC", "213") ] ("city", v) in
  check_not "unforced conflict" "E003" (mk ~gamma:[ g' "NY"; g' "LA" ] ())

let test_e004 () =
  let dead_end = mk ~gamma:[ mk_cfd [ ("name", "Edith Shain") ] ("city", "Paris") ] () in
  check_has "forced LHS, RHS never occurs" "E004" dead_end;
  check_not "E004 subsumes the W002 veto warning" "W002" dead_end;
  check_unsat "SAT agrees: forced dead-end is unsat" dead_end;
  check_not "RHS in adom" "E004" (mk ~gamma:[ mk_cfd [ ("name", "Edith Shain") ] ("city", "NY") ] ())

(* ---- warnings ---- *)

let test_w001 () =
  check_has "dead CFD" "W001" (mk ~gamma:[ mk_cfd [ ("AC", "999") ] ("city", "NY") ] ());
  check_not "live CFD" "W001" (mk ~gamma:[ mk_cfd [ ("AC", "213") ] ("city", "LA") ] ())

let test_w002 () =
  let veto = mk ~gamma:[ mk_cfd [ ("AC", "213") ] ("city", "Paris") ] () in
  check_has "veto CFD" "W002" veto;
  check_sat "a veto alone stays satisfiable" veto;
  check_not "RHS occurs" "W002" (mk ~gamma:[ mk_cfd [ ("AC", "213") ] ("city", "LA") ] ())

let test_w003 () =
  let vacuous = parse {|t1[status] = "fired" & t2[status] = "working" -> prec(status)|} in
  check_has "no instance on this entity" "W003" (mk ~sigma:[ vacuous ] ());
  check_not "instantiating constraint" "W003" (mk ~sigma:[ phi ] ())

let test_w004 () =
  check_has "duplicate edge" "W004" (mk ~orders:[ edge "status" 0 1; edge "status" 0 1 ] ());
  check_not "distinct edges" "W004" (mk ~orders:[ edge "status" 0 1; edge "status" 1 2 ] ())

let test_w005 () =
  (* Edith tuples 1 and 2 both hold job = "n/a" *)
  check_has "equal-value edge" "W005" (mk ~orders:[ edge "job" 1 2 ] ());
  check_not "differing values" "W005" (mk ~orders:[ edge "status" 0 1 ] ())

let test_w006 () =
  let g v = mk_cfd [ ("AC", "213") ] ("city", v) in
  let conflict = mk ~gamma:[ g "LA"; g "NY" ] () in
  check_has "unifiable LHS, contradictory RHS" "W006" conflict;
  check_sat "unforced conflict stays satisfiable" conflict;
  check_not "disjoint LHS patterns" "W006"
    (mk ~gamma:[ mk_cfd [ ("AC", "213") ] ("city", "LA"); mk_cfd [ ("AC", "212") ] ("city", "NY") ] ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec has i = i + m <= n && (String.sub s i m = sub || has (i + 1)) in
  has 0

let test_e005 () =
  (* the saturation fixpoint proves unsatisfiability and the report
     carries the derivation chain *)
  let contradictory = mk ~sigma:[ phi; phi_mirror ] () in
  let ds = A.analyze contradictory in
  (match List.find_opt (fun (d : A.diagnostic) -> d.A.code = "E005") ds with
  | None -> Alcotest.fail "expected an E005 static refutation"
  | Some d ->
      Alcotest.(check bool) "severity" true (d.A.severity = A.Error);
      Alcotest.(check bool) "certificate chain printed" true (contains d.A.message "sigma["));
  check_not "satisfiable spec" "E005" (mk ~sigma:[ phi ] ())

let test_w007 () =
  (* semantic subsumption across distinct constraints: the direct
     status->job shortcut is implied by phi composed with phi5 *)
  let phi5 = parse {|prec(status) -> prec(job)|} in
  let shortcut = parse {|t1[status] = "working" & t2[status] = "retired" -> prec(job)|} in
  let spec = mk ~sigma:[ phi; phi5; shortcut ] () in
  (match
     List.find_opt (fun (d : A.diagnostic) -> d.A.code = "W007") (A.analyze spec)
   with
  | None -> Alcotest.fail "expected the shortcut to be flagged W007"
  | Some d -> Alcotest.(check bool) "flagged at the shortcut" true (d.A.subject = A.Sigma 2));
  check_not "lone constraint carries its instances" "W007" (mk ~sigma:[ phi ] ());
  check_not "composition members are not subsumed" "W007" (mk ~sigma:[ phi; phi5 ] ())

(* ---- info ---- *)

let test_i001 () =
  let s1 = parse {|prec(status) -> prec(job)|} in
  check_has "sub-conjunction premise" "I001"
    (mk ~sigma:[ s1; parse {|prec(status) & prec(city) -> prec(job)|} ] ());
  check_not "different conclusions" "I001"
    (mk ~sigma:[ s1; parse {|prec(status) & prec(city) -> prec(county)|} ] ())

let test_i002 () =
  let c1 = mk_cfd [ ("AC", "212") ] ("city", "NY") in
  check_has "sub-pattern LHS" "I002"
    (mk ~gamma:[ c1; mk_cfd [ ("AC", "212"); ("zip", "10036") ] ("city", "NY") ] ());
  check_not "different RHS" "I002"
    (mk ~gamma:[ c1; mk_cfd [ ("AC", "212"); ("zip", "10036") ] ("city", "SFC") ] ())

let test_i003 () =
  check_has "transitively implied edge" "I003"
    (mk ~orders:[ edge "status" 0 1; edge "status" 1 2; edge "status" 0 2 ] ());
  check_not "chain only" "I003" (mk ~orders:[ edge "status" 0 1; edge "status" 1 2 ] ())

let test_i004 () =
  (* the explicit working < retired edge restates what phi derives *)
  check_has "edge derivable from Σ" "I004" (mk ~orders:[ edge "status" 0 1 ] ~sigma:[ phi ] ());
  check_not "novel edge" "I004" (mk ~orders:[ edge "status" 0 1 ] ());
  (* an edge already flagged as a duplicate is not double-reported: only
     the first copy gets the derivability note *)
  let dup = mk ~orders:[ edge "status" 0 1; edge "status" 0 1 ] ~sigma:[ phi ] () in
  Alcotest.(check int) "one I004 for the duplicated edge" 1
    (List.length (List.filter (fun c -> c = "I004") (codes dup)))

(* ---- report shape ---- *)

let test_ordering_and_severity () =
  (* an error and a warning together: errors always sort first *)
  let spec =
    mk
      ~orders:[ edge "status" 0 1; edge "status" 1 0 ]
      ~sigma:[ parse {|t1[status] = "fired" & t2[status] = "working" -> prec(status)|} ]
      ()
  in
  let ds = A.analyze spec in
  (match ds with
  | d :: _ -> Alcotest.(check bool) "errors first" true (d.A.severity = A.Error)
  | [] -> Alcotest.fail "expected diagnostics");
  Alcotest.(check bool) "has_errors" true (A.has_errors ds);
  Alcotest.(check bool) "max severity is Error" true (A.max_severity ds = Some A.Error);
  Alcotest.(check bool) "clean report" true (A.max_severity (A.analyze (mk ())) = None)

let test_spans_attached () =
  let vacuous = parse {|t1[status] = "fired" & t2[status] = "working" -> prec(status)|} in
  let span = { Currency.Parser.line = 3; col_start = 1; col_end = 42 } in
  let ds = A.analyze ~sigma_spans:[| Some span |] (mk ~sigma:[ vacuous ] ()) in
  let w003 = List.find (fun (d : A.diagnostic) -> d.A.code = "W003") ds in
  Alcotest.(check bool) "span carried through" true (w003.A.span = Some span)

let test_errors_only_unit () =
  let cyc = mk ~orders:[ edge "status" 0 1; edge "status" 1 0 ] ~sigma:[ phi; phi_mirror ] () in
  let eo = A.analyze ~errors_only:true cyc in
  Alcotest.(check bool) "non-empty" true (eo <> []);
  Alcotest.(check bool) "only E codes" true
    (List.for_all (fun (d : A.diagnostic) -> d.A.severity = A.Error) eo);
  let keys = List.map (fun (d : A.diagnostic) -> (d.A.code, d.A.subject)) eo in
  Alcotest.(check bool) "one diagnostic per (code, subject)" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  Alcotest.(check (list string)) "clean spec" []
    (List.map (fun (d : A.diagnostic) -> d.A.code) (A.analyze ~errors_only:true (mk ())))

(* ---- engine rejection ---- *)

let test_engine_lint_rejected () =
  let spec () =
    mk
      ~orders:[ edge "status" 0 1; edge "status" 1 0 ]
      ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma ()
  in
  let r, st = E.resolve ~user:F.silent (spec ()) in
  Alcotest.(check bool) "rejected by lint" true st.E.lint_rejected;
  Alcotest.(check int) "no solver built" 0 st.E.solvers_built;
  Alcotest.(check bool) "invalid" false r.E.valid;
  (* the solver-only reference reaches the same answer through Unsat *)
  Alcotest.(check bool) "same answer as the framework" true
    (Fixtures.same_answer (F.resolve ~user:F.silent (spec ())) r)

let test_engine_lint_clean_passthrough () =
  let r, st = E.resolve ~user:F.silent (Fixtures.edith_spec ()) in
  Alcotest.(check bool) "not rejected" false st.E.lint_rejected;
  Alcotest.(check bool) "solved normally" true (st.E.solvers_built >= 1 && r.E.valid)

(* The second half of the engine's rejection test: a spec with an E002
   (a fired veto: Σ makes "deceased" the certain current status, whose
   CFD demands a city the entity never takes) and no cheap error is
   encoded and loaded; unit propagation refutes it at level 0, so the
   solver is dropped before any solve. *)
let veto_spec ?(entity = Fixtures.edith_entity) () =
  Crcore.Spec.make entity ~orders:[] ~sigma:Fixtures.sigma
    ~gamma:[ mk_cfd [ ("status", "deceased") ] ("city", "Paris") ]

let without_conflicts (r : E.result) = { r with E.conflicts_spent = 0 }

let test_engine_closure_rejected () =
  let spec = veto_spec () in
  Alcotest.(check (list string)) "no cheap error" [] (codes_of (A.cheap_errors spec));
  check_has "E002 from the closure" "E002" spec;
  List.iter
    (fun mode ->
      let config = { E.default_config with mode } in
      let r, st = E.resolve ~config ~user:F.silent spec in
      Alcotest.(check bool) "rejected" true st.E.lint_rejected;
      Alcotest.(check int) "one solver loaded, then dropped" 1 st.E.solvers_built;
      Alcotest.(check int) "never solved" 0 st.E.solvers_reused;
      Alcotest.(check bool) "invalid" false r.E.valid;
      Alcotest.(check bool) "no budget trace" true
        (r.E.level = E.Exact && r.E.degrade_reason = None && r.E.conflicts_spent = 0);
      Alcotest.(check bool) "same answer as the framework's Unsat" true
        (Fixtures.same_answer (F.resolve ~mode ~user:F.silent spec) r))
    [ Crcore.Encode.Paper; Crcore.Encode.Exact ]

(* A closure-rejected stream session is rebuilt in place at the next
   resolve after an ingest: rejected again while the veto holds, cured
   once a tuple brings the RHS constant, and then answering exactly as a
   cold session on the accumulated spec. *)
let test_session_cured_by_ingest () =
  let h = Crcore.Session.create (veto_spec ()) in
  Alcotest.(check bool) "rejected at open" true (Crcore.Session.stats h).E.lint_rejected;
  let still_vetoed =
    Fixtures.tup [ "Edith Shain"; "deceased"; "n/a"; "3"; "Rome"; "213"; "90058"; "Vermont" ]
  in
  Crcore.Session.ingest h ~tuples:[ still_vetoed ] ();
  let _, st = Crcore.Session.resolve h in
  Alcotest.(check bool) "rejected again" true st.E.lint_rejected;
  let cure =
    Fixtures.tup [ "Edith Shain"; "deceased"; "n/a"; "3"; "Paris"; "213"; "90058"; "Vermont" ]
  in
  Crcore.Session.ingest h ~tuples:[ cure ] ();
  let hot, st = Crcore.Session.resolve h in
  Alcotest.(check bool) "cured" false st.E.lint_rejected;
  (* the engine rebuilt the session in place each time: its counters keep
     the work done before the cure *)
  Alcotest.(check int) "each rebuild is impure" 2 st.E.rebuilds_impure;
  Alcotest.(check int) "three solvers loaded" 3 st.E.solvers_built;
  let entity =
    Entity.make Fixtures.schema (Entity.tuples Fixtures.edith_entity @ [ still_vetoed; cure ])
  in
  let cold, _ = E.resolve ~user:F.silent (veto_spec ~entity ()) in
  Alcotest.(check bool) "valid once cured" true cold.E.valid;
  Alcotest.(check bool) "hot == cold" true (without_conflicts hot = without_conflicts cold)

(* ---- properties ---- *)

let prop_errors_sound =
  (* the tentpole guarantee: an E-level diagnostic means the SAT encoding
     of the specification is unsatisfiable, no exceptions *)
  QCheck.Test.make ~count:1000 ~name:"E-level diagnostic implies unsat encoding"
    Fixtures.qcheck_spec (fun spec ->
      (not (A.has_errors (A.analyze spec)))
      || not (Crcore.Validity.check (Crcore.Encode.encode spec)))

let prop_errors_only_agrees =
  QCheck.Test.make ~count:500
    ~name:"errors_only: same has_errors verdict, deduped subset of the full report's errors"
    Fixtures.qcheck_spec (fun spec ->
      let full = A.analyze spec in
      let eo = A.analyze ~errors_only:true spec in
      let keys = List.map (fun (d : A.diagnostic) -> (d.A.code, d.A.subject)) eo in
      A.has_errors eo = A.has_errors full
      && List.for_all (fun (d : A.diagnostic) -> d.A.severity = A.Error) eo
      && List.for_all (fun d -> List.mem d full) eo
      && List.length keys = List.length (List.sort_uniq compare keys))

let prop_lint_never_changes_results =
  (* clean specs are never rejected for lint-covered reasons: the engine,
     lint pre-phase included, answers as the solver-only framework does *)
  QCheck.Test.make ~count:250 ~name:"engine lint pre-phase never changes resolution results"
    Fixtures.qcheck_spec (fun spec ->
      let on, st = E.resolve ~user:F.silent spec in
      Fixtures.same_answer (F.resolve ~user:F.silent spec) on
      && ((not st.E.lint_rejected) || not on.E.valid))

let rejected_in mode spec =
  E.session_rejected (E.create_session ~config:{ E.default_config with mode } spec)

let both_modes = [ Crcore.Encode.Paper; Crcore.Encode.Exact ]

(* The engine rejects at least what lint's errors_only pass reports, in
   Paper and in Exact mode: every closure refutation is a level-0 unit
   propagation conflict of the loaded CNF. The cheap half alone is lint's
   errors_only report whenever it fires. *)
let prop_lint_errors_imply_rejection =
  QCheck.Test.make ~count:500 ~name:"lint errors imply engine rejection in both modes"
    Fixtures.qcheck_spec (fun spec ->
      let eo = A.analyze ~errors_only:true spec in
      let cheap = A.cheap_errors spec in
      (cheap = [] || cheap = eo)
      && ((not (A.has_errors eo)) || List.for_all (fun mode -> rejected_in mode spec) both_modes))

(* ... and rejects nothing valid: in Exact mode it also rejects invalid
   specs lint's Paper-mode closure misses, so the converse is soundness
   against an independent encoding, not equality with lint. *)
let prop_rejection_implies_invalid =
  QCheck.Test.make ~count:500 ~name:"engine rejection implies invalid in both modes"
    Fixtures.qcheck_spec (fun spec ->
      List.for_all
        (fun mode -> (not (rejected_in mode spec)) || not (Crcore.Validity.is_valid ~mode spec))
        both_modes)

let () =
  Alcotest.run "analyze"
    [
      ( "errors",
        [
          Alcotest.test_case "E001 cyclic explicit order" `Quick test_e001;
          Alcotest.test_case "E002 contradictory closure" `Quick test_e002;
          Alcotest.test_case "E003 forced CFD conflict" `Quick test_e003;
          Alcotest.test_case "E004 forced dead-end CFD" `Quick test_e004;
          Alcotest.test_case "E005 static refutation" `Quick test_e005;
        ] );
      ( "warnings",
        [
          Alcotest.test_case "W001 dead CFD" `Quick test_w001;
          Alcotest.test_case "W002 veto CFD" `Quick test_w002;
          Alcotest.test_case "W003 vacuous constraint" `Quick test_w003;
          Alcotest.test_case "W004 duplicate edge" `Quick test_w004;
          Alcotest.test_case "W005 equal-value edge" `Quick test_w005;
          Alcotest.test_case "W006 possible CFD conflict" `Quick test_w006;
          Alcotest.test_case "W007 subsumed by closure" `Quick test_w007;
        ] );
      ( "info",
        [
          Alcotest.test_case "I001 subsumed constraint" `Quick test_i001;
          Alcotest.test_case "I002 subsumed CFD" `Quick test_i002;
          Alcotest.test_case "I003 implied edge" `Quick test_i003;
          Alcotest.test_case "I004 derivable edge" `Quick test_i004;
        ] );
      ( "report",
        [
          Alcotest.test_case "ordering and severity" `Quick test_ordering_and_severity;
          Alcotest.test_case "source spans" `Quick test_spans_attached;
          Alcotest.test_case "errors_only subset" `Quick test_errors_only_unit;
        ] );
      ( "engine",
        [
          Alcotest.test_case "lint-rejected session" `Quick test_engine_lint_rejected;
          Alcotest.test_case "clean passthrough" `Quick test_engine_lint_clean_passthrough;
          Alcotest.test_case "closure-rejected session" `Quick test_engine_closure_rejected;
          Alcotest.test_case "rejected stream session cured by ingest" `Quick
            test_session_cured_by_ingest;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_errors_sound;
            prop_errors_only_agrees;
            prop_lint_never_changes_results;
            prop_lint_errors_imply_rejection;
            prop_rejection_implies_invalid;
          ] );
    ]

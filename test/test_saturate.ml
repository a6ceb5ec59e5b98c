(* The static saturation engine (Saturate): soundness of the closure
   against the SAT backbone, completeness in Paper mode, certificate
   verification by the independent checker, JSON round-trips with a
   tamper rejection, the per-template plan memo, and the engine's
   answers against the framework's. *)

module E = Crcore.Encode
module S = Crcore.Saturate
module D = Crcore.Deduce
module En = Crcore.Engine
module F = Crcore.Framework

let parse = Currency.Parser.parse_exn

let mk_cfd lhs (battr, bval) =
  Cfd.Constant_cfd.make
    (List.map (fun (a, v) -> (a, Value.of_string v)) lhs)
    (battr, Value.of_string bval)

let mk ?(orders = []) ?(sigma = []) ?(gamma = []) () =
  Crcore.Spec.make Fixtures.edith_entity ~orders ~sigma ~gamma

(* a fact over the closure's own coding, by attribute/value names *)
let fact cl name v1 v2 =
  let coding = S.coding cl in
  let schema = Crcore.Coding.schema coding in
  let a = Schema.index schema name in
  {
    E.attr = a;
    lo = Crcore.Coding.vid coding a (Value.of_string v1);
    hi = Crcore.Coding.vid coding a (Value.of_string v2);
  }

(* ---- unit: the paper's Edith entity ---- *)

let test_edith_closure () =
  let spec = Fixtures.edith_spec () in
  let cl = S.of_spec spec in
  Alcotest.(check bool) "valid: no refutation" true (S.refutation cl = None);
  Alcotest.(check bool) "Paper closure is complete" true (S.complete cl);
  Alcotest.(check bool) "phi1 axiom" true (S.mem cl (fact cl "status" "working" "retired"));
  Alcotest.(check bool) "phi2 axiom" true (S.mem cl (fact cl "status" "retired" "deceased"));
  Alcotest.(check bool) "transitivity" true (S.mem cl (fact cl "status" "working" "deceased"));
  Alcotest.(check bool) "phi5 modus ponens" true (S.mem cl (fact cl "job" "nurse" "n/a"));
  Alcotest.(check bool) "no invented fact" false (S.mem cl (fact cl "city" "LA" "NY"));
  Alcotest.(check int) "n_facts = |facts|" (List.length (S.facts cl)) (S.n_facts cl);
  Alcotest.(check int) "one var per fact" (S.n_facts cl) (List.length (S.fact_vars cl));
  Alcotest.(check int) "one lit per fact" (S.n_facts cl) (List.length (S.unit_lits cl))

let test_edith_certificates () =
  let spec = Fixtures.edith_spec () in
  let cl = S.of_spec spec in
  List.iter
    (fun f ->
      match S.certificate cl f with
      | None -> Alcotest.fail "closure fact without a certificate"
      | Some cert -> (
          match S.verify spec cert with
          | Ok () -> ()
          | Error m -> Alcotest.failf "certificate rejected: %s" m))
    (S.facts cl);
  (* the renderer produces a chain ending in the goal line *)
  match S.certificate cl (fact cl "job" "nurse" "n/a") with
  | None -> Alcotest.fail "no certificate for the MP fact"
  | Some cert ->
      let s = Format.asprintf "%a" (S.pp_cert spec) cert in
      Alcotest.(check bool) "mentions sigma" true
        (String.length s > 0
        &&
        let re = "sigma[" in
        let n = String.length s and m = String.length re in
        let rec has i = i + m <= n && (String.sub s i m = re || has (i + 1)) in
        has 0)

let phi = parse {|t1[status] = "working" & t2[status] = "retired" -> prec(status)|}
let phi_mirror = parse {|t1[status] = "retired" & t2[status] = "working" -> prec(status)|}

let test_refutation () =
  let spec = mk ~sigma:[ phi; phi_mirror ] () in
  let cl = S.of_spec spec in
  Alcotest.(check bool) "refuted" true (S.refutation cl <> None);
  Alcotest.(check bool) "not complete" false (S.complete cl);
  Alcotest.(check bool) "SAT agrees" false (Crcore.Validity.is_valid spec);
  match S.refutation_certificate cl with
  | None -> Alcotest.fail "refutation without a certificate"
  | Some cert -> (
      Alcotest.(check bool) "goal is a contradiction" true
        (match cert.S.goal with S.Derived _ -> false | _ -> true);
      match S.verify spec cert with
      | Ok () -> ()
      | Error m -> Alcotest.failf "refutation certificate rejected: %s" m)

let test_exact_total_rule () =
  (* name's adom is {null, "Edith Shain"}; the CFD's RHS "Paris" never
     occurs, so its veto has the singleton premise null < Edith. On the
     real encoding that premise is a null-lowest axiom (the veto fires: a
     refutation); in a hypothetical closure with that unit dropped, Exact
     totality turns the veto into the reverse fact — the Total rule *)
  let spec = mk ~gamma:[ mk_cfd [ ("name", "Edith Shain") ] ("city", "Paris") ] () in
  let cl = S.of_spec ~mode:E.Exact spec in
  Alcotest.(check bool) "real encoding: fired veto refutes" true (S.refutation cl <> None);
  let coding = S.coding cl in
  let a = Schema.index (Crcore.Coding.schema coding) "name" in
  let null_id = Crcore.Coding.vid coding a Value.Null in
  let edith_id = Crcore.Coding.vid coding a (Value.of_string "Edith Shain") in
  let f0 = { E.attr = a; lo = null_id; hi = edith_id } in
  let rev_f = { E.attr = a; lo = edith_id; hi = null_id } in
  let parts = E.parts spec in
  let drop_unit f src = src = E.From_order && f = f0 in
  Alcotest.(check bool) "Exact derives the reverse via totality" true
    (S.derives ~mode:E.Exact ~drop_unit parts rev_f);
  Alcotest.(check bool) "Paper mode cannot" false (S.derives ~mode:E.Paper ~drop_unit parts rev_f);
  (* the independent verifier accepts exactly the well-formed Total step *)
  let total_cert cmode k =
    {
      S.cmode;
      goal = S.Derived rev_f;
      chain = [ { S.fact = rev_f; rule = S.Total k; premises = [] } ];
    }
  in
  Alcotest.(check bool) "verifier accepts the Total step" true
    (S.verify spec (total_cert E.Exact 0) = Ok ());
  Alcotest.(check bool) "Total step rejected outside Exact mode" true
    (match S.verify spec (total_cert E.Paper 0) with Error _ -> true | Ok () -> false);
  let live = mk ~gamma:[ mk_cfd [ ("name", "Edith Shain") ] ("city", "LA") ] () in
  Alcotest.(check bool) "Total step rejected when the CFD is not vetoed" true
    (match S.verify live (total_cert E.Exact 0) with Error _ -> true | Ok () -> false)

(* ---- certificates: JSON round-trip and tampering ---- *)

let mp_cert () =
  let spec = Fixtures.edith_spec () in
  let cl = S.of_spec spec in
  match S.certificate cl (fact cl "job" "nurse" "n/a") with
  | Some c -> (spec, c)
  | None -> Alcotest.fail "expected a certificate for job: nurse < n/a"

let test_json_roundtrip () =
  let spec, cert = mp_cert () in
  let json = S.cert_to_json cert in
  match S.cert_of_json json with
  | Error m -> Alcotest.failf "round-trip decode failed: %s" m
  | Ok cert' ->
      Alcotest.(check bool) "structurally equal" true (cert = cert');
      Alcotest.(check bool) "decoded certificate verifies" true (S.verify spec cert' = Ok ());
      (* refutation certificates round-trip too *)
      let rspec = mk ~sigma:[ phi; phi_mirror ] () in
      (match S.refutation_certificate (S.of_spec rspec) with
      | None -> Alcotest.fail "expected a refutation certificate"
      | Some rc ->
          Alcotest.(check bool) "refutation round-trip" true
            (S.cert_of_json (S.cert_to_json rc) = Ok rc));
      Alcotest.(check bool) "garbage rejected" true
        (match S.cert_of_json "{\"mode\":" with Error _ -> true | Ok _ -> false)

(* replace the first occurrence of [old_s] in [s] *)
let replace_first s old_s new_s =
  let n = String.length s and m = String.length old_s in
  let rec find i = if i + m > n then None else if String.sub s i m = old_s then Some i else find (i + 1) in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub s 0 i ^ new_s ^ String.sub s (i + m) (n - i - m))

let test_tamper_rejected () =
  let spec, cert = mp_cert () in
  (* the MP step cites sigma[4] (prec(status) -> prec(job)); pointing it
     at sigma[3] (the kids comparison) must fail independent checking *)
  let json = S.cert_to_json cert in
  (match replace_first json "\"src\":\"sigma\",\"idx\":4" "\"src\":\"sigma\",\"idx\":3" with
  | None -> Alcotest.fail "expected the certificate to cite sigma[4]"
  | Some tampered -> (
      match S.cert_of_json tampered with
      | Error m -> Alcotest.failf "tampered JSON should still parse: %s" m
      | Ok c ->
          Alcotest.(check bool) "swapped constraint id rejected" true
            (match S.verify spec c with Error _ -> true | Ok () -> false)));
  (* and an in-memory tamper: claim a fact the chain never derives *)
  let bogus = { cert with S.goal = S.Derived { E.attr = 0; lo = 0; hi = 0 } } in
  Alcotest.(check bool) "forged goal rejected" true
    (match S.verify spec bogus with Error _ -> true | Ok () -> false);
  (* Assumed steps never verify: hypotheses are not proofs *)
  let assumed =
    { cert with S.chain = List.map (fun s -> { s with S.rule = S.Assumed }) cert.S.chain }
  in
  Alcotest.(check bool) "Assumed steps rejected" true
    (match S.verify spec assumed with Error _ -> true | Ok () -> false)

(* ---- plan memo ---- *)

let test_template_memo () =
  (* edith and george share the same physical Σ list: the second
     saturation must hit the per-template plan memo *)
  ignore (S.of_spec (Fixtures.edith_spec ()));
  let h0, _ = S.template_stats () in
  ignore (S.of_spec (Fixtures.george_spec ()));
  let h1, _ = S.template_stats () in
  Alcotest.(check bool) "plan memo hit" true (h1 > h0)

(* ---- properties ---- *)

(* closure facts land inside the deduced order of the complete deducer *)
let closure_subset_of cl (d : D.t) =
  List.for_all (fun f -> D.lt d ~attr:f.E.attr f.E.lo f.E.hi) (S.facts cl)

(* every backbone pair is in the closure (both are transitively closed) *)
let backbone_subset_of (d : D.t) cl =
  let ok = ref true in
  Array.iteri
    (fun a o ->
      List.iter
        (fun (lo, hi) -> if not (S.mem cl { E.attr = a; lo; hi }) then ok := false)
        (Porder.Strict_order.pairs o))
    d.D.od;
  !ok

let prop_closure_sound_complete_and_certified =
  (* the headline: on ≥1000 random specifications, the Paper-mode closure
     is a subset of the backbone, equals it exactly when complete, finds a
     refutation iff the encoding is unsatisfiable — and every closure fact
     carries a certificate the independent verifier accepts *)
  QCheck.Test.make ~count:1000
    ~name:"Paper closure == backbone when complete; refutation iff unsat; certificates verify"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode spec in
      let cl = S.of_encode enc in
      let valid = Crcore.Validity.check enc in
      let certified =
        List.for_all
          (fun f ->
            match S.certificate cl f with
            | None -> false
            | Some c -> S.verify spec c = Ok ())
          (S.facts cl)
      in
      let refutation_iff_unsat = (S.refutation cl = None) = valid in
      let vs_backbone =
        if not valid then true
        else begin
          let b = D.backbone enc in
          closure_subset_of cl b && (S.complete cl && backbone_subset_of b cl)
        end
      in
      certified && refutation_iff_unsat && vs_backbone)

let prop_exact_closure_sound =
  (* Exact mode is conservatively incomplete: subset of the backbone,
     refutations still sound, certificates still check *)
  QCheck.Test.make ~count:300 ~name:"Exact closure sound: subset of backbone, certified"
    Fixtures.qcheck_spec (fun spec ->
      let enc = E.encode ~mode:E.Exact spec in
      let cl = S.of_encode enc in
      let valid = Crcore.Validity.check enc in
      let refutation_sound = S.refutation cl = None || not valid in
      let certified =
        List.for_all
          (fun f ->
            match S.certificate cl f with
            | None -> false
            | Some c -> S.verify spec c = Ok ())
          (S.facts cl)
      in
      refutation_sound && certified
      && (if valid then closure_subset_of cl (D.backbone enc) else true))

let prop_engine_results_identical =
  (* the engine no longer saturates either; the name is kept from when it
     ran a saturate pre-phase. Neither the engine's sessions nor its
     rejection on the loaded solver's level-0 refutation may answer
     differently from the framework, which never saturates *)
  QCheck.Test.make ~count:300 ~name:"engine saturate pre-phase never changes results"
    Fixtures.qcheck_spec (fun spec ->
      let user = Fixtures.reference_user spec in
      let on, _ = En.resolve ~user spec in
      Fixtures.same_answer (F.resolve ~user spec) on)

let () =
  Alcotest.run "saturate"
    [
      ( "closure",
        [
          Alcotest.test_case "Edith closure facts" `Quick test_edith_closure;
          Alcotest.test_case "Edith certificates verify" `Quick test_edith_certificates;
          Alcotest.test_case "static refutation" `Quick test_refutation;
          Alcotest.test_case "Exact-mode Total rule" `Quick test_exact_total_rule;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "tampered certificates rejected" `Quick test_tamper_rejected;
        ] );
      ( "engine",
        [ Alcotest.test_case "template plan memo" `Quick test_template_memo ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure_sound_complete_and_certified;
            prop_exact_closure_sound;
            prop_engine_results_identical;
          ] );
    ]

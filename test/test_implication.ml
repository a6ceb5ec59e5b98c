(* The implication checker (Se |= Ot), including agreement with the
   exhaustive reference in Exact mode. *)

module I = Crcore.Implication

let vf attr lo hi = { I.attr; lo = Value.of_string lo; hi = Value.of_string hi }

let test_edith_facts () =
  let spec = Fixtures.edith_spec () in
  Alcotest.(check string) "working<retired" "implied"
    (Format.asprintf "%a" I.pp_answer (I.holds spec (vf "status" "working" "retired")));
  Alcotest.(check string) "transitive working<deceased" "implied"
    (Format.asprintf "%a" I.pp_answer (I.holds spec (vf "status" "working" "deceased")));
  Alcotest.(check string) "reverse not implied" "not implied"
    (Format.asprintf "%a" I.pp_answer (I.holds spec (vf "status" "deceased" "working")));
  Alcotest.(check string) "via CFD: NY<LA" "implied"
    (Format.asprintf "%a" I.pp_answer (I.holds spec (vf "city" "NY" "LA")));
  Alcotest.(check string) "foreign value" "unknown value"
    (Format.asprintf "%a" I.pp_answer (I.holds spec (vf "city" "Paris" "LA")));
  Alcotest.(check string) "unknown attribute" "unknown value"
    (Format.asprintf "%a" I.pp_answer (I.holds spec { I.attr = "nope"; lo = Value.Null; hi = Value.Null }))

let test_george_open_facts () =
  let spec = Fixtures.george_spec () in
  Alcotest.(check bool) "kids 0<2 implied" true
    (I.holds spec (vf "kids" "0" "2") = I.Implied);
  Alcotest.(check bool) "status retired vs unemployed open" true
    (I.holds spec (vf "status" "retired" "unemployed") = I.Not_implied);
  Alcotest.(check bool) "nor the other way" true
    (I.holds spec (vf "status" "unemployed" "retired") = I.Not_implied)

let test_implied_order () =
  let spec = Fixtures.edith_spec () in
  Alcotest.(check bool) "whole order implied" true
    (I.implied_order spec
       [ vf "status" "working" "retired"; vf "status" "retired" "deceased"; vf "kids" "0" "3" ]
    = I.Implied);
  Alcotest.(check bool) "one bad fact breaks it" true
    (I.implied_order spec [ vf "status" "working" "retired"; vf "city" "LA" "NY" ]
    = I.Not_implied);
  Alcotest.(check bool) "empty order trivially implied" true
    (I.implied_order spec [] = I.Implied)

let test_invalid_spec () =
  let spec =
    Crcore.Spec.make Fixtures.edith_entity
      ~orders:[ { Crcore.Spec.attr = "status"; lo = 2; hi = 0 } ]
      ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma
  in
  Alcotest.(check bool) "invalid detected" true
    (I.holds spec (vf "kids" "0" "3") = I.Invalid_spec)

let test_order_edges_facts () =
  let spec = Fixtures.george_spec () in
  let facts =
    I.order_edges_facts spec
      [
        { Crcore.Spec.attr = "status"; lo = 0; hi = 1 };
        { Crcore.Spec.attr = "kids"; lo = 1; hi = 2 } (* equal values: dropped *);
      ]
  in
  Alcotest.(check int) "equal-valued edge dropped" 1 (List.length facts);
  match facts with
  | [ { I.attr = "status"; lo; hi } ] ->
      Alcotest.(check string) "lo" "working" (Value.to_string lo);
      Alcotest.(check string) "hi" "retired" (Value.to_string hi)
  | _ -> Alcotest.fail "unexpected facts"

let prop_exact_matches_reference =
  QCheck.Test.make ~count:80 ~name:"Exact-mode implication = reference implication"
    Fixtures.qcheck_spec (fun spec ->
      let schema = Crcore.Spec.schema spec in
      let entity = spec.Crcore.Spec.entity in
      (* check a handful of value pairs per spec *)
      let attrs = Schema.attr_names schema in
      List.for_all
        (fun attr ->
          let a = Schema.index schema attr in
          (* both orientations: in Exact mode one asks the positive
             literal of the pair's variable, the other its negation *)
          let agrees lo hi =
            let sat_ans = I.holds ~mode:Crcore.Encode.Exact spec { I.attr; lo; hi } in
            match Crcore.Reference.implied spec ~attr lo hi with
            | None -> true
            | Some true -> sat_ans = I.Implied
            | Some false -> sat_ans = I.Not_implied || sat_ans = I.Invalid_spec
          in
          match Entity.active_domain entity a with
          | v1 :: v2 :: _ -> agrees v1 v2 && agrees v2 v1
          | _ -> true)
        attrs)

let () =
  Alcotest.run "implication"
    [
      ( "unit",
        [
          Alcotest.test_case "Edith facts" `Quick test_edith_facts;
          Alcotest.test_case "George open facts" `Quick test_george_open_facts;
          Alcotest.test_case "whole orders" `Quick test_implied_order;
          Alcotest.test_case "invalid spec" `Quick test_invalid_spec;
          Alcotest.test_case "edges to facts" `Quick test_order_edges_facts;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_exact_matches_reference ]);
    ]

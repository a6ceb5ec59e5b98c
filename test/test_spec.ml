(* Specification construction, validation and extension. *)

let schema = Fixtures.schema

let test_make_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unknown attr in order" true
    (bad (fun () ->
         Crcore.Spec.make Fixtures.edith_entity
           ~orders:[ { Crcore.Spec.attr = "nope"; lo = 0; hi = 1 } ]
           ~sigma:[] ~gamma:[]));
  Alcotest.(check bool) "tuple index out of range" true
    (bad (fun () ->
         Crcore.Spec.make Fixtures.edith_entity
           ~orders:[ { Crcore.Spec.attr = "status"; lo = 0; hi = 9 } ]
           ~sigma:[] ~gamma:[]));
  Alcotest.(check bool) "reflexive edge" true
    (bad (fun () ->
         Crcore.Spec.make Fixtures.edith_entity
           ~orders:[ { Crcore.Spec.attr = "status"; lo = 1; hi = 1 } ]
           ~sigma:[] ~gamma:[]));
  Alcotest.(check bool) "constraint over unknown attr" true
    (bad (fun () ->
         Crcore.Spec.make Fixtures.edith_entity ~orders:[]
           ~sigma:[ Currency.Parser.parse_exn "prec(zzz) -> prec(job)" ]
           ~gamma:[]));
  Alcotest.(check bool) "cfd over unknown attr" true
    (bad (fun () ->
         Crcore.Spec.make Fixtures.edith_entity ~orders:[] ~sigma:[]
           ~gamma:[ Cfd.Constant_cfd.parse_exn "zzz = 1 -> job = 2" ]))

let test_add_order_edges () =
  let spec = Fixtures.george_spec () in
  let spec' =
    Crcore.Spec.add_order_edges spec [ { Crcore.Spec.attr = "status"; lo = 2; hi = 1 } ]
  in
  Alcotest.(check int) "edge added" 1 (List.length spec'.Crcore.Spec.orders);
  Alcotest.(check int) "original untouched" 0 (List.length spec.Crcore.Spec.orders);
  Alcotest.(check int) "entity unchanged" (Crcore.Spec.size spec) (Crcore.Spec.size spec')

let test_extend_with_tuple () =
  let spec = Fixtures.george_spec () in
  let values =
    Array.init (Schema.arity schema) (fun a ->
        if Schema.name schema a = "status" then Value.Str "retired" else Value.Null)
  in
  let tup = Tuple.of_array schema values in
  let spec' = Crcore.Spec.extend_with_tuple spec tup ~current_attrs:[ "status" ] in
  Alcotest.(check int) "tuple appended" 4 (Crcore.Spec.size spec');
  (* one edge per pre-existing tuple on the named attribute *)
  Alcotest.(check int) "edges added" 3 (List.length spec'.Crcore.Spec.orders);
  List.iter
    (fun e ->
      Alcotest.(check string) "edge attr" "status" e.Crcore.Spec.attr;
      Alcotest.(check int) "edge target is the new tuple" 3 e.Crcore.Spec.hi)
    spec'.Crcore.Spec.orders;
  (* the extension encodes and stays valid; status becomes known *)
  let enc = Crcore.Encode.encode spec' in
  Alcotest.(check bool) "still valid" true (Crcore.Validity.check enc);
  let d = Crcore.Deduce.deduce_order enc in
  let a = Schema.index schema "status" in
  match (Crcore.Deduce.true_values d).(a) with
  | Some v -> Alcotest.(check string) "status pinned" "retired" (Value.to_string v)
  | None -> Alcotest.fail "status should be known"

let test_extend_multiple_attrs () =
  let spec = Fixtures.george_spec () in
  let values =
    Array.init (Schema.arity schema) (fun a ->
        match Schema.name schema a with
        | "status" -> Value.Str "retired"
        | "kids" -> Value.Int 2
        | _ -> Value.Null)
  in
  let tup = Tuple.of_array schema values in
  let spec' = Crcore.Spec.extend_with_tuple spec tup ~current_attrs:[ "status"; "kids" ] in
  Alcotest.(check int) "edges for both attrs" 6 (List.length spec'.Crcore.Spec.orders)

(* [extend] against [make] on the same inputs: equal specs, or the very
   same [Invalid_argument] *)
let extend_vs_make spec ~tuples ~orders =
  let run f = try Ok (f ()) with Invalid_argument m -> Error m in
  let via_extend = run (fun () -> Crcore.Spec.extend spec ~tuples ~orders) in
  let via_make =
    run (fun () ->
        let entity =
          Entity.make (Crcore.Spec.schema spec)
            (Entity.tuples spec.Crcore.Spec.entity @ tuples)
        in
        Crcore.Spec.make entity ~orders:(orders @ spec.Crcore.Spec.orders)
          ~sigma:spec.Crcore.Spec.sigma ~gamma:spec.Crcore.Spec.gamma)
  in
  match (via_extend, via_make) with
  | Ok a, Ok b ->
      Entity.tuples a.Crcore.Spec.entity = Entity.tuples b.Crcore.Spec.entity
      && a.Crcore.Spec.orders = b.Crcore.Spec.orders
      && a.Crcore.Spec.sigma == b.Crcore.Spec.sigma
      && a.Crcore.Spec.gamma == b.Crcore.Spec.gamma
  | Error a, Error b -> a = b
  | _ -> false

let test_extend_equals_make () =
  let spec = Fixtures.george_spec () in
  let edge attr lo hi = { Crcore.Spec.attr; lo; hi } in
  let tup = List.hd (Entity.tuples Fixtures.edith_entity) in
  List.iter
    (fun (msg, tuples, orders) ->
      Alcotest.(check bool) msg true (extend_vs_make spec ~tuples ~orders))
    [
      ("nothing new", [], []);
      ("a tuple", [ tup ], []);
      ("a tuple and an edge onto it", [ tup ], [ edge "job" 0 3 ]);
      ("edges only", [], [ edge "status" 2 1; edge "kids" 0 1 ]);
      ("out-of-range edge", [], [ edge "status" 0 3 ]);
      ("out-of-range after a tuple", [ tup ], [ edge "status" 4 0 ]);
      ("reflexive edge", [ tup ], [ edge "city" 3 3 ]);
      ("unknown attribute", [], [ edge "nope" 0 1 ]);
    ];
  (* the error is the one make reports *)
  match Crcore.Spec.extend spec ~tuples:[] ~orders:[ edge "status" 1 1 ] with
  | _ -> Alcotest.fail "reflexive edge accepted"
  | exception Invalid_argument m ->
      Alcotest.(check string) "message" "Spec.make: reflexive order edge on \"status\" at tuple 1" m

let prop_extend_equals_make =
  QCheck.Test.make ~count:300 ~name:"extend == make on the grown entity" Fixtures.qcheck_spec
    (fun spec ->
      let st = Random.State.make [| Crcore.Spec.size spec; List.length spec.Crcore.Spec.orders |] in
      let tuples =
        List.filteri
          (fun i _ -> i < Random.State.int st 3)
          (Entity.tuples spec.Crcore.Spec.entity)
      in
      let n = Crcore.Spec.size spec + List.length tuples in
      let attrs = "zz" :: Schema.attr_names Fixtures.small_schema in
      let orders =
        List.init (Random.State.int st 3) (fun _ ->
            {
              Crcore.Spec.attr = List.nth attrs (Random.State.int st (List.length attrs));
              lo = Random.State.int st (n + 1);
              hi = Random.State.int st (n + 1);
            })
      in
      extend_vs_make spec ~tuples ~orders)

let test_schema_check_memo () =
  (* the once-per-shape check never remembers a failure, and keys on the
     schema: the same lists against a schema lacking an attribute fail *)
  let sigma = Fixtures.sigma and gamma = Fixtures.gamma in
  let ok = Crcore.Spec.make_res Fixtures.edith_entity ~orders:[] ~sigma ~gamma in
  Alcotest.(check bool) "valid shape" true (Result.is_ok ok);
  let narrow = Schema.make [ "name"; "status"; "job"; "kids" ] in
  let e = Entity.make narrow [ Tuple.make narrow (List.map Value.of_string [ "x"; "y"; "z"; "1" ]) ] in
  let expect = Crcore.Spec.Unknown_constraint_attribute { constraint_index = 5; attr = "AC" } in
  for _ = 1 to 2 do
    match Crcore.Spec.make_res e ~orders:[] ~sigma ~gamma with
    | Error err -> Alcotest.(check bool) "first failing index" true (err = expect)
    | Ok _ -> Alcotest.fail "a schema without AC accepted"
  done;
  let bad_gamma = gamma @ [ Cfd.Constant_cfd.parse_exn "zzz = 1 -> job = 2" ] in
  for _ = 1 to 2 do
    match Crcore.Spec.make_res Fixtures.edith_entity ~orders:[] ~sigma ~gamma:bad_gamma with
    | Error err ->
        Alcotest.(check bool) "bad CFD index" true
          (err = Crcore.Spec.Unknown_cfd_attribute { cfd_index = 2; attr = "zzz" })
    | Ok _ -> Alcotest.fail "bad CFD accepted"
  done;
  Alcotest.(check bool) "valid shape again" true
    (Result.is_ok (Crcore.Spec.make_res Fixtures.edith_entity ~orders:[] ~sigma ~gamma))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let s = Format.asprintf "%a" Crcore.Spec.pp (Fixtures.george_spec ()) in
  Alcotest.(check bool) "prints entity" true (contains_sub s "George");
  Alcotest.(check bool) "prints counts" true (contains_sub s "= 8")

let prop_extension_monotone_validity =
  (* extending an INVALID spec never makes it valid *)
  QCheck.Test.make ~count:60 ~name:"order extension preserves invalidity" Fixtures.qcheck_spec
    (fun spec ->
      if Crcore.Validity.is_valid spec then true
      else begin
        let n = Crcore.Spec.size spec in
        if n < 2 then true
        else
          let spec' =
            Crcore.Spec.add_order_edges spec [ { Crcore.Spec.attr = "a"; lo = 0; hi = 1 } ]
          in
          not (Crcore.Validity.is_valid spec')
      end)

let () =
  Alcotest.run "spec"
    [
      ( "unit",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "add_order_edges" `Quick test_add_order_edges;
          Alcotest.test_case "extend_with_tuple" `Quick test_extend_with_tuple;
          Alcotest.test_case "extend multiple attrs" `Quick test_extend_multiple_attrs;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "extend == make" `Quick test_extend_equals_make;
          Alcotest.test_case "schema check memo" `Quick test_schema_check_memo;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_extension_monotone_validity; prop_extend_equals_make ] );
    ]

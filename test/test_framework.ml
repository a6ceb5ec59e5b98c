(* The interactive framework of Fig. 4, with silent and oracle users. *)

module F = Crcore.Framework

let resolved_string o a =
  match o.F.resolved.(Schema.index Fixtures.schema a) with
  | Some v -> Value.to_string v
  | None -> "?"

let test_edith_zero_interactions () =
  let o = F.resolve ~user:F.silent (Fixtures.edith_spec ()) in
  Alcotest.(check bool) "valid" true o.F.valid;
  Alcotest.(check int) "rounds" 0 o.F.rounds;
  List.iter
    (fun (a, expect) -> Alcotest.(check string) a expect (resolved_string o a))
    [
      ("name", "Edith Shain"); ("status", "deceased"); ("job", "n/a"); ("kids", "3");
      ("city", "LA"); ("AC", "213"); ("zip", "90058"); ("county", "Vermont");
    ]

let test_george_silent () =
  let o = F.resolve ~user:F.silent (Fixtures.george_spec ()) in
  Alcotest.(check int) "rounds" 0 o.F.rounds;
  Alcotest.(check (list int)) "2 of 8 attrs at round 0" [ 2 ] o.F.per_round_known;
  Alcotest.(check string) "kids known" "2" (resolved_string o "kids");
  Alcotest.(check string) "status unknown" "?" (resolved_string o "status")

let test_george_oracle_one_round () =
  let o = F.resolve ~user:(F.oracle Fixtures.george_truth) (Fixtures.george_spec ()) in
  Alcotest.(check bool) "valid" true o.F.valid;
  Alcotest.(check int) "one interaction suffices" 1 o.F.rounds;
  Alcotest.(check (list int)) "known progression" [ 2; 8 ] o.F.per_round_known;
  List.iter
    (fun (a, expect) -> Alcotest.(check string) a expect (resolved_string o a))
    [
      ("name", "George"); ("status", "retired"); ("job", "veteran"); ("kids", "2");
      ("city", "NY"); ("AC", "212"); ("zip", "12404"); ("county", "Accord");
    ]

let test_invalid_spec_detected () =
  (* contradictory currency orders make the specification invalid *)
  let spec =
    Crcore.Spec.make Fixtures.george_entity
      ~orders:
        [
          { Crcore.Spec.attr = "status"; lo = 0; hi = 1 };
          { Crcore.Spec.attr = "status"; lo = 1; hi = 0 };
        ]
      ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma
  in
  let o = F.resolve ~user:F.silent spec in
  Alcotest.(check bool) "invalid" false o.F.valid;
  Alcotest.(check int) "no rounds" 0 o.F.rounds

let test_constraint_conflict_invalid () =
  (* ϕ1/ϕ2 orderings clash with an explicit reversed order *)
  let spec =
    Crcore.Spec.make Fixtures.edith_entity
      ~orders:[ { Crcore.Spec.attr = "status"; lo = 2; hi = 0 } ]
        (* deceased ≺ working contradicts working ≺ retired ≺ deceased *)
      ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma
  in
  Alcotest.(check bool) "invalid" false (Crcore.Validity.is_valid spec)

let test_max_rounds_cap () =
  (* a user that answers nothing useful: framework stops at max_rounds *)
  let useless suggestion ~schema =
    match suggestion.Crcore.Rules.attrs with
    | a :: _ ->
        (* give a *wrong but consistent-with-nothing* fresh value *)
        [ (Schema.name schema a, Value.Str "fresh_unrelated_value") ]
    | [] -> []
  in
  let o = F.resolve ~max_rounds:2 ~user:useless (Fixtures.george_spec ()) in
  Alcotest.(check bool) "at most 2 rounds" true (o.F.rounds <= 2)

let test_timings_populated () =
  let o = F.resolve ~user:(F.oracle Fixtures.george_truth) (Fixtures.george_spec ()) in
  Alcotest.(check bool) "validity time >= 0" true (o.F.timings.F.validity >= 0.);
  Alcotest.(check bool) "deduce time >= 0" true (o.F.timings.F.deduce >= 0.);
  Alcotest.(check bool) "suggest time >= 0" true (o.F.timings.F.suggest >= 0.)

let test_exact_mode () =
  let o = F.resolve ~mode:Crcore.Encode.Exact ~user:F.silent (Fixtures.edith_spec ()) in
  Alcotest.(check bool) "valid in exact mode" true o.F.valid;
  Alcotest.(check string) "same status" "deceased" (resolved_string o "status")

let prop_oracle_resolves_correctly =
  (* on valid random specs, whatever the framework resolves with a perfect
     oracle must match that oracle's tuple when the spec's constraints
     don't contradict it *)
  QCheck.Test.make ~count:60 ~name:"framework terminates and output is internally consistent"
    Fixtures.qcheck_spec (fun spec ->
      let o = F.resolve ~max_rounds:3 ~user:F.silent spec in
      (* silent user: at most 0 rounds, and resolution is a function of spec *)
      o.F.rounds = 0
      && List.length o.F.per_round_known = 1
      &&
      let o2 = F.resolve ~max_rounds:3 ~user:F.silent spec in
      o.F.resolved = o2.F.resolved)

let prop_walksat_repair_resolves_datasets =
  (* the whole framework also works with the WalkSAT repair engine *)
  QCheck.Test.make ~count:8 ~name:"walksat-repaired framework resolves generator data"
    QCheck.(int_range 0 100)
    (fun seed ->
      let ds = Datagen.Person.quick ~seed ~n_entities:3 ~size:7 () in
      List.for_all
        (fun (c : Datagen.Types.case) ->
          let spec = Datagen.Types.spec_of ds c in
          let o =
            F.resolve ~repair:Crcore.Rules.Walksat ~user:(F.oracle c.Datagen.Types.truth) spec
          in
          o.F.valid
          && Array.for_all
               (function
                 | Some _ -> true
                 | None -> false)
               o.F.resolved)
        ds.Datagen.Types.cases)

let prop_per_round_monotone =
  QCheck.Test.make ~count:40 ~name:"known counts never decrease across rounds"
    Fixtures.qcheck_spec (fun spec ->
      match Crcore.Reference.analyze spec with
      | Some r when r.Crcore.Reference.valid -> (
          match r.Crcore.Reference.true_tuple with
          | Some t ->
              let truth = Tuple.of_array (Crcore.Spec.schema spec) t in
              let o = F.resolve ~max_rounds:4 ~user:(F.oracle truth) spec in
              let rec monotone = function
                | a :: (b :: _ as rest) -> a <= b && monotone rest
                | _ -> true
              in
              monotone o.F.per_round_known
          | None -> true)
      | _ -> true)

(* Framework.resolve is the root oracle every engine path is compared
   against, so it answers to the enumerator directly. In Exact mode the
   encoding is the completion semantics itself: validity is the
   enumerator's verdict, and every value resolved without a user is the
   one all valid completions agree on. (Paper mode's heuristic reduction
   can differ from the enumerator by design.) *)
let prop_exact_agrees_with_enumerator =
  QCheck.Test.make ~count:300 ~name:"exact mode: valid and resolved values match the enumerator"
    Fixtures.qcheck_spec (fun spec ->
      match Crcore.Reference.analyze spec with
      | None -> QCheck.assume_fail ()
      | Some r ->
          let o = F.resolve ~mode:Crcore.Encode.Exact ~user:F.silent spec in
          o.F.valid = r.Crcore.Reference.valid
          && Array.for_all2
               (fun v agreed -> v = None || v = agreed)
               o.F.resolved r.Crcore.Reference.agreed)

let () =
  Alcotest.run "framework"
    [
      ( "paper_flow",
        [
          Alcotest.test_case "Edith: zero interactions" `Quick test_edith_zero_interactions;
          Alcotest.test_case "George: silent" `Quick test_george_silent;
          Alcotest.test_case "George: oracle, 1 round" `Quick test_george_oracle_one_round;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "invalid orders detected" `Quick test_invalid_spec_detected;
          Alcotest.test_case "constraint conflict detected" `Quick test_constraint_conflict_invalid;
          Alcotest.test_case "max_rounds cap" `Quick test_max_rounds_cap;
          Alcotest.test_case "timings populated" `Quick test_timings_populated;
          Alcotest.test_case "exact encoding mode" `Quick test_exact_mode;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_oracle_resolves_correctly;
            prop_walksat_repair_resolves_datasets;
            prop_per_round_monotone;
            prop_exact_agrees_with_enumerator;
          ] );
    ]

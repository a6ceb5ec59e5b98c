(* The batch resolution engine: equivalence with the per-entity framework
   (Framework.resolve, the naive loop that rebuilds everything every
   phase), and the shape-template cache (including that it never holds on
   to the specs it served). *)

module F = Crcore.Framework
module E = Crcore.Engine

let the_ok (ir : E.item_result) =
  match ir.E.outcome with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: unexpected batch error: %s" ir.E.label e.E.exn

let check_same_outcome msg o r =
  Alcotest.(check bool) (msg ^ ": resolved") true (o.F.resolved = r.E.resolved);
  Alcotest.(check bool) (msg ^ ": valid") o.F.valid r.E.valid;
  Alcotest.(check int) (msg ^ ": rounds") o.F.rounds r.E.rounds;
  Alcotest.(check (list int)) (msg ^ ": per-round known") o.F.per_round_known r.E.per_round_known

let test_edith_matches_framework () =
  let o = F.resolve ~user:F.silent (Fixtures.edith_spec ()) in
  let r, st = E.resolve ~user:F.silent (Fixtures.edith_spec ()) in
  check_same_outcome "edith/silent" o r;
  Alcotest.(check bool) "one solver session" true (st.E.solvers_built >= 1)

let test_george_oracle_matches_framework () =
  let user = F.oracle Fixtures.george_truth in
  let o = F.resolve ~user (Fixtures.george_spec ()) in
  let r, st = E.resolve ~user (Fixtures.george_spec ()) in
  check_same_outcome "george/oracle" o r;
  (* every interaction round went through either the delta path or a
     universe-growth rebuild — never silently skipped *)
  Alcotest.(check int) "rounds accounted for" r.E.rounds
    (st.E.delta_extensions + st.E.rebuilds)

let test_invalid_spec_matches_framework () =
  let spec () =
    Crcore.Spec.make Fixtures.george_entity
      ~orders:
        [
          { Crcore.Spec.attr = "status"; lo = 0; hi = 1 };
          { Crcore.Spec.attr = "status"; lo = 1; hi = 0 };
        ]
      ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma
  in
  let o = F.resolve ~user:F.silent (spec ()) in
  let r, _ = E.resolve ~user:F.silent (spec ()) in
  Alcotest.(check bool) "both invalid" false (o.F.valid || r.E.valid);
  check_same_outcome "invalid" o r

let test_cache_hit_identical () =
  (* three identical George specs in one batch: the first compiles the
     shape, the other two instantiate the shared template. run_batch
     builds a fresh cache, so whatever earlier tests resolved on this
     domain does not count. *)
  let items =
    List.init 3 (fun i ->
        {
          E.label = Printf.sprintf "g%d" i;
          spec = Fixtures.george_spec ();
          user = F.oracle Fixtures.george_truth;
        })
  in
  let results, stats = E.run_batch items in
  (match List.map the_ok results with
  | r1 :: rest ->
      List.iter
        (fun (r : E.result) ->
          Alcotest.(check bool) "identical results" true
            (r1.E.resolved = r.E.resolved && r1.E.valid = r.E.valid
           && r1.E.rounds = r.E.rounds))
        rest
  | [] -> Alcotest.fail "no results");
  Alcotest.(check int) "shape compiled once" 1 stats.E.totals.E.template_misses;
  Alcotest.(check int) "repeats instantiate the template" 2 stats.E.totals.E.template_hits

(* The template ratchet: n distinct entities of one shape (one schema, one
   Σ/Γ) compile the shape once and instantiate it n-1 times, so a batch
   of them scores a template hit ratio of (n-1)/n. run_batch builds a
   fresh cache, so earlier shapes stay out of the count. *)
let test_template_shared_across_entities () =
  let n = 20 in
  let ds = Datagen.Person.quick ~seed:3 ~n_entities:n ~size:6 () in
  let items =
    List.map
      (fun (c : Datagen.Types.case) ->
        {
          E.label = string_of_int c.Datagen.Types.id;
          spec = Datagen.Types.spec_of ds c;
          user = F.oracle ~max_answers:1 c.Datagen.Types.truth;
        })
      ds.Datagen.Types.cases
  in
  let entities =
    List.map (fun (it : E.item) -> Entity.tuples it.E.spec.Crcore.Spec.entity) items
  in
  Alcotest.(check int) "distinct entities" n (List.length (List.sort_uniq compare entities));
  let _, stats = E.run_batch items in
  Alcotest.(check int) "entities" n stats.E.entities;
  Alcotest.(check int) "shape compiled once" 1 stats.E.totals.E.template_misses;
  Alcotest.(check int) "every other entity instantiates it" (n - 1) stats.E.totals.E.template_hits

(* A template belongs to the cache that compiled it: a session on a fresh
   cache compiles its shape even when the previous session on this domain
   had the same shape on another cache. *)
let test_fresh_cache_compiles () =
  let hits_misses () =
    let sess = E.create_session ~cache:(E.create_cache ()) (Fixtures.george_spec ()) in
    let st = E.session_stats sess in
    (st.E.template_hits, st.E.template_misses)
  in
  Alcotest.(check (pair int int)) "first cache compiles" (0, 1) (hits_misses ());
  Alcotest.(check (pair int int)) "second cache compiles too" (0, 1) (hits_misses ())

(* The cache holds compiled shapes, never a per-entity encoding, so a spec
   it served is garbage once its caller drops it — even while the cache
   itself lives on (a long-running daemon's case). The specs are built
   and resolved in a separate, non-inlined function so that no stack slot
   of the test keeps them alive. *)
let[@inline never] resolve_and_forget cache =
  let ds = Datagen.Person.quick ~seed:11 ~n_entities:3 ~size:5 () in
  let weak = Weak.create 2 in
  List.iteri
    (fun i (c : Datagen.Types.case) ->
      let spec = Datagen.Types.spec_of ds c in
      ignore (E.resolve ~cache ~user:F.silent spec);
      if i >= 1 then Weak.set weak (i - 1) (Some spec))
    ds.Datagen.Types.cases;
  weak

let test_cache_releases_specs () =
  let cache = E.create_cache () in
  let weak = resolve_and_forget cache in
  Gc.full_major ();
  Alcotest.(check bool) "2nd spec collected" false (Weak.check weak 0);
  Alcotest.(check bool) "3rd spec collected" false (Weak.check weak 1);
  ignore (Sys.opaque_identity cache)

let[@inline never] open_resolve_remove store =
  let weak = Weak.create 1 in
  let spec = Fixtures.george_spec () in
  Weak.set weak 0 (Some spec);
  let h, _ = Crcore.Session.Store.get_or_create store "g" ~spec:(fun () -> spec) in
  ignore (Crcore.Session.resolve h);
  ignore (Crcore.Session.Store.remove store "g");
  weak

let test_store_releases_removed_specs () =
  let store = Crcore.Session.Store.create () in
  let weak = open_resolve_remove store in
  Gc.full_major ();
  Alcotest.(check bool) "removed session's spec collected" false (Weak.check weak 0);
  Alcotest.(check int) "no live sessions left" 0 (Crcore.Session.Store.live store)

let test_run_batch_matches_per_entity () =
  let items =
    [
      { E.label = "edith"; spec = Fixtures.edith_spec (); user = F.oracle Fixtures.edith_truth };
      { E.label = "george"; spec = Fixtures.george_spec (); user = F.oracle Fixtures.george_truth };
    ]
  in
  let results, stats = E.run_batch items in
  Alcotest.(check int) "all entities resolved" 2 stats.E.entities;
  Alcotest.(check int) "all valid" 2 stats.E.valid_entities;
  Alcotest.(check int) "attrs total" 16 stats.E.attrs_total;
  List.iter
    (fun (ir : E.item_result) ->
      let spec =
        if ir.E.label = "edith" then Fixtures.edith_spec () else Fixtures.george_spec ()
      in
      let truth = if ir.E.label = "edith" then Fixtures.edith_truth else Fixtures.george_truth in
      let o = F.resolve ~user:(F.oracle truth) spec in
      check_same_outcome ir.E.label o (the_ok ir))
    results

let test_batch_streaming_order () =
  let seen = ref [] in
  let items =
    [
      { E.label = "a"; spec = Fixtures.edith_spec (); user = F.silent };
      { E.label = "b"; spec = Fixtures.george_spec (); user = F.silent };
    ]
  in
  let _, _ = E.run_batch ~on_result:(fun ir -> seen := ir.E.label :: !seen) items in
  Alcotest.(check (list string)) "streamed in order" [ "a"; "b" ] (List.rev !seen)

let test_stats_aggregation () =
  let items =
    List.concat_map
      (fun _ ->
        [ { E.label = "g"; spec = Fixtures.george_spec (); user = F.oracle Fixtures.george_truth } ])
      [ 1; 2; 3 ]
  in
  let _, stats = E.run_batch items in
  Alcotest.(check int) "entities" 3 stats.E.entities;
  let rate = stats.E.template_hit_ratio in
  Alcotest.(check bool) "template hit rate in [0,1]" true (rate >= 0. && rate <= 1.);
  Alcotest.(check bool) "times non-negative" true
    (stats.E.totals.E.times.E.encode_ms >= 0.
    && stats.E.totals.E.times.E.validity_ms >= 0.
    && stats.E.totals.E.times.E.deduce_ms >= 0.
    && stats.E.totals.E.times.E.suggest_ms >= 0.);
  Alcotest.(check bool) "pp_stats renders" true
    (String.length (Format.asprintf "%a" E.pp_stats stats) > 0)

(* A batch's totals add every counter over its items, the solver gauges
   [learnts] and [binaries] included: the batch's clause database is the
   sum of its entities', not the last entity's. *)
let test_totals_sum_items () =
  let ds = Datagen.Person.quick ~seed:5 ~n_entities:12 ~size:8 () in
  let items =
    List.map
      (fun (c : Datagen.Types.case) ->
        {
          E.label = string_of_int c.Datagen.Types.id;
          spec = Datagen.Types.spec_of ds c;
          user = F.silent;
        })
      ds.Datagen.Types.cases
  in
  let config = { E.default_config with mode = Crcore.Encode.Exact } in
  let results, stats = E.run_batch ~config items in
  let sum f = List.fold_left (fun n (ir : E.item_result) -> n + f ir.E.stats) 0 results in
  let sat f = sum (fun s -> f s.E.solver) and t = stats.E.totals in
  Alcotest.(check bool) "several entities hold binaries" true
    (List.length
       (List.filter
          (fun (ir : E.item_result) -> ir.E.stats.E.solver.Sat.Solver.binaries > 0)
          results)
    > 1);
  let module S = Sat.Solver in
  Alcotest.(check int) "binaries" (sat (fun s -> s.S.binaries)) t.E.solver.S.binaries;
  Alcotest.(check int) "learnts" (sat (fun s -> s.S.learnts)) t.E.solver.S.learnts;
  Alcotest.(check int) "conflicts" (sat (fun s -> s.S.conflicts)) t.E.solver.S.conflicts;
  Alcotest.(check int) "solvers built" (sum (fun s -> s.E.solvers_built)) t.E.solvers_built;
  Alcotest.(check int) "deduce probes" (sum (fun s -> s.E.deduce_probes)) t.E.deduce_probes;
  Alcotest.(check int) "true-value solves" (sum (fun s -> s.E.true_value_solves))
    t.E.true_value_solves

let test_facade_surface () =
  (* the stable facade re-exports the whole pipeline under one name *)
  let spec =
    Conflict_resolution.Spec.make Fixtures.edith_entity ~orders:[] ~sigma:Fixtures.sigma
      ~gamma:Fixtures.gamma
  in
  let o = Conflict_resolution.Framework.resolve ~user:Conflict_resolution.Framework.silent spec in
  Alcotest.(check bool) "facade resolves edith" true o.Conflict_resolution.Framework.valid;
  let r, _ =
    Conflict_resolution.Engine.resolve ~user:Conflict_resolution.Framework.silent spec
  in
  Alcotest.(check bool) "facade engine agrees" true (o.F.resolved = r.E.resolved)

(* NaN pattern constants read as [Cfd.Constant_cfd] reads them: a NaN
   LHS constant matches nothing (the CFD is dead), a NaN RHS constant is
   never satisfied (the CFD is a veto). Two tuples, the second less
   current than the first on [a]. *)
let nan_spec ~rows ~cfd =
  let schema = Schema.make [ "a"; "b" ] in
  let entity =
    Entity.make schema (List.map (fun r -> Tuple.make schema (List.map Value.of_string r)) rows)
  in
  Crcore.Spec.make entity
    ~orders:[ { Crcore.Spec.attr = "a"; lo = 1; hi = 0 } ]
    ~sigma:[] ~gamma:[ Cfd.Constant_cfd.parse_exn cfd ]

let check_nan_spec msg spec =
  let r =
    match Crcore.Reference.analyze spec with Some r -> r | None -> Alcotest.fail "too large"
  in
  let expect_b = if r.Crcore.Reference.valid then r.Crcore.Reference.agreed.(1) else None in
  let e, _ = E.resolve ~user:F.silent spec in
  Alcotest.(check bool) (msg ^ ": engine valid") r.Crcore.Reference.valid e.E.valid;
  Alcotest.(check bool) (msg ^ ": engine b") true (e.E.resolved.(1) = expect_b);
  let o = F.resolve ~user:F.silent spec in
  Alcotest.(check bool) (msg ^ ": framework b") true (o.F.resolved.(1) = expect_b)

let test_nan_lhs_constant () =
  let spec = nan_spec ~rows:[ [ "nan"; "x" ]; [ "1"; "y" ] ] ~cfd:{|a = nan -> b = "x"|} in
  (* the CFD never applies: nothing decides b *)
  check_nan_spec "LHS NaN" spec;
  let r, _ = E.resolve ~user:F.silent spec in
  Alcotest.(check bool) "LHS NaN: b unresolved" true (r.E.resolved.(1) = None)

let test_nan_rhs_constant () =
  let spec = nan_spec ~rows:[ [ "p"; "nan" ]; [ "q"; "y" ] ] ~cfd:{|a = "p" -> b = nan|} in
  (* a = p is current, and no value of b equals NaN: no valid completion *)
  check_nan_spec "RHS NaN" spec;
  let r, _ = E.resolve ~user:F.silent spec in
  Alcotest.(check bool) "RHS NaN: invalid" false r.E.valid

let prop_incremental_equals_naive =
  (* the whole point: the engine's session, cache and rejection before
     solving must never change what is resolved, only how much work it
     takes *)
  QCheck.Test.make ~count:60 ~name:"incremental session == naive rebuild on random specs"
    Fixtures.qcheck_spec (fun spec ->
      let user = Fixtures.reference_user spec in
      let r, _ = E.resolve ~user spec in
      Fixtures.same_answer (F.resolve ~user spec) r)

let prop_engine_equals_framework_on_datasets =
  QCheck.Test.make ~count:6 ~name:"batch engine == per-entity framework on generator data"
    QCheck.(int_range 0 100)
    (fun seed ->
      let ds = Datagen.Person.quick ~seed ~n_entities:4 ~size:7 () in
      let items =
        List.map
          (fun (c : Datagen.Types.case) ->
            {
              E.label = string_of_int c.Datagen.Types.id;
              spec = Datagen.Types.spec_of ds c;
              user = F.oracle c.Datagen.Types.truth;
            })
          ds.Datagen.Types.cases
      in
      let results, stats = E.run_batch items in
      stats.E.entities = List.length items
      && List.for_all2
           (fun (c : Datagen.Types.case) (ir : E.item_result) ->
             let o =
               F.resolve ~user:(F.oracle c.Datagen.Types.truth) (Datagen.Types.spec_of ds c)
             in
             Fixtures.same_answer o (the_ok ir))
           ds.Datagen.Types.cases results)

let prop_exact_mode_configs_agree =
  QCheck.Test.make ~count:25 ~name:"exact-mode incremental == exact-mode framework"
    Fixtures.qcheck_spec (fun spec ->
      let mode = Crcore.Encode.Exact in
      let r, _ = E.resolve ~config:{ E.default_config with mode } ~user:F.silent spec in
      Fixtures.same_answer (F.resolve ~mode ~user:F.silent spec) r)

(* One Person entity with a 2000-tuple, linearly growing history: the
   wide-domain Exact-mode regime, where each attribute's active domain
   (and with it the CNF) is far larger than on the generator's small
   entities. The engine (template instantiation, incremental sessions)
   must resolve it exactly as the naive rebuild-everything
   Framework.resolve does. *)
let test_exact_large_domain_matches_naive () =
  let size = 2000 in
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities = 1;
        size_min = size;
        size_max = size;
        extra_events = size / 100;
        seed = 101;
      }
  in
  let c = List.hd ds.Datagen.Types.cases in
  let spec = Datagen.Types.spec_of ds c in
  Alcotest.(check int) "tuples" size (List.length (Entity.tuples spec.Crcore.Spec.entity));
  let mode = Crcore.Encode.Exact and user = F.oracle ~max_answers:1 c.Datagen.Types.truth in
  let r, _ = E.resolve ~config:{ E.default_config with mode } ~user spec in
  check_same_outcome "wide domain" (F.resolve ~mode ~user spec) r

(* ---- the silent user ---- *)

(* A user that answers [] like {!F.silent} but is not it: it is shown
   every suggestion *)
let mute _ ~schema:_ = []

(* George keeps open attributes after deduction, so his loop reaches the
   suggestion step. A silent user ends it there, before [Suggest] runs,
   with the answer the framework (which still suggests) reaches. *)
let test_silent_skips_suggest () =
  let spec = Fixtures.george_spec () in
  let r, st = E.resolve ~user:F.silent spec in
  check_same_outcome "george/silent" (F.resolve ~user:F.silent spec) r;
  Alcotest.(check bool) "open attributes left" true (Array.exists Option.is_none r.E.resolved);
  Alcotest.(check (float 0.)) "no suggest time" 0. st.E.times.E.suggest_ms

(* A user answering [] that is not [F.silent] still gets a suggestion
   built: the same answer, one more phase on the live solver, and the
   suggestion's fault point and budget check are reached — an Exhaust
   there degrades it, while the silent user never gets that far. *)
let test_mute_user_runs_suggest () =
  let spec = Fixtures.george_spec () in
  let silent, st_silent = E.resolve ~user:F.silent spec in
  let r, st = E.resolve ~user:mute spec in
  Alcotest.(check bool) "same answer" true
    (r = { silent with E.conflicts_spent = r.E.conflicts_spent });
  Alcotest.(check int) "the suggestion ran on the live solver" (st_silent.E.solvers_reused + 1)
    st.E.solvers_reused;
  Alcotest.(check bool) "suggest timed" true (st.E.times.E.suggest_ms > 0.);
  Crcore.Faults.arm
    [
      { Crcore.Faults.label = Some "g"; point = Crcore.Faults.Maxsat; nth = 1; action = Crcore.Faults.Exhaust };
    ];
  Fun.protect ~finally:Crcore.Faults.disarm (fun () ->
      let cut, _ = E.resolve ~label:"g" ~user:mute spec in
      Alcotest.(check bool) "mute: degraded at the suggestion" true
        (cut.E.level = E.PartialDeduce
        && cut.E.degrade_reason = Some { E.cause = E.Conflicts; phase = E.Suggest_p });
      let quiet, _ = E.resolve ~label:"g" ~user:F.silent spec in
      Alcotest.(check bool) "silent: exact, fault point not reached" true (quiet = silent))

(* One long-history entity in its smoke shape (Exact mode, 300 tuples,
   10 extra life events): a silent resolve decides its true values
   without the backbone. *)
let smoke_history () =
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
  Datagen.Types.spec_of ds (List.hd ds.Datagen.Types.cases)

let test_silent_runs_no_backbone () =
  let spec = smoke_history () in
  let config = { E.default_config with mode = Crcore.Encode.Exact } in
  let r, st = E.resolve ~config ~user:F.silent spec in
  check_same_outcome "history/silent" (F.resolve ~mode:Crcore.Encode.Exact ~user:F.silent spec) r;
  Alcotest.(check int) "no backbone probe" 0 st.E.deduce_probes;
  Alcotest.(check int) "no backbone solve" 0 st.E.deduce_sat_calls;
  Alcotest.(check int) "no backbone seed" 0 st.E.deduce_seeded

(* George needs a round: the oracle is shown a suggestion, derived from
   the backbone; the silent user is not, and no backbone runs *)
let test_oracle_builds_backbone () =
  let spec = Fixtures.george_spec () in
  let user = F.oracle Fixtures.george_truth in
  let r, st = E.resolve ~user spec in
  check_same_outcome "george/oracle" (F.resolve ~user spec) r;
  Alcotest.(check bool) "a suggestion was answered" true (r.E.rounds > 0);
  Alcotest.(check bool) "derived from a backbone" true
    (st.E.deduce_seeded + st.E.deduce_probes > 0);
  let _, quiet = E.resolve ~user:F.silent spec in
  Alcotest.(check int) "silent: no backbone" 0 (quiet.E.deduce_seeded + quiet.E.deduce_sat_calls)

(* Row counters on a history that repeats its records: Edith's three
   tuples four times over lower as three rows, with the unpadded
   entity's answer. *)
let test_row_counters () =
  let padded =
    Entity.make Fixtures.schema (List.concat (List.init 4 (fun _ -> Entity.tuples Fixtures.edith_entity)))
  in
  let spec = Crcore.Spec.make padded ~orders:[] ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma in
  let r, st = E.resolve ~user:F.silent spec in
  check_same_outcome "padded edith" (F.resolve ~user:F.silent spec) r;
  let plain, _ = E.resolve ~user:F.silent (Fixtures.edith_spec ()) in
  Alcotest.(check bool) "the unpadded answer" true (r.E.resolved = plain.E.resolved);
  Alcotest.(check int) "tuples" (Entity.size padded) st.E.encode_tuples;
  Alcotest.(check int) "rows" (Array.length (Entity.distinct_rows padded)) st.E.encode_rows;
  Alcotest.(check bool) "rows < tuples" true (st.E.encode_rows < st.E.encode_tuples);
  Alcotest.(check int) "one row per record" 3 st.E.encode_rows

let () =
  Alcotest.run "engine"
    [
      ( "framework_equivalence",
        [
          Alcotest.test_case "Edith silent" `Quick test_edith_matches_framework;
          Alcotest.test_case "George oracle" `Quick test_george_oracle_matches_framework;
          Alcotest.test_case "invalid spec" `Quick test_invalid_spec_matches_framework;
          Alcotest.test_case "Exact wide domain == naive" `Quick
            test_exact_large_domain_matches_naive;
        ] );
      ( "sessions_and_cache",
        [
          Alcotest.test_case "cache hit is identical" `Quick test_cache_hit_identical;
          Alcotest.test_case "template shared by 20 entities" `Quick
            test_template_shared_across_entities;
          Alcotest.test_case "fresh cache compiles its shape" `Quick test_fresh_cache_compiles;
          Alcotest.test_case "cache releases specs" `Quick test_cache_releases_specs;
          Alcotest.test_case "store releases removed specs" `Quick
            test_store_releases_removed_specs;
          Alcotest.test_case "batch == per-entity" `Quick test_run_batch_matches_per_entity;
          Alcotest.test_case "streaming order" `Quick test_batch_streaming_order;
          Alcotest.test_case "stats aggregation" `Quick test_stats_aggregation;
          Alcotest.test_case "batch totals sum the items" `Quick test_totals_sum_items;
          Alcotest.test_case "facade surface" `Quick test_facade_surface;
          Alcotest.test_case "NaN LHS pattern constant" `Quick test_nan_lhs_constant;
          Alcotest.test_case "NaN RHS pattern constant" `Quick test_nan_rhs_constant;
          Alcotest.test_case "row counters on repeated records" `Quick test_row_counters;
        ] );
      ( "silent_user",
        [
          Alcotest.test_case "silent resolve builds no suggestion" `Quick test_silent_skips_suggest;
          Alcotest.test_case "mute user still runs suggest" `Quick test_mute_user_runs_suggest;
          Alcotest.test_case "silent Exact resolve runs no backbone probe" `Quick
            test_silent_runs_no_backbone;
          Alcotest.test_case "oracle still builds the backbone before suggest" `Quick
            test_oracle_builds_backbone;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_incremental_equals_naive;
            prop_engine_equals_framework_on_datasets;
            prop_exact_mode_configs_agree;
          ] );
    ]

(* The domain-parallel batch path: Parallel.Pool scheduling discipline,
   and the engine-level guarantee that [jobs > 1] never changes what
   run_batch returns — only how long it takes. *)

module F = Crcore.Framework
module E = Crcore.Engine

(* ---- Parallel.Pool unit tests ---- *)

let test_pool_covers_all_indices () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let n = 100 in
          let out = Array.make n (-1) in
          Parallel.Pool.run pool ~n (fun i -> out.(i) <- i * i);
          Array.iteri
            (fun i v ->
              Alcotest.(check int) (Printf.sprintf "jobs=%d index %d" jobs i) (i * i) v)
            out))
    [ 1; 2; 4; 8 ]

let test_pool_chunk_sizes () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun chunk ->
          let n = 37 in
          let out = Array.make n false in
          Parallel.Pool.run ~chunk pool ~n (fun i -> out.(i) <- true);
          Alcotest.(check bool)
            (Printf.sprintf "chunk=%d covers all" chunk)
            true
            (Array.for_all Fun.id out))
        [ 1; 5; 1000 ])

let test_pool_reuse_and_empty () =
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      let calls = Atomic.make 0 in
      Parallel.Pool.run pool ~n:0 (fun _ -> Atomic.incr calls);
      Alcotest.(check int) "n=0 runs nothing" 0 (Atomic.get calls);
      Parallel.Pool.run pool ~n:10 (fun _ -> Atomic.incr calls);
      Parallel.Pool.run pool ~n:10 (fun _ -> Atomic.incr calls);
      Alcotest.(check int) "two jobs on one pool" 20 (Atomic.get calls))

let test_pool_lowest_failure_wins () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let raised =
            try
              Parallel.Pool.run pool ~n:60 (fun i ->
                  if i = 7 || i = 41 then failwith (string_of_int i));
              None
            with Failure m -> Some m
          in
          (* every index is still attempted; the failure re-raised at the
             end is the lowest-indexed one *)
          Alcotest.(check (option string))
            (Printf.sprintf "jobs=%d lowest failure" jobs)
            (Some "7") raised))
    [ 1; 4 ]

let test_pool_run_collect () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let results =
            Parallel.Pool.run_collect pool ~n:20 (fun i ->
                if i mod 7 = 3 then failwith (string_of_int i) else i * 10)
          in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d result count" jobs)
            20 (Array.length results);
          Array.iteri
            (fun i r ->
              match r with
              | Ok v ->
                  Alcotest.(check bool)
                    (Printf.sprintf "jobs=%d item %d ok" jobs i)
                    true
                    (i mod 7 <> 3 && v = i * 10)
              | Error e ->
                  Alcotest.(check bool)
                    (Printf.sprintf "jobs=%d item %d error" jobs i)
                    true
                    (i mod 7 = 3
                    && e.Parallel.Pool.index = i
                    && (match e.Parallel.Pool.exn with
                       | Failure m -> m = string_of_int i
                       | _ -> false)))
            results))
    [ 1; 4 ]

let test_pool_run_collect_empty () =
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let results = Parallel.Pool.run_collect pool ~n:0 (fun i -> i) in
      Alcotest.(check int) "n=0 collects nothing" 0 (Array.length results))

let test_pool_clamps_jobs () =
  Parallel.Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "jobs clamped to 1" 1 (Parallel.Pool.jobs pool);
      let hit = ref false in
      Parallel.Pool.run pool ~n:1 (fun _ -> hit := true);
      Alcotest.(check bool) "still runs" true !hit)

(* ---- batches of random specs, including lint-rejected and unsat ---- *)

(* A spec the lint pre-phase provably rejects: a two-cycle in [a]'s
   explicit currency order between tuples holding distinct values. *)
let broken_spec () =
  let mk vals = Tuple.make Fixtures.small_schema (List.map (fun s -> Value.Str s) vals) in
  let entity = Entity.make Fixtures.small_schema [ mk [ "a0"; "b0"; "c0" ]; mk [ "a1"; "b1"; "c1" ] ] in
  Crcore.Spec.make entity
    ~orders:
      [ { Crcore.Spec.attr = "a"; lo = 0; hi = 1 }; { Crcore.Spec.attr = "a"; lo = 1; hi = 0 } ]
    ~sigma:[] ~gamma:[]

(* 20 specs per generated batch: random ones (possibly unsat through
   inconsistent orders / contradictory Σ) with every fifth replaced by
   the guaranteed lint-rejected spec above. Users are pure closures over
   a precomputed truth tuple, so they are safe to call from any domain. *)
let batch_of_seed seed =
  let st = Random.State.make [| seed |] in
  List.init 20 (fun i ->
      let spec =
        if i mod 5 = 4 then broken_spec () else Fixtures.random_spec st
      in
      { E.label = string_of_int i; spec; user = Fixtures.reference_user spec })

let same_item_results (a : E.item_result list) (b : E.item_result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : E.item_result) (y : E.item_result) ->
         x.E.label = y.E.label && x.E.outcome = y.E.outcome)
       a b

(* The aggregate with what a schedule may change masked: phase times and
   encode allocation are measurements, and which domain compiles a shape
   first decides the template hit/miss split (and so the ratio). The
   batch width and the wall time differ by construction. *)
let schedule_free (st : E.stats) =
  let t = st.E.totals in
  let times =
    {
      E.lint_ms = 0.;
      encode_ms = 0.;
      saturate_ms = 0.;
      validity_ms = 0.;
      deduce_ms = 0.;
      suggest_ms = 0.;
    }
  in
  {
    st with
    E.totals =
      { t with E.times; encode_alloc_words = 0.; template_hits = 0; template_misses = 0 };
    template_hit_ratio = 0.;
    jobs = 0;
    jobs_requested = 0;
    wall_ms = 0.;
  }

(* The headline property: 25 batches x 20 specs = 500 random specs, each
   batch resolved sequentially and with jobs in {2, 4, 8}; every parallel
   run must return exactly the sequential results and aggregate counters.
   Lint stays on, so the rejected specs exercise the mixed lint/solve path
   under parallelism. *)
let prop_parallel_equals_sequential =
  QCheck.Test.make ~count:25 ~name:"run_batch jobs>1 == jobs=1 on random spec batches"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let items = batch_of_seed seed in
      let seq_results, seq_stats = E.run_batch items in
      List.for_all
        (fun jobs ->
          (* clamp off: the property is about arbitrary schedules, so it
             must actually run the requested width even on small hosts *)
          let par_results, par_stats =
            E.run_batch ~config:{ E.default_config with jobs; clamp_jobs = false } items
          in
          same_item_results seq_results par_results
          && schedule_free par_stats = schedule_free seq_stats)
        [ 2; 4; 8 ])

let test_parallel_streaming_order () =
  let items = batch_of_seed 42 in
  let seen = ref [] in
  let _, _ =
    E.run_batch
      ~config:{ E.default_config with jobs = 4; clamp_jobs = false }
      ~on_result:(fun ir -> seen := ir.E.label :: !seen)
      items
  in
  Alcotest.(check (list string))
    "on_result streams in input order"
    (List.map (fun (it : E.item) -> it.E.label) items)
    (List.rev !seen)

let test_parallel_stats_invariants () =
  let items = batch_of_seed 7 in
  let _, st =
    E.run_batch ~config:{ E.default_config with jobs = 4; clamp_jobs = false } items
  in
  Alcotest.(check int) "jobs recorded" 4 st.E.jobs;
  Alcotest.(check int) "jobs_requested recorded" 4 st.E.jobs_requested;
  Alcotest.(check bool) "deduce counters non-negative" true
    (st.E.totals.E.deduce_sat_calls >= 0 && st.E.totals.E.deduce_probes >= 0
    && st.E.totals.E.deduce_model_prunes >= 0 && st.E.totals.E.deduce_seeded >= 0);
  Alcotest.(check bool) "live sessions served phases" true (st.E.totals.E.solvers_reused > 0);
  Alcotest.(check int) "entities" (List.length items) st.E.entities;
  Alcotest.(check int) "rebuild breakdown sums" st.E.totals.E.rebuilds
    (st.E.totals.E.rebuilds_renumbered + st.E.totals.E.rebuilds_impure);
  Alcotest.(check bool) "template_hit_ratio in [0,1]" true
    (st.E.template_hit_ratio >= 0. && st.E.template_hit_ratio <= 1.);
  Alcotest.(check bool) "template_hit_ratio consistent" true
    (st.E.totals.E.template_hits + st.E.totals.E.template_misses = 0
    || abs_float
         (st.E.template_hit_ratio
         -. (float_of_int st.E.totals.E.template_hits
            /. float_of_int (st.E.totals.E.template_hits + st.E.totals.E.template_misses)))
       < 1e-9);
  Alcotest.(check bool) "phase times non-negative" true
    (st.E.totals.E.times.E.lint_ms >= 0.
    && st.E.totals.E.times.E.encode_ms >= 0.
    && st.E.totals.E.times.E.validity_ms >= 0.
    && st.E.totals.E.times.E.deduce_ms >= 0.
    && st.E.totals.E.times.E.suggest_ms >= 0.)

(* Cross-phase solver reuse (one session serving validity, backbone
   deduction and the MaxSAT repair layer) and template instantiation must
   be invisible in results. Two checks: whole item results, conflict
   counts included, are equal at jobs = 1 and jobs = 4 (one path, so
   [conflicts_spent] is deterministic); and every answer equals
   Framework.resolve, the naive loop that rebuilds everything per phase.
   Conflict counts are never compared against that reference: how many
   conflicts a run burns depends on the path taken. *)
let prop_solver_reuse_identical_under_jobs =
  QCheck.Test.make ~count:15 ~name:"solver reuse: incremental == naive at jobs in {1,4}"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let items = batch_of_seed seed in
      let run jobs =
        fst (E.run_batch ~config:{ E.default_config with jobs; clamp_jobs = false } items)
      in
      let seq = run 1 in
      same_item_results seq (run 4) && Fixtures.batch_matches_framework items seq)

(* By default the engine caps the batch width at the machine's core
   count: over-subscribing domains is a pure slowdown (jobs=4 ran 3x
   slower than jobs=1 on a 1-core host). The request is still recorded. *)
let test_jobs_clamped_to_cores () =
  let items = batch_of_seed 11 in
  let cores = Parallel.Pool.recommended_jobs () in
  let _, st = E.run_batch ~config:{ E.default_config with jobs = 64 } items in
  Alcotest.(check int) "request recorded" 64 st.E.jobs_requested;
  Alcotest.(check bool) "effective width capped at cores" true
    (st.E.jobs >= 1 && st.E.jobs <= cores);
  let _, st1 = E.run_batch items in
  Alcotest.(check int) "jobs=1 unaffected" 1 st1.E.jobs;
  Alcotest.(check int) "jobs=1 request recorded" 1 st1.E.jobs_requested

(* CRSOLVE_JOBS is how CI widens the tested job counts without editing
   the suite: when set, the same parity property runs at that width. *)
let env_jobs_tests =
  match Sys.getenv_opt "CRSOLVE_JOBS" with
  | Some s when (match int_of_string_opt s with Some j -> j > 1 | None -> false) ->
      let jobs = int_of_string s in
      [
        QCheck.Test.make ~count:10
          ~name:(Printf.sprintf "run_batch jobs=%d == jobs=1 (CRSOLVE_JOBS)" jobs)
          QCheck.(int_bound 1_000_000)
          (fun seed ->
            let items = batch_of_seed seed in
            let seq_results, seq_stats = E.run_batch items in
            let par_results, par_stats =
              E.run_batch ~config:{ E.default_config with jobs; clamp_jobs = false } items
            in
            same_item_results seq_results par_results
            && schedule_free par_stats = schedule_free seq_stats);
      ]
  | _ -> []

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "covers all indices" `Quick test_pool_covers_all_indices;
          Alcotest.test_case "chunk sizes" `Quick test_pool_chunk_sizes;
          Alcotest.test_case "reuse and empty" `Quick test_pool_reuse_and_empty;
          Alcotest.test_case "lowest failure wins" `Quick test_pool_lowest_failure_wins;
          Alcotest.test_case "run_collect isolates failures" `Quick test_pool_run_collect;
          Alcotest.test_case "run_collect empty" `Quick test_pool_run_collect_empty;
          Alcotest.test_case "clamps jobs" `Quick test_pool_clamps_jobs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "streaming order (jobs=4)" `Quick test_parallel_streaming_order;
          Alcotest.test_case "stats invariants (jobs=4)" `Quick test_parallel_stats_invariants;
          Alcotest.test_case "jobs clamped to cores" `Quick test_jobs_clamped_to_cores;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          (prop_parallel_equals_sequential
           :: prop_solver_reuse_identical_under_jobs
           :: env_jobs_tests) );
    ]

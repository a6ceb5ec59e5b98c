(* The session layer and the crsolved daemon: parity of incremental
   re-resolution with cold re-resolves over random interleaved arrival
   schedules, delta coalescing, memoized reads, store bounds (LRU + TTL),
   per-request budgets, baseline policies, the Config builder, and the
   wire protocol round trip. *)

module Cr = Conflict_resolution
module S = Cr.Session
module E = Cr.Engine

let values_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Option.equal Value.equal x y) a b

(* ------------------------------------------------------------------ *)
(* Interleaved-arrival parity: replay an update log through live        *)
(* sessions (arrivals buffered until the first resolve, exactly like    *)
(* the daemon) and check every resolve point against a cold re-resolve  *)
(* of the accumulated specification.                                    *)
(* ------------------------------------------------------------------ *)

let replay_parity ?(vs_framework = false) ~seed ~n_entities ~size () =
  let ds = Datagen.Person.quick ~seed ~n_entities ~size () in
  let sigma = ds.Datagen.Types.sigma and gamma = ds.Datagen.Types.gamma in
  let log =
    Datagen.Update_log.replay
      ~params:{ Datagen.Update_log.default_params with seed = seed + 1000 }
      ds
  in
  (* the hot side always runs the default config; the cold side is a fresh
     engine session or, with [vs_framework], Framework.resolve (fresh
     solvers per phase): the incremental sessions against
     the reference loop *)
  let cold spec =
    if vs_framework then
      let o = Cr.Framework.resolve ~user:Cr.Framework.silent spec in
      (o.Cr.Framework.resolved, o.Cr.Framework.valid)
    else
      let r, _ = E.resolve ~user:Cr.Framework.silent spec in
      (r.E.resolved, r.E.valid)
  in
  let store = S.Store.create ~config:Cr.Config.default () in
  let pending = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun ev ->
      match ev with
      | Datagen.Update_log.Arrival { label; tuple } -> (
          match S.Store.find store label with
          | Some h -> S.ingest h ~tuples:[ tuple ] ()
          | None ->
              let ts, os = try Hashtbl.find pending label with Not_found -> ([], []) in
              Hashtbl.replace pending label (tuple :: ts, os))
      | Datagen.Update_log.Assert_order { label; order } -> (
          match S.Store.find store label with
          | Some h -> S.ingest h ~orders:[ order ] ()
          | None ->
              let ts, os = Hashtbl.find pending label in
              Hashtbl.replace pending label (ts, order :: os))
      | Datagen.Update_log.Resolve label ->
          let h =
            match S.Store.find store label with
            | Some h -> h
            | None ->
                let ts, os = Hashtbl.find pending label in
                Hashtbl.remove pending label;
                fst
                  (S.Store.get_or_create store label ~spec:(fun () ->
                       Cr.Spec.make
                         (Entity.make ds.Datagen.Types.schema (List.rev ts))
                         ~orders:(List.rev os) ~sigma ~gamma))
          in
          let r, _ = S.resolve h in
          (* cold side: re-resolve the session's accumulated spec from
             scratch — S.spec flushes any coalesced pending extension *)
          let cold_resolved, cold_valid = cold (S.spec h) in
          if not (values_equal r.E.resolved cold_resolved && r.E.valid = cold_valid) then
            ok := false)
    log.Datagen.Update_log.events;
  S.Store.clear store;
  !ok

let prop_interleaved_parity =
  QCheck.Test.make ~count:20 ~name:"session-incremental == cold re-resolve on random schedules"
    QCheck.(int_range 0 1000)
    (fun seed -> replay_parity ~seed ~n_entities:3 ~size:5 ())

(* Random interleaved schedules again, but the cold reference is
   Framework.resolve: backbone probes, group-MaxSAT selector assumptions and session
   delta extensions all land on one long-lived solver,
   and every resolve point must still agree with fresh per-phase solvers. *)
let prop_default_session_parity =
  QCheck.Test.make ~count:20 ~name:"default sessions == framework cold re-resolve"
    QCheck.(int_range 0 1000)
    (fun seed -> replay_parity ~vs_framework:true ~seed ~n_entities:3 ~size:5 ())

(* ------------------------------------------------------------------ *)
(* Session mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let george_tuples () = Entity.tuples Fixtures.george_entity

let spec_of_tuples tuples =
  Cr.Spec.make (Entity.make Fixtures.schema tuples) ~orders:[] ~sigma:Fixtures.sigma
    ~gamma:Fixtures.gamma

let extensions (st : E.entity_stats) =
  st.E.delta_extensions + st.E.rebuilds_renumbered + st.E.rebuilds_impure

let test_coalesced_ingest () =
  match george_tuples () with
  | t0 :: rest ->
      let h = S.create (spec_of_tuples [ t0 ]) in
      let before = extensions (S.stats h) in
      (* several separate ingests, no resolve in between *)
      List.iter (fun t -> S.ingest h ~tuples:[ t ] ()) rest;
      let r, _ = S.resolve h in
      let after = extensions (S.stats h) in
      Alcotest.(check int) "k ingests, one extension" (before + 1) after;
      let cold, _ =
        E.resolve ~config:E.default_config ~user:Cr.Framework.silent
          (spec_of_tuples (george_tuples ()))
      in
      Alcotest.(check bool) "matches cold resolve" true
        (values_equal r.E.resolved cold.E.resolved && r.E.valid = cold.E.valid)
  | [] -> assert false

let test_memoized_reads () =
  let h = S.create (spec_of_tuples (george_tuples ())) in
  let r1, _ = S.resolve h in
  let solvers_after_first = (S.stats h).E.solvers_built in
  let r2, _ = S.resolve h in
  Alcotest.(check bool) "identical answer" true (values_equal r1.E.resolved r2.E.resolved);
  Alcotest.(check int) "no solver work on a repeated read" solvers_after_first
    (S.stats h).E.solvers_built;
  Alcotest.(check int) "both reads counted" 2 (S.resolves h);
  (* an ingest invalidates the memo: the next resolve recomputes *)
  S.ingest h
    ~orders:[ { Cr.Spec.attr = "status"; lo = 0; hi = 1 } ]
    ();
  let r3, _ = S.resolve h in
  Alcotest.(check bool) "still a result" true (Array.length r3.E.resolved = 8)

let test_order_ingest_is_delta () =
  let h = S.create (spec_of_tuples (george_tuples ())) in
  let _ = S.resolve h in
  let before = (S.stats h).E.delta_extensions in
  (* a pure order prepend leaves every value universe unchanged *)
  S.ingest h ~orders:[ { Cr.Spec.attr = "job"; lo = 0; hi = 1 } ] ();
  let _ = S.resolve h in
  Alcotest.(check int) "order assertion takes the Delta path" (before + 1)
    (S.stats h).E.delta_extensions

(* A returned stats record is a snapshot: later ingests and resolves on
   the session do not change it, whether it came fresh from the engine or
   from the memo. *)
let test_stats_are_snapshots () =
  match george_tuples () with
  | t0 :: rest ->
      let h = S.create (spec_of_tuples [ t0 ]) in
      let _, st1 = S.resolve h in
      let _, memo = S.resolve h in
      let copy (st : E.entity_stats) =
        { st with E.times = { st.E.times with E.lint_ms = st.E.times.E.lint_ms } }
      in
      let st1' = copy st1 and memo' = copy memo in
      List.iter
        (fun t ->
          S.ingest h ~tuples:[ t ] ();
          ignore (S.resolve h))
        rest;
      Alcotest.(check bool) "later work was timed" true
        ((S.stats h).E.times.E.encode_ms > st1'.E.times.E.encode_ms);
      Alcotest.(check bool) "first record unchanged" true (st1 = st1');
      Alcotest.(check bool) "memoized record unchanged" true (memo = memo')
  | [] -> assert false

let test_closed_handle () =
  let h = S.create (spec_of_tuples (george_tuples ())) in
  S.close h;
  S.close h;
  (* idempotent *)
  Alcotest.(check bool) "closed" true (S.is_closed h);
  Alcotest.check_raises "ingest raises"
    (Invalid_argument "Session.ingest: closed handle") (fun () ->
      S.ingest h ~tuples:(george_tuples ()) ())

(* ------------------------------------------------------------------ *)
(* Store bounds                                                         *)
(* ------------------------------------------------------------------ *)

let spec_thunk () = spec_of_tuples (george_tuples ())

let test_store_lru_eviction () =
  let store =
    S.Store.create ~config:Cr.Config.(default |> with_session_cap 2) ()
  in
  let h1, created = S.Store.get_or_create store "a" ~spec:spec_thunk in
  Alcotest.(check bool) "a created" true created;
  let _ = S.Store.get_or_create store "b" ~spec:spec_thunk in
  (* touch a so b is the least recently used *)
  let _ = S.Store.find store "a" in
  let _ = S.Store.get_or_create store "c" ~spec:spec_thunk in
  Alcotest.(check int) "capacity held" 2 (S.Store.live store);
  Alcotest.(check bool) "b evicted" true (S.Store.find store "b" = None);
  Alcotest.(check bool) "a survives" true (S.Store.find store "a" <> None);
  let stats = S.Store.stats store in
  Alcotest.(check int) "one LRU eviction" 1 stats.S.Store.evicted_lru;
  Alcotest.(check bool) "evicted handle closed" true (S.is_closed h1 = false);
  S.Store.clear store;
  Alcotest.(check int) "clear empties" 0 (S.Store.live store);
  Alcotest.(check bool) "cleared handles closed" true (S.is_closed h1)

(* the store's solver gauges add up across sessions, live and retired:
   STATS' sat_binaries is the sum of every session's binary layer, not
   the last session's *)
let test_store_sums_solver_gauges () =
  let store = S.Store.create ~config:Cr.Config.default () in
  let ha, _ = S.Store.get_or_create store "a" ~spec:spec_thunk in
  let hb, _ =
    S.Store.get_or_create store "b" ~spec:(fun () ->
        spec_of_tuples (List.filteri (fun i _ -> i < 2) (george_tuples ())))
  in
  ignore (S.resolve ha);
  ignore (S.resolve hb);
  let own h = (S.stats h).E.solver in
  let ba = (own ha).Sat.Solver.binaries and bb = (own hb).Sat.Solver.binaries in
  let la = (own ha).Sat.Solver.learnts and lb = (own hb).Sat.Solver.learnts in
  Alcotest.(check bool) "each session has binaries" true (ba > 0 && bb > 0);
  let sat () = (S.Store.stats store).S.Store.sat in
  Alcotest.(check int) "binaries summed over live sessions" (ba + bb) (sat ()).Sat.Solver.binaries;
  Alcotest.(check int) "learnts summed over live sessions" (la + lb) (sat ()).Sat.Solver.learnts;
  Alcotest.(check bool) "a removed" true (S.Store.remove store "a");
  Alcotest.(check int) "binaries summed over retired + live" (ba + bb)
    (sat ()).Sat.Solver.binaries

let test_store_ttl_sweep () =
  let store =
    S.Store.create ~config:Cr.Config.(default |> with_session_ttl (Some 0.02)) ()
  in
  let _ = S.Store.get_or_create store "a" ~spec:spec_thunk in
  let _ = S.Store.get_or_create store "b" ~spec:spec_thunk in
  Alcotest.(check int) "nothing stale yet" 0 (S.Store.sweep store);
  Thread.delay 0.05;
  Alcotest.(check int) "both idle sessions swept" 2 (S.Store.sweep store);
  Alcotest.(check int) "none live" 0 (S.Store.live store);
  Alcotest.(check int) "ttl evictions counted" 2 (S.Store.stats store).S.Store.evicted_ttl

(* ------------------------------------------------------------------ *)
(* Per-request budgets on a long-lived session                          *)
(* ------------------------------------------------------------------ *)

let test_budget_exhaustion_mid_stream () =
  (* an already-expired wall: every request must degrade, and every
     request must still answer — the budget is re-armed per request, not
     spent once for the session's life *)
  let config = Cr.Config.(default |> with_budget_ms (Some 0.)) in
  match george_tuples () with
  | t0 :: t1 :: rest ->
      let h = S.create ~config (spec_of_tuples [ t0; t1 ]) in
      let r1, _ = S.resolve h in
      Alcotest.(check bool) "first request degrades" true (r1.E.level <> E.Exact);
      Alcotest.(check bool) "with a recorded reason" true (r1.E.degrade_reason <> None);
      S.ingest h ~tuples:rest ();
      let r2, _ = S.resolve h in
      Alcotest.(check bool) "mid-stream request still answers" true
        (Array.length r2.E.resolved = 8);
      Alcotest.(check bool) "and degrades again" true (r2.E.level <> E.Exact);
      (* same stream under no budget: exact, and the degraded answers
         never blocked the session from accumulating state *)
      let h' = S.create (spec_of_tuples (george_tuples ())) in
      let r3, _ = S.resolve h' in
      Alcotest.(check bool) "unbudgeted resolve is exact" true (r3.E.level = E.Exact)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Baselines and the Config builder                                     *)
(* ------------------------------------------------------------------ *)

let test_baseline_policies () =
  let h = S.create (spec_of_tuples (george_tuples ())) in
  let lww = S.baseline h Cr.Pick.Last_update_wins in
  let local = S.baseline h Cr.Pick.Accept_local in
  let spec = S.spec h in
  Alcotest.(check bool) "lww == Pick.run lww" true
    (lww = Cr.Pick.run ~strategy:Cr.Pick.Last_update_wins spec);
  Alcotest.(check bool) "local == Pick.run local" true
    (local = Cr.Pick.run ~strategy:Cr.Pick.Accept_local spec);
  (* newest non-null per attribute vs oldest: George's status column *)
  let attr_of vs name =
    let rec idx i = function
      | [] -> assert false
      | a :: _ when a = name -> i
      | _ :: t -> idx (i + 1) t
    in
    vs.(idx 0 (Schema.attr_names Fixtures.schema))
  in
  Alcotest.(check string) "lww takes the newest status" "unemployed"
    (Value.to_string (attr_of lww "status"));
  Alcotest.(check string) "accept-local keeps the oldest" "working"
    (Value.to_string (attr_of local "status"))

let test_strategy_of_string () =
  let check s expected =
    Alcotest.(check bool) s true (Cr.Pick.strategy_of_string s = Some expected)
  in
  check "lww" Cr.Pick.Last_update_wins;
  check "last_update_wins" Cr.Pick.Last_update_wins;
  check "local" Cr.Pick.Accept_local;
  check "accept_local" Cr.Pick.Accept_local;
  check "favoured" Cr.Pick.Favoured;
  Alcotest.(check bool) "unknown rejected" true
    (Cr.Pick.strategy_of_string "no-such-policy" = None)

let test_config_builder () =
  let c =
    Cr.Config.(
      default
      |> with_mode Exact
      |> with_max_rounds 9
      |> with_jobs 4
      |> with_budget_conflicts (Some 123)
      |> with_max_degrade E.PartialDeduce
      |> with_pick Cr.Pick.Last_update_wins
      |> with_session_cap 0
      |> with_session_ttl (Some 7.5))
  in
  let ec = Cr.Config.to_engine c in
  Alcotest.(check bool) "mode" true (ec.E.mode = Exact);
  Alcotest.(check int) "max rounds" 9 ec.E.max_rounds;
  Alcotest.(check int) "jobs" 4 ec.E.jobs;
  Alcotest.(check bool) "budget" true (ec.E.budget_conflicts = Some 123);
  Alcotest.(check bool) "ladder floor" true (ec.E.max_degrade = E.PartialDeduce);
  Alcotest.(check bool) "pick strategy" true
    (ec.E.pick_strategy = Cr.Pick.Last_update_wins);
  Alcotest.(check int) "cap clamped to 1" 1 (Cr.Config.max_sessions c);
  Alcotest.(check bool) "ttl kept" true (Cr.Config.session_ttl c = Some 7.5)

(* ------------------------------------------------------------------ *)
(* Daemon round trip                                                    *)
(* ------------------------------------------------------------------ *)

let csv_line values = String.trim (Csv.to_string [ values ])

let test_daemon_socket_roundtrip () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "crsolved-test-%d.sock" (Unix.getpid ()))
  in
  let d = Crserver.Daemon.create ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma () in
  let server = Thread.create (fun () -> Crserver.Daemon.serve d ~socket_path) () in
  let rec await n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if Sys.file_exists socket_path then ()
    else (
      Thread.delay 0.02;
      await (n - 1))
  in
  await 250;
  let header = csv_line (Schema.attr_names Fixtures.schema) in
  let rows =
    List.map (fun t -> csv_line (List.map Value.to_string (Tuple.values t)))
      (george_tuples ())
  in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let expect_ok r = Alcotest.(check bool) ("ok: " ^ r) true (starts_with {|{"ok":true|} r) in
  let expect_err r =
    Alcotest.(check bool) ("err: " ^ r) true (starts_with {|{"ok":false|} r)
  in
  let requests =
    [ "PING"; Printf.sprintf "OPEN g|%s" header ]
    @ List.map (fun r -> Printf.sprintf "INGEST g|%s" r) rows
    @ [
        "RESOLVE g";
        "RESOLVE g" (* memoized read *);
        "ORDER g|job|0|1";
        "RESOLVE g";
        "BASELINE g|lww";
        "BASELINE g|local";
        "STATS";
        "CLOSE g";
      ]
  in
  let responses = Crserver.Daemon.request_many ~socket_path requests in
  List.iter expect_ok responses;
  (* failure shapes: unknown command, unknown label, bogus policy *)
  expect_err (Crserver.Daemon.request ~socket_path "FROBNICATE g");
  expect_err (Crserver.Daemon.request ~socket_path "RESOLVE never-opened");
  let reopened =
    Crserver.Daemon.request_many ~socket_path
      [ Printf.sprintf "OPEN g2|%s" header;
        Printf.sprintf "INGEST g2|%s" (List.hd rows);
        "BASELINE g2|no-such-policy" ]
  in
  (match reopened with
  | [ a; b; c ] ->
      expect_ok a;
      expect_ok b;
      expect_err c
  | _ -> Alcotest.fail "pipelined responses lost");
  expect_ok (Crserver.Daemon.request ~socket_path "SHUTDOWN");
  Thread.join server;
  Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists socket_path)

let () =
  Alcotest.run "session"
    [
      ( "parity",
        [
          QCheck_alcotest.to_alcotest prop_interleaved_parity;
          QCheck_alcotest.to_alcotest prop_default_session_parity;
        ] );
      ( "session",
        [
          Alcotest.test_case "coalesced ingest" `Quick test_coalesced_ingest;
          Alcotest.test_case "memoized reads" `Quick test_memoized_reads;
          Alcotest.test_case "order ingest is delta" `Quick test_order_ingest_is_delta;
          Alcotest.test_case "stats are snapshots" `Quick test_stats_are_snapshots;
          Alcotest.test_case "closed handle" `Quick test_closed_handle;
        ] );
      ( "store",
        [
          Alcotest.test_case "LRU eviction" `Quick test_store_lru_eviction;
          Alcotest.test_case "TTL sweep" `Quick test_store_ttl_sweep;
          Alcotest.test_case "solver gauges summed" `Quick test_store_sums_solver_gauges;
        ] );
      ( "budgets",
        [ Alcotest.test_case "exhaustion mid-stream" `Quick test_budget_exhaustion_mid_stream ] );
      ( "config_and_baselines",
        [
          Alcotest.test_case "baseline policies" `Quick test_baseline_policies;
          Alcotest.test_case "strategy names" `Quick test_strategy_of_string;
          Alcotest.test_case "config builder" `Quick test_config_builder;
        ] );
      ( "daemon",
        [ Alcotest.test_case "socket round trip" `Quick test_daemon_socket_roundtrip ] );
    ]

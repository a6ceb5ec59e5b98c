(* Durability: WAL framing and torn tails, lossless snapshot round
   trips, crash-recovery parity over random kill points, at-least-once
   dedup, graceful drain, idle-connection reaping, and the retrying
   client. *)

module Cr = Conflict_resolution
module W = Durable.Wal
module Snap = Durable.Snapshot
module D = Crserver.Daemon
module P = Crserver.Protocol

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                  *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let tmp_dir () =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "crdur-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  W.mkdir_p d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* The semantically meaningful core of a RESOLVE reply: validity and the
   resolved tuple — session counters (resolves, solvers_built, ...)
   legitimately differ between a recovered and an uninterrupted run. *)
let resolve_core r =
  let find needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length r then None
      else if String.sub r i nl = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let upto_char c from = try String.index_from r from c with Not_found -> String.length r - 1 in
  let valid =
    match find {|"valid":|} with
    | Some i -> String.sub r i (upto_char ',' i - i)
    | None -> "?"
  in
  let resolved =
    match find {|"resolved":{|} with
    | Some i -> String.sub r i (upto_char '}' i - i + 1)
    | None -> r
  in
  valid ^ " " ^ resolved

(* ------------------------------------------------------------------ *)
(* WAL: record lines, framing, torn tails, rotation                     *)
(* ------------------------------------------------------------------ *)

let sample_records =
  [
    { W.seq = Some 1; event = W.Open { label = "e1"; header = [ "name"; "status" ] } };
    { W.seq = Some 2; event = W.Ingest { label = "e1"; row = [ "Alice"; "working" ] } };
    (* values with the wire's special characters: commas, pipes, '@' *)
    { W.seq = Some 3; event = W.Ingest { label = "e1"; row = [ "a,b"; "x|y@z" ] } };
    { W.seq = None; event = W.Order { label = "e1"; attr = "status"; lo = 0; hi = 1 } };
    { W.seq = Some 9; event = W.Close "e1" };
  ]

let test_record_line_roundtrip () =
  List.iter
    (fun r ->
      match W.record_of_line (W.record_to_line r) with
      | Ok r' -> Alcotest.(check bool) (W.record_to_line r) true (r = r')
      | Error m -> Alcotest.fail m)
    sample_records;
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (W.record_of_line "X nonsense"));
  Alcotest.(check bool) "bad seq rejected" true
    (Result.is_error (W.record_of_line "@x I e|a"))

let test_fsync_of_string () =
  Alcotest.(check bool) "always" true (W.fsync_of_string "always" = Ok W.Always);
  Alcotest.(check bool) "never" true (W.fsync_of_string "never" = Ok W.Never);
  Alcotest.(check bool) "interval" true (W.fsync_of_string "interval" = Ok (W.Interval 0.05));
  Alcotest.(check bool) "interval:0.5" true
    (W.fsync_of_string "interval:0.5" = Ok (W.Interval 0.5));
  Alcotest.(check bool) "negative rejected" true
    (Result.is_error (W.fsync_of_string "interval:-1"));
  Alcotest.(check bool) "bogus rejected" true (Result.is_error (W.fsync_of_string "bogus"))

let test_empty_log () =
  (* a missing directory replays as an empty history *)
  let rep = W.replay ~dir:"/nonexistent/crdur-nowhere" (fun _ -> ()) in
  Alcotest.(check int) "no records" 0 rep.W.records;
  Alcotest.(check bool) "not torn" false rep.W.torn;
  Alcotest.(check int) "no segments" 0 rep.W.segments

let test_wal_roundtrip_and_torn_tail () =
  with_dir (fun dir ->
      let w = W.open_writer ~fsync:W.Never ~dir () in
      List.iter (W.append w) sample_records;
      W.close_writer w;
      let got = ref [] in
      let rep = W.replay ~dir (fun r -> got := r :: !got) in
      Alcotest.(check int) "all records back" (List.length sample_records) rep.W.records;
      Alcotest.(check bool) "byte-exact round trip" true
        (List.rev !got = sample_records);
      Alcotest.(check bool) "clean tail" false rep.W.torn;
      (* crash mid-write: a partial frame (magic + a length that claims
         more bytes than exist) lands at the end of the live segment *)
      let seg = Filename.concat dir (Printf.sprintf "wal-%08d.log" 1) in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
      output_string oc "\xD7\xFF\x00\x00\x00par";
      close_out oc;
      let rep2 = W.replay ~dir (fun _ -> ()) in
      Alcotest.(check int) "intact prefix survives" (List.length sample_records)
        rep2.W.records;
      Alcotest.(check bool) "torn tail detected" true rep2.W.torn;
      Alcotest.(check bool) "torn bytes counted" true (rep2.W.truncated_bytes > 0);
      (* repair truncated the file: the next replay is clean *)
      let rep3 = W.replay ~dir (fun _ -> ()) in
      Alcotest.(check bool) "repaired" false rep3.W.torn;
      Alcotest.(check int) "nothing lost by the repair" (List.length sample_records)
        rep3.W.records)

let test_wal_corrupt_record_stops_replay () =
  with_dir (fun dir ->
      let w = W.open_writer ~fsync:W.Never ~dir () in
      List.iter (W.append w) sample_records;
      W.close_writer w;
      (* flip one payload byte in the middle of the file: its CRC fails,
         and everything from there on is the torn tail *)
      let seg = Filename.concat dir (Printf.sprintf "wal-%08d.log" 1) in
      let size = (Unix.stat seg).Unix.st_size in
      let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "\xAA") 0 1);
      Unix.close fd;
      let rep = W.replay ~dir ~repair:false (fun _ -> ()) in
      Alcotest.(check bool) "corruption detected" true rep.W.torn;
      Alcotest.(check bool) "replay stopped early" true
        (rep.W.records < List.length sample_records))

let test_wal_rotation_and_compaction () =
  with_dir (fun dir ->
      (* 1-byte segments: every append rotates first, one record per file *)
      let w = W.open_writer ~fsync:W.Never ~segment_bytes:1 ~dir () in
      List.iter (W.append w) sample_records;
      W.close_writer w;
      Alcotest.(check int) "one segment per record" (List.length sample_records)
        (List.length (W.segments ~dir));
      let rep = W.replay ~dir ~above:2 (fun _ -> ()) in
      Alcotest.(check bool) "replay above skips covered segments" true
        (rep.W.records < List.length sample_records);
      let removed = W.remove_upto ~dir 2 in
      Alcotest.(check int) "compaction removed covered segments" 2 removed;
      let rep2 = W.replay ~dir (fun _ -> ()) in
      Alcotest.(check int) "tail intact after compaction"
        (List.length sample_records - 2) rep2.W.records;
      (* a fresh writer never reuses an index *)
      let w2 = W.open_writer ~dir () in
      Alcotest.(check bool) "fresh segment past every file" true
        (W.current_segment w2 > List.length sample_records);
      W.close_writer w2)

(* The interval flusher fsyncs outside the writer's lock, so appends
   and rotations (8-byte segments: one record per file) run beside it;
   the lag it reports must stay consistent and the log intact. *)
let test_wal_interval_flush_beside_appends () =
  with_dir (fun dir ->
      let w = W.open_writer ~fsync:(W.Interval 1e-6) ~segment_bytes:8 ~dir () in
      List.iter (W.append w) sample_records;
      Unix.sleepf 1e-3;
      W.maybe_flush w;
      Alcotest.(check int) "an interval flush covers every append" 0 (W.unsynced w);
      let stop = Atomic.make false and bad_lag = Atomic.make false in
      let flusher =
        Thread.create
          (fun () ->
            try
              while not (Atomic.get stop) do
                W.maybe_flush w;
                let lag = W.unsynced w in
                if lag < 0 || lag > W.appended w then Atomic.set bad_lag true;
                Thread.yield ()
              done
            with Unix.Unix_error _ -> Atomic.set bad_lag true)
          ()
      in
      let rounds = 50 in
      for _ = 1 to rounds do
        List.iter (W.append w) sample_records
      done;
      Atomic.set stop true;
      Thread.join flusher;
      Alcotest.(check bool) "flusher never failed, lag within [0, appended]" false
        (Atomic.get bad_lag);
      W.flush w;
      Alcotest.(check int) "flush leaves no lag" 0 (W.unsynced w);
      W.close_writer w;
      let got = ref [] in
      let rep = W.replay ~dir (fun r -> got := r :: !got) in
      Alcotest.(check int) "every record back"
        ((rounds + 1) * List.length sample_records)
        rep.W.records;
      Alcotest.(check bool) "in append order" true
        (List.rev !got = List.concat (List.init (rounds + 1) (fun _ -> sample_records))))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let sample_snapshot =
  {
    Snap.upto = 3;
    events_applied = 42;
    entries =
      [
        {
          Snap.label = "e1";
          header = [ "name"; "kids"; "score" ];
          last_seq = 17;
          state =
            Snap.Replayable
              {
                (* the lossy corners of Value.of_string: a string that
                   looks like an int, floats with odd bit patterns *)
                tuples =
                  [
                    [ Value.Str "123"; Value.Int 123; Value.Float 0.1 ];
                    [ Value.Null; Value.Int (-7); Value.Float (-0.0) ];
                    [ Value.Str "a,b|c"; Value.Str ""; Value.Float infinity ];
                  ];
                orders = [ ("kids", 0, 1); ("score", 1, 2) ];
              };
        };
        { Snap.label = "gone"; header = [ "a" ]; last_seq = 3; state = Snap.Evicted };
      ];
  }

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      let path = Snap.save ~dir sample_snapshot in
      Alcotest.(check bool) "file exists" true (Sys.file_exists path);
      match Snap.load_latest ~dir with
      | None -> Alcotest.fail "snapshot did not load"
      | Some s ->
          Alcotest.(check bool) "bit-identical state" true (s = sample_snapshot);
          (* the Str "123" / Int 123 distinction is the lossless-codec
             point: a stringly round trip would collapse them *)
          (match s.Snap.entries with
          | { Snap.state = Snap.Replayable { tuples = (a :: b :: _) :: _; _ }; _ } :: _ ->
              Alcotest.(check bool) "Str survives" true (a = Value.Str "123");
              Alcotest.(check bool) "Int survives" true (b = Value.Int 123)
          | _ -> Alcotest.fail "unexpected snapshot shape"))

let test_snapshot_corrupt_falls_back () =
  with_dir (fun dir ->
      ignore (Snap.save ~dir { sample_snapshot with Snap.upto = 1; events_applied = 1 });
      let newest = Snap.save ~dir { sample_snapshot with Snap.upto = 2 } in
      (* tear the newest snapshot: drop its tail (and the end marker) *)
      let size = (Unix.stat newest).Unix.st_size in
      let fd = Unix.openfile newest [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size / 2);
      Unix.close fd;
      match Snap.load_latest ~dir with
      | None -> Alcotest.fail "should fall back to the older snapshot"
      | Some s -> Alcotest.(check int) "older snapshot loaded" 1 s.Snap.upto)

(* ------------------------------------------------------------------ *)
(* Daemon recovery: kill points, dedup, torn tails, snapshots           *)
(* ------------------------------------------------------------------ *)

let csv_line values = String.trim (Csv.to_string [ values ])

let durable_config ?(snapshot_every = 0) dir =
  (* bound outside the local open: the Config accessor of the same name
     would shadow the parameter *)
  let se = snapshot_every in
  Cr.Config.(
    default |> with_wal_dir (Some dir) |> with_fsync W.Never |> with_snapshot_every se)

let req d line = fst (D.handle_line d line)

let expect_ok r =
  Alcotest.(check bool) ("ok: " ^ r) true (contains ~needle:{|"ok":true|} r)

(* George's history as a stamped at-least-once stream. *)
let george_lines =
  let header = csv_line (Schema.attr_names Fixtures.schema) in
  let rows =
    List.map (fun t -> csv_line (List.map Value.to_string (Tuple.values t)))
      (Entity.tuples Fixtures.george_entity)
  in
  [ Printf.sprintf "@1 OPEN g|%s" header ]
  @ List.mapi (fun i r -> Printf.sprintf "@%d INGEST g|%s" (i + 2) r) rows
  @ [ Printf.sprintf "@%d ORDER g|job|0|1" (2 + List.length rows) ]

let fresh_daemon ?config () =
  D.create ?config ~sigma:Fixtures.sigma ~gamma:Fixtures.gamma ()

(* Crash-recovery parity at one kill point: a victim daemon applies the
   first [k] events and is abandoned mid-flight (its WAL writer never
   closes — the in-process analogue of kill -9); a recovered daemon
   replays the WAL, the client re-sends the whole stamped stream, and
   the final answer must equal an uninterrupted run's. *)
let george_parity ~tear ~k =
  with_dir (fun dir ->
      let reference = fresh_daemon () in
      List.iter (fun l -> ignore (req reference l)) george_lines;
      let expected = resolve_core (req reference "RESOLVE g") in
      let victim = fresh_daemon ~config:(durable_config dir) () in
      List.iteri (fun i l -> if i < k then ignore (req victim l)) george_lines;
      if tear && k > 0 then begin
        (* the crash also tore the last frame *)
        match List.rev (W.segments ~dir) with
        | last :: _ ->
            let seg = Filename.concat dir (Printf.sprintf "wal-%08d.log" last) in
            let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
            output_string oc "\xD7\x40\x00";
            close_out oc
        | [] -> ()
      end;
      let recovered = fresh_daemon ~config:(durable_config dir) () in
      let health = req recovered "HEALTH" in
      expect_ok health;
      Alcotest.(check bool) "recovery reported" true
        (contains ~needle:{|"performed":true|} health);
      if tear && k > 0 then
        Alcotest.(check bool) "torn tail repaired" true
          (contains ~needle:{|"torn_tail_repaired":true|} health);
      (* at-least-once redelivery: every already-applied event must come
         back {"dup":true}, never re-apply *)
      List.iteri
        (fun i l ->
          let r = req recovered l in
          expect_ok r;
          if i < k then
            Alcotest.(check bool) ("dup: " ^ l) true (contains ~needle:{|"dup":true|} r))
        george_lines;
      let got = resolve_core (req recovered "RESOLVE g") in
      Alcotest.(check string) (Printf.sprintf "parity at kill point %d" k) expected got)

let test_recovery_every_kill_point () =
  for k = 0 to List.length george_lines do
    george_parity ~tear:false ~k
  done

let test_recovery_torn_tail_mid_stream () =
  george_parity ~tear:true ~k:(List.length george_lines / 2)

let test_duplicate_delivery_coalesces () =
  with_dir (fun dir ->
      let d = fresh_daemon ~config:(durable_config dir) () in
      List.iter (fun l -> expect_ok (req d l)) george_lines;
      let first = resolve_core (req d "RESOLVE g") in
      let applied_before = req d "STATS" in
      (* the whole stream again: every event is a duplicate *)
      List.iter
        (fun l ->
          let r = req d l in
          Alcotest.(check bool) ("dup: " ^ l) true (contains ~needle:{|"dup":true|} r))
        george_lines;
      Alcotest.(check string) "identical answer after redelivery" first
        (resolve_core (req d "RESOLVE g"));
      (* nothing was re-applied: the applied-events counter is unchanged
         and the dedup counter took the hits *)
      let stats = req d "STATS" in
      let applied s =
        let key = {|"events_applied":|} in
        let rec go i =
          if i + String.length key > String.length s then "?"
          else if String.sub s i (String.length key) = key then
            let j = i + String.length key in
            String.sub s j (String.index_from s j ',' - j)
          else go (i + 1)
        in
        go 0
      in
      Alcotest.(check string) "events_applied unchanged" (applied applied_before)
        (applied stats);
      Alcotest.(check bool) "dedup counted" true
        (contains ~needle:(Printf.sprintf {|"events_deduped":%d|} (List.length george_lines))
           stats))

let test_snapshot_with_no_tail () =
  with_dir (fun dir ->
      (* snapshot after every event: at the kill point the WAL tail past
         the newest snapshot is empty *)
      let victim = fresh_daemon ~config:(durable_config ~snapshot_every:1 dir) () in
      List.iter (fun l -> expect_ok (req victim l)) george_lines;
      let expected = resolve_core (req victim "RESOLVE g") in
      Alcotest.(check bool) "snapshots exist" true (Snap.indices ~dir <> []);
      let recovered = fresh_daemon ~config:(durable_config ~snapshot_every:1 dir) () in
      let health = req recovered "HEALTH" in
      Alcotest.(check bool) "state came from the snapshot" true
        (contains ~needle:{|"snapshot_loaded":true|} health);
      Alcotest.(check bool) "no tail to replay" true
        (contains ~needle:{|"wal_records_replayed":0|} health);
      Alcotest.(check string) "parity from snapshot alone" expected
        (resolve_core (req recovered "RESOLVE g")))

let test_recovery_skips_rejected_events () =
  with_dir (fun dir ->
      (* a hand-written log with events the apply path must reject: a
         wrong-arity row and an arrival for a never-opened entity (the
         shape a lint-rejecting spec produces) *)
      let w = W.open_writer ~fsync:W.Never ~dir () in
      List.iter (W.append w)
        [
          { W.seq = Some 1; event = W.Open { label = "e1"; header = [ "name"; "status" ] } };
          { W.seq = Some 2; event = W.Ingest { label = "e1"; row = [ "Alice"; "working" ] } };
          { W.seq = Some 3; event = W.Ingest { label = "e1"; row = [ "Bob"; "retired"; "EXTRA" ] } };
          { W.seq = None; event = W.Ingest { label = "ghost"; row = [ "x"; "y" ] } };
          { W.seq = Some 4; event = W.Ingest { label = "e1"; row = [ "Carol"; "retired" ] } };
        ];
      W.close_writer w;
      let config =
        Cr.Config.(default |> with_wal_dir (Some dir) |> with_fsync W.Never)
      in
      let d = D.create ~config ~sigma:[] ~gamma:[] () in
      let health = req d "HEALTH" in
      Alcotest.(check bool) "rejected events counted" true
        (contains ~needle:{|"rejected":2|} health);
      (* the good events still replayed: the entity resolves *)
      let r = req d "RESOLVE e1" in
      expect_ok r;
      Alcotest.(check bool) "ghost never materialised" true
        (contains ~needle:{|"ok":false|} (req d "RESOLVE ghost")))

(* Randomised kill points over datagen update streams: the full
   at-least-once contract — crash anywhere, recover, re-send everything,
   and every entity's final answer matches an uninterrupted daemon. *)
let protocol_lines ds log =
  let header = csv_line (Schema.attr_names ds.Datagen.Types.schema) in
  let opened = Hashtbl.create 8 in
  Datagen.Update_log.with_seqs log
  |> List.concat_map (fun (seq, ev) ->
         let open_line label =
           if Hashtbl.mem opened label then []
           else begin
             Hashtbl.add opened label ();
             [
               Printf.sprintf "@%d OPEN %s|%s" Datagen.Update_log.open_seq label header;
             ]
           end
         in
         match ev with
         | Datagen.Update_log.Arrival { label; tuple } ->
             open_line label
             @ [
                 Printf.sprintf "@%d INGEST %s|%s" (Option.get seq) label
                   (csv_line (List.map Value.to_string (Tuple.values tuple)));
               ]
         | Datagen.Update_log.Assert_order { label; order } ->
             open_line label
             @ [
                 Printf.sprintf "@%d ORDER %s|%s|%d|%d" (Option.get seq) label
                   order.Crcore.Spec.attr order.Crcore.Spec.lo order.Crcore.Spec.hi;
               ]
         | Datagen.Update_log.Resolve label -> [ "RESOLVE " ^ label ])

let crash_parity_once seed =
  let ds = Datagen.Person.quick ~seed ~n_entities:2 ~size:4 () in
  let log =
    Datagen.Update_log.replay
      ~params:{ Datagen.Update_log.default_params with seed = seed + 500; tail_reads = 1 }
      ds
  in
  let lines = protocol_lines ds log in
  let rng = Random.State.make [| seed |] in
  let k = Random.State.int rng (List.length lines + 1) in
  with_dir (fun dir ->
      let mk () =
        D.create ~config:(durable_config dir) ~sigma:ds.Datagen.Types.sigma
          ~gamma:ds.Datagen.Types.gamma ()
      in
      let reference =
        D.create ~sigma:ds.Datagen.Types.sigma ~gamma:ds.Datagen.Types.gamma ()
      in
      List.iter (fun l -> ignore (req reference l)) lines;
      let victim = mk () in
      List.iteri (fun i l -> if i < k then ignore (req victim l)) lines;
      let recovered = mk () in
      List.iter (fun l -> ignore (req recovered l)) lines;
      List.for_all
        (fun label ->
          resolve_core (req recovered ("RESOLVE " ^ label))
          = resolve_core (req reference ("RESOLVE " ^ label)))
        (Datagen.Update_log.labels log))

let prop_crash_recovery_parity =
  QCheck.Test.make ~count:10
    ~name:"crash anywhere + replay + redelivery == uninterrupted run"
    QCheck.(int_range 0 1000)
    crash_parity_once

(* ------------------------------------------------------------------ *)
(* with_seqs                                                            *)
(* ------------------------------------------------------------------ *)

let test_with_seqs_monotone () =
  let ds = Datagen.Person.quick ~seed:11 ~n_entities:3 ~size:4 () in
  let log = Datagen.Update_log.replay ds in
  let cursors = Hashtbl.create 8 in
  List.iter
    (fun (seq, ev) ->
      match (seq, ev) with
      | None, Datagen.Update_log.Resolve _ -> ()
      | None, _ -> Alcotest.fail "mutating event without a seq"
      | Some _, Datagen.Update_log.Resolve _ -> Alcotest.fail "read with a seq"
      | Some s, (Datagen.Update_log.Arrival { label; _ } | Datagen.Update_log.Assert_order { label; _ }) ->
          let prev =
            Option.value ~default:Datagen.Update_log.open_seq
              (Hashtbl.find_opt cursors label)
          in
          Alcotest.(check int) ("monotone for " ^ label) (prev + 1) s;
          Hashtbl.replace cursors label s)
    (Datagen.Update_log.with_seqs log);
  Alcotest.(check int) "every entity stamped" (List.length (Datagen.Update_log.labels log))
    (Hashtbl.length cursors)

(* ------------------------------------------------------------------ *)
(* Protocol: @seq prefix, SHUTDOWN drain, overload reply                *)
(* ------------------------------------------------------------------ *)

let test_protocol_extensions () =
  (match P.parse "@7 INGEST e|a,b" with
  | Ok { P.seq = Some 7; cmd = P.Ingest { label = "e"; row = [ "a"; "b" ] } } -> ()
  | _ -> Alcotest.fail "@seq INGEST did not parse");
  Alcotest.(check bool) "@seq on a read rejected" true
    (Result.is_error (P.parse "@7 RESOLVE e"));
  (match P.parse "SHUTDOWN drain" with
  | Ok { P.cmd = P.Shutdown { drain = true }; _ } -> ()
  | _ -> Alcotest.fail "SHUTDOWN drain did not parse");
  (match P.parse "SHUTDOWN" with
  | Ok { P.cmd = P.Shutdown { drain = false }; _ } -> ()
  | _ -> Alcotest.fail "plain SHUTDOWN did not parse");
  (match (P.parse "HEALTH", P.parse "READY") with
  | Ok { P.cmd = P.Health; _ }, Ok { P.cmd = P.Ready; _ } -> ()
  | _ -> Alcotest.fail "HEALTH/READY did not parse");
  Alcotest.(check bool) "overloaded detected" true (P.is_overloaded P.overloaded);
  Alcotest.(check bool) "ordinary errors are not overloads" false
    (P.is_overloaded (P.error "no such label"))

let test_health_and_ready_verbs () =
  let d = fresh_daemon () in
  let health = req d "HEALTH" in
  expect_ok health;
  Alcotest.(check bool) "non-durable daemon says so" true
    (contains ~needle:{|"enabled":false|} health);
  Alcotest.(check bool) "serving" true (contains ~needle:{|"status":"serving"|} health);
  let ready = req d "READY" in
  expect_ok ready;
  Alcotest.(check bool) "ready" true (contains ~needle:{|"ready":true|} ready)

(* ------------------------------------------------------------------ *)
(* Sockets: drain, idle reaping, the retrying client                    *)
(* ------------------------------------------------------------------ *)

let fresh_socket () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "crdur-%d-%d.sock" (Unix.getpid ()) !dir_counter)

let await_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if Sys.file_exists path then ()
    else (
      Thread.delay 0.02;
      go (n - 1))
  in
  go 250

let test_drain_over_socket () =
  with_dir (fun dir ->
      let socket_path = fresh_socket () in
      let d = fresh_daemon ~config:(durable_config dir) () in
      let server =
        Thread.create (fun () -> D.serve d ~drain_wait:5. ~socket_path) ()
      in
      await_socket socket_path;
      let responses = D.request_many ~socket_path (george_lines @ [ "RESOLVE g" ]) in
      List.iter expect_ok responses;
      let expected = resolve_core (List.nth responses (List.length responses - 1)) in
      expect_ok (D.request ~socket_path "SHUTDOWN drain");
      Thread.join server;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
      Alcotest.(check bool) "drain snapshotted" true (Snap.indices ~dir <> []);
      (* restart: the drain snapshot alone carries the state *)
      let recovered = fresh_daemon ~config:(durable_config dir) () in
      let health = req recovered "HEALTH" in
      Alcotest.(check bool) "snapshot loaded" true
        (contains ~needle:{|"snapshot_loaded":true|} health);
      Alcotest.(check string) "parity after drain + restart" expected
        (resolve_core (req recovered "RESOLVE g")))

let test_idle_connection_reaped () =
  let socket_path = fresh_socket () in
  let config = Cr.Config.(default |> with_idle_timeout (Some 0.25)) in
  let d = fresh_daemon ~config () in
  let server = Thread.create (fun () -> D.serve d ~socket_path) () in
  await_socket socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let buf = Bytes.create 1024 in
  ignore (Unix.write fd (Bytes.of_string "PING\n") 0 5);
  ignore (Unix.read fd buf 0 1024);
  (* now go quiet: the daemon must close the connection, not leak it *)
  let eof =
    match Unix.select [ fd ] [] [] 5.0 with
    | [], _, _ -> false
    | _ -> Unix.read fd buf 0 1024 = 0
  in
  Alcotest.(check bool) "idle connection closed by daemon" true eof;
  Unix.close fd;
  let stats = D.request ~socket_path "STATS" in
  Alcotest.(check bool) "reap counted" true
    (contains ~needle:{|"idle_closed":1|} stats);
  expect_ok (D.request ~socket_path "SHUTDOWN");
  Thread.join server

let test_client_retries_through_restart () =
  let socket_path = fresh_socket () in
  let d = fresh_daemon () in
  (* the daemon comes up late: the client's first attempts are refused *)
  let server =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        D.serve d ~socket_path)
      ()
  in
  let c =
    Crserver.Client.connect ~retries:12 ~retry_base_ms:25. ~deadline:5. ~socket_path ()
  in
  (match Crserver.Client.request c "PING" with
  | Ok r -> expect_ok r
  | Error m -> Alcotest.fail ("client gave up: " ^ m));
  Alcotest.(check bool) "transients were absorbed" true
    (Crserver.Client.retries_used c > 0);
  (* protocol-level errors are answers, not failures: no retry burn *)
  let burnt = Crserver.Client.retries_used c in
  (match Crserver.Client.request c "RESOLVE never-opened" with
  | Ok r -> Alcotest.(check bool) "error answer" true (contains ~needle:{|"ok":false|} r)
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "no retries on an error answer" burnt
    (Crserver.Client.retries_used c);
  (match Crserver.Client.request c "SHUTDOWN" with
  | Ok r -> expect_ok r
  | Error m -> Alcotest.fail m);
  Crserver.Client.close c;
  Thread.join server

let () =
  Alcotest.run "durable"
    [
      ( "wal",
        [
          Alcotest.test_case "record line round trip" `Quick test_record_line_roundtrip;
          Alcotest.test_case "fsync policy names" `Quick test_fsync_of_string;
          Alcotest.test_case "empty log" `Quick test_empty_log;
          Alcotest.test_case "round trip + torn tail" `Quick test_wal_roundtrip_and_torn_tail;
          Alcotest.test_case "corrupt record stops replay" `Quick
            test_wal_corrupt_record_stops_replay;
          Alcotest.test_case "rotation + compaction" `Quick test_wal_rotation_and_compaction;
          Alcotest.test_case "interval flush beside appends" `Quick
            test_wal_interval_flush_beside_appends;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "lossless round trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "corrupt newest falls back" `Quick
            test_snapshot_corrupt_falls_back;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "parity at every kill point" `Quick
            test_recovery_every_kill_point;
          Alcotest.test_case "torn tail mid-stream" `Quick test_recovery_torn_tail_mid_stream;
          Alcotest.test_case "duplicate delivery coalesces" `Quick
            test_duplicate_delivery_coalesces;
          Alcotest.test_case "snapshot with no tail" `Quick test_snapshot_with_no_tail;
          Alcotest.test_case "rejected events skipped" `Quick
            test_recovery_skips_rejected_events;
          QCheck_alcotest.to_alcotest prop_crash_recovery_parity;
        ] );
      ( "datagen",
        [ Alcotest.test_case "with_seqs monotone per entity" `Quick test_with_seqs_monotone ] );
      ( "protocol",
        [
          Alcotest.test_case "seq prefix, drain, overload" `Quick test_protocol_extensions;
          Alcotest.test_case "HEALTH and READY" `Quick test_health_and_ready_verbs;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "graceful drain" `Quick test_drain_over_socket;
          Alcotest.test_case "idle connection reaped" `Quick test_idle_connection_reaped;
          Alcotest.test_case "client retries through restart" `Quick
            test_client_retries_through_restart;
        ] );
    ]

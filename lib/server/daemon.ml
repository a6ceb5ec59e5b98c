open Conflict_resolution

(* Per-entity bookkeeping outside the session store: the schema (from
   OPEN), arrivals buffered before the session materialises (entities
   cannot be empty, so creation waits for the first RESOLVE/BASELINE),
   whether a session ever existed — distinguishing "not yet materialised"
   from "evicted, state gone" — and the highest applied client sequence
   number (the at-least-once dedup cursor, persisted in snapshots). *)
type entry = {
  schema : Schema.t;
  mutable pending_tuples : Tuple.t list;  (* reversed arrival order *)
  mutable pending_orders : Spec.order_edge list;
  mutable materialised : bool;
  mutable last_seq : int;
}

type lifecycle = Serving | Draining | Stopped

type outcome = Continue | Drain | Stop

type recovery_stats = {
  mutable performed : bool;
  mutable snapshot_loaded : bool;
  mutable replayed : int;
  mutable segments : int;
  mutable torn : bool;
  mutable rejected : int;
  mutable ms : float;
}

type t = {
  config : Config.t;
  sigma : Constraint_ast.t list;
  gamma : Constant_cfd.t list;
  store : Session.Store.t;
  entries : (string, entry) Hashtbl.t;
  m : Mutex.t;
  mutable wal : Durable.Wal.writer option;
  recovery : recovery_stats;
  (* command counters for STATS *)
  mutable n_requests : int;
  mutable n_resolves : int;
  mutable n_ingests : int;
  baselines : (string, int) Hashtbl.t;  (* per-policy counts *)
  (* durability counters *)
  mutable events_applied : int;  (* unique mutating events folded into state *)
  mutable events_deduped : int;  (* @seq retransmissions answered as dups *)
  mutable events_since_snapshot : int;
  mutable snapshots_taken : int;
  (* lifecycle + admission control *)
  mutable lifecycle : lifecycle;
  drain_flag : bool Atomic.t;  (* async-signal-safe drain/stop requests *)
  stop_flag : bool Atomic.t;
  mutable inflight : int;
  mutable shed : int;  (* OVERLOADED replies *)
  mutable conns_open : int;
  mutable conns_total : int;
  mutable idle_closed : int;
}

let store t = t.store

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

exception Reply of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Reply (Protocol.error msg))) fmt

let find_entry t label =
  match Hashtbl.find_opt t.entries label with
  | Some e -> e
  | None -> fail "unknown entity %s: OPEN it first" label

(* Accumulated spec of everything the daemon has seen for the entry —
   live session state plus any still-buffered arrivals. *)
let effective_spec t label entry =
  let base =
    match Session.Store.find t.store label with
    | Some h -> Some (Session.spec h)
    | None ->
        if entry.materialised then
          fail "entity %s was evicted (LRU/TTL); re-OPEN and replay" label
        else None
  in
  let tuples = List.rev entry.pending_tuples in
  match base with
  | Some spec when tuples = [] && entry.pending_orders = [] -> spec
  | Some spec -> Spec.extend spec ~tuples ~orders:entry.pending_orders
  | None ->
      if tuples = [] then fail "entity %s has no tuples yet" label
      else
        let entity = Entity.make entry.schema tuples in
        Spec.make entity ~orders:entry.pending_orders ~sigma:t.sigma ~gamma:t.gamma

(* Live session for the entry, creating it from (or flushing into it) the
   buffered arrivals. Caller holds [t.m]. *)
let materialise t label entry =
  let flush h =
    let tuples = List.rev entry.pending_tuples and orders = entry.pending_orders in
    if tuples <> [] || orders <> [] then Session.ingest h ~orders ~tuples ();
    entry.pending_tuples <- [];
    entry.pending_orders <- []
  in
  match Session.Store.find t.store label with
  | Some h ->
      flush h;
      h
  | None ->
      if entry.materialised then
        fail "entity %s was evicted (LRU/TTL); re-OPEN and replay" label;
      if entry.pending_tuples = [] then fail "entity %s has no tuples yet" label;
      let spec () =
        let entity = Entity.make entry.schema (List.rev entry.pending_tuples) in
        match
          Spec.make_res entity ~orders:entry.pending_orders ~sigma:t.sigma ~gamma:t.gamma
        with
        | Ok s -> s
        | Error e -> failwith (Format.asprintf "bad specification: %a" Spec.pp_error e)
      in
      let h, created = Session.Store.get_or_create t.store label ~spec in
      if created then begin
        entry.pending_tuples <- [];
        entry.pending_orders <- [];
        entry.materialised <- true
      end
      else flush h;
      h

(* {1 Applying mutating events}

   One code path serves both the live protocol and WAL replay: validate,
   mutate, and (live only) append the event to the WAL before the reply
   is released — recovery re-runs exactly the computation the original
   request ran. Callers hold [t.m]. *)

let apply_open t ~label ~header =
  let schema =
    try Schema.make header with Invalid_argument m -> fail "OPEN %s: %s" label m
  in
  (* reopening resets the entity: fresh schema, no arrivals, and any live
     session is dropped — but the dedup cursor survives, so a stale
     retransmitted OPEN can never wipe newer state *)
  ignore (Session.Store.remove t.store label);
  let last_seq =
    match Hashtbl.find_opt t.entries label with Some e -> e.last_seq | None -> 0
  in
  Hashtbl.replace t.entries label
    { schema; pending_tuples = []; pending_orders = []; materialised = false; last_seq };
  Protocol.ok
    [ ("label", Protocol.jstr label); ("arity", Protocol.jint (Schema.arity schema)) ]

let apply_ingest t ~label ~row =
  let entry = find_entry t label in
  if List.length row <> Schema.arity entry.schema then
    fail "INGEST %s: row arity %d, schema arity %d" label (List.length row)
      (Schema.arity entry.schema);
  let tuple = Tuple.make entry.schema (List.map Value.of_string row) in
  t.n_ingests <- t.n_ingests + 1;
  (match Session.Store.find t.store label with
  | Some h -> Session.ingest h ~tuples:[ tuple ] ()
  | None ->
      if entry.materialised then
        fail "entity %s was evicted (LRU/TTL); re-OPEN and replay" label;
      entry.pending_tuples <- tuple :: entry.pending_tuples);
  Protocol.ok [ ("label", Protocol.jstr label) ]

let apply_order t ~label ~attr ~lo ~hi =
  let entry = find_entry t label in
  if not (Schema.mem entry.schema attr) then fail "ORDER %s: unknown attribute %s" label attr;
  let edge = { Spec.attr; lo; hi } in
  (match Session.Store.find t.store label with
  | Some h -> Session.ingest h ~orders:[ edge ] ()
  | None ->
      if entry.materialised then
        fail "entity %s was evicted (LRU/TTL); re-OPEN and replay" label;
      entry.pending_orders <- edge :: entry.pending_orders);
  Protocol.ok [ ("label", Protocol.jstr label) ]

let apply_close t ~label =
  let existed = Session.Store.remove t.store label in
  let known = Hashtbl.mem t.entries label in
  Hashtbl.remove t.entries label;
  Protocol.ok [ ("label", Protocol.jstr label); ("existed", Protocol.jbool (existed || known)) ]

(* {1 Snapshots} *)

let order_triples = List.map (fun o -> (o.Spec.attr, o.Spec.lo, o.Spec.hi))

(* The replayable state of one entry, mirroring [effective_spec]: tuples
   in arrival order, order edges exactly as they would be passed to
   [Spec.make] — restoring them as pending state and re-materialising on
   the first resolve rebuilds a bit-identical specification. *)
let snapshot_entry t label (e : entry) =
  let header = List.init (Schema.arity e.schema) (Schema.name e.schema) in
  let buffered = List.rev_map Tuple.values e.pending_tuples in
  let state =
    match Session.Store.find t.store label with
    | Some h ->
        let spec = Session.spec h in
        Durable.Snapshot.Replayable
          {
            tuples =
              List.map Tuple.values (Entity.tuples spec.Spec.entity) @ buffered;
            orders = order_triples (e.pending_orders @ spec.Spec.orders);
          }
    | None ->
        if e.materialised then Durable.Snapshot.Evicted
        else
          Durable.Snapshot.Replayable
            { tuples = buffered; orders = order_triples e.pending_orders }
  in
  { Durable.Snapshot.label; header; last_seq = e.last_seq; state }

(* Caller holds [t.m]. Rotate first: the snapshot then covers every
   closed segment, and the live segment only holds events newer than the
   snapshot — replay is snapshot + tail, never snapshot + overlap. *)
let take_snapshot_locked t =
  match (t.wal, Config.wal_dir t.config) with
  | Some w, Some dir ->
      let upto = Durable.Wal.rotate w in
      let entries =
        Hashtbl.fold (fun label e acc -> snapshot_entry t label e :: acc) t.entries []
        |> List.sort (fun a b ->
               compare a.Durable.Snapshot.label b.Durable.Snapshot.label)
      in
      (try
         ignore
           (Durable.Snapshot.save ~dir
              { Durable.Snapshot.upto; events_applied = t.events_applied; entries });
         ignore (Durable.Wal.remove_upto ~dir upto);
         ignore (Durable.Snapshot.remove_except ~dir ~keep:upto)
       with Sys_error _ | Unix.Unix_error _ -> ());
      t.events_since_snapshot <- 0;
      t.snapshots_taken <- t.snapshots_taken + 1
  | _ -> ()

(* Caller holds [t.m]. [log = false] during recovery: the event is being
   read back from disk, not appended. Raises [Reply] on validation
   failure (nothing is logged then — the WAL only holds applied events). *)
let apply_event t ?seq ~log (ev : Durable.Wal.event) =
  let label =
    match ev with
    | Durable.Wal.Open { label; _ }
    | Durable.Wal.Ingest { label; _ }
    | Durable.Wal.Order { label; _ } ->
        label
    | Durable.Wal.Close label -> label
  in
  let dup =
    match (seq, Hashtbl.find_opt t.entries label) with
    | Some s, Some e -> s <= e.last_seq
    | _ -> false
  in
  if dup then begin
    t.events_deduped <- t.events_deduped + 1;
    Protocol.ok [ ("label", Protocol.jstr label); ("dup", "true") ]
  end
  else begin
    let response =
      match ev with
      | Durable.Wal.Open { label; header } -> apply_open t ~label ~header
      | Durable.Wal.Ingest { label; row } -> apply_ingest t ~label ~row
      | Durable.Wal.Order { label; attr; lo; hi } -> apply_order t ~label ~attr ~lo ~hi
      | Durable.Wal.Close label -> apply_close t ~label
    in
    (match (seq, Hashtbl.find_opt t.entries label) with
    | Some s, Some e -> e.last_seq <- max e.last_seq s
    | _ -> ());
    (if log then
       match t.wal with
       | Some w -> Durable.Wal.append w { Durable.Wal.seq; event = ev }
       | None -> ());
    t.events_applied <- t.events_applied + 1;
    t.events_since_snapshot <- t.events_since_snapshot + 1;
    let every = Config.snapshot_every t.config in
    if log && every > 0 && t.events_since_snapshot >= every then
      take_snapshot_locked t;
    response
  end

(* {1 Recovery} *)

let restore_snapshot t (s : Durable.Snapshot.t) =
  t.recovery.snapshot_loaded <- true;
  t.events_applied <- s.Durable.Snapshot.events_applied;
  List.iter
    (fun (se : Durable.Snapshot.entry) ->
      match
        let schema = Schema.make se.Durable.Snapshot.header in
        let entry =
          match se.Durable.Snapshot.state with
          | Durable.Snapshot.Evicted ->
              {
                schema;
                pending_tuples = [];
                pending_orders = [];
                materialised = true;
                last_seq = se.Durable.Snapshot.last_seq;
              }
          | Durable.Snapshot.Replayable { tuples; orders } ->
              {
                schema;
                (* stored in arrival order; pending is reverse-arrival *)
                pending_tuples = List.rev_map (Tuple.make schema) tuples;
                pending_orders =
                  List.map (fun (attr, lo, hi) -> { Spec.attr; lo; hi }) orders;
                materialised = false;
                last_seq = se.Durable.Snapshot.last_seq;
              }
        in
        Hashtbl.replace t.entries se.Durable.Snapshot.label entry
      with
      | () -> ()
      | exception (Invalid_argument _ | Failure _) ->
          t.recovery.rejected <- t.recovery.rejected + 1)
    s.Durable.Snapshot.entries

(* Rebuild state from the newest intact snapshot plus the WAL tail, then
   compact so the next crash replays from here. Entities come back as
   unmaterialised pending state — sessions (and their solvers) rebuild
   lazily on the first post-recovery resolve, through the very same
   [materialise] path a fresh stream would take. *)
let recover t dir =
  let t0 = Clock.now_s () in
  locked t (fun () ->
      let above =
        match Durable.Snapshot.load_latest ~dir with
        | None -> 0
        | Some s ->
            restore_snapshot t s;
            s.Durable.Snapshot.upto
      in
      let rep =
        Durable.Wal.replay ~dir ~above ~repair:true (fun r ->
            match
              apply_event t ?seq:r.Durable.Wal.seq ~log:false r.Durable.Wal.event
            with
            | (_ : string) -> ()
            | exception (Reply _ | Invalid_argument _ | Failure _) ->
                t.recovery.rejected <- t.recovery.rejected + 1)
      in
      t.recovery.performed <- true;
      t.recovery.replayed <- rep.Durable.Wal.records;
      t.recovery.segments <- rep.Durable.Wal.segments;
      t.recovery.torn <- rep.Durable.Wal.torn;
      t.recovery.ms <- (Clock.now_s () -. t0) *. 1000.;
      t.events_since_snapshot <- rep.Durable.Wal.records)

let create ?(config = Config.default) ~sigma ~gamma () =
  let t =
    {
      config;
      sigma;
      gamma;
      store = Session.Store.create ~config ();
      entries = Hashtbl.create 64;
      m = Mutex.create ();
      wal = None;
      recovery =
        {
          performed = false;
          snapshot_loaded = false;
          replayed = 0;
          segments = 0;
          torn = false;
          rejected = 0;
          ms = 0.;
        };
      n_requests = 0;
      n_resolves = 0;
      n_ingests = 0;
      baselines = Hashtbl.create 8;
      events_applied = 0;
      events_deduped = 0;
      events_since_snapshot = 0;
      snapshots_taken = 0;
      lifecycle = Serving;
      drain_flag = Atomic.make false;
      stop_flag = Atomic.make false;
      inflight = 0;
      shed = 0;
      conns_open = 0;
      conns_total = 0;
      idle_closed = 0;
    }
  in
  (match Config.wal_dir config with
  | None -> ()
  | Some dir ->
      recover t dir;
      t.wal <-
        Some (Durable.Wal.open_writer ~fsync:(Config.fsync config) ~dir ());
      (* compact immediately: repeated crashes must not re-replay an
         ever-longer history *)
      if t.recovery.replayed > 0 then locked t (fun () -> take_snapshot_locked t));
  t

(* {1 Lifecycle} *)

(* Only flips atomics — safe from signal handlers; [serve] and the
   connection threads translate the flags into lifecycle transitions. *)
let drain t = Atomic.set t.drain_flag true
let stop t = Atomic.set t.stop_flag true

let sync_lifecycle t =
  if Atomic.get t.stop_flag then
    locked t (fun () -> if t.lifecycle <> Stopped then t.lifecycle <- Stopped)
  else if Atomic.get t.drain_flag then
    locked t (fun () -> if t.lifecycle = Serving then t.lifecycle <- Draining)

(* {1 Read-only responses} *)

let json_of_value = function
  | Value.Null -> "null"
  | Value.Int i -> Protocol.jint i
  | Value.Float f -> Protocol.jnum f
  | Value.Str s -> Protocol.jstr s

let resolved_json schema resolved =
  Protocol.obj
    (List.mapi
       (fun i v ->
         (Schema.name schema i, match v with None -> "null" | Some v -> json_of_value v))
       (Array.to_list resolved))

let values_json schema values =
  Protocol.obj
    (List.mapi
       (fun i v -> (Schema.name schema i, json_of_value v))
       (Array.to_list values))

let result_json label schema (r : Engine.result) (st : Engine.entity_stats) resolves =
  Protocol.ok
    [
      ("label", Protocol.jstr label);
      ("valid", Protocol.jbool r.Engine.valid);
      ("level", Protocol.jstr (Engine.level_to_string r.Engine.level));
      ( "degrade_reason",
        match r.Engine.degrade_reason with
        | None -> "null"
        | Some reason -> Protocol.jstr (Engine.reason_to_string reason) );
      ("rounds", Protocol.jint r.Engine.rounds);
      ("conflicts_spent", Protocol.jint r.Engine.conflicts_spent);
      ("resolved", resolved_json schema r.Engine.resolved);
      ("resolves", Protocol.jint resolves);
      ("delta_extensions", Protocol.jint st.Engine.delta_extensions);
      ("rebuilds", Protocol.jint st.Engine.rebuilds);
      ("solvers_built", Protocol.jint st.Engine.solvers_built);
    ]

let stats_json t =
  let s = Session.Store.stats t.store in
  let baselines =
    Hashtbl.fold (fun p n acc -> (p, Protocol.jint n) :: acc) t.baselines []
    |> List.sort compare
  in
  Protocol.ok
    [
      ("live", Protocol.jint s.Session.Store.live);
      ("created", Protocol.jint s.Session.Store.created);
      ("reused", Protocol.jint s.Session.Store.reused);
      ("evicted_lru", Protocol.jint s.Session.Store.evicted_lru);
      ("evicted_ttl", Protocol.jint s.Session.Store.evicted_ttl);
      ("removed", Protocol.jint s.Session.Store.removed);
      ("resolves", Protocol.jint s.Session.Store.resolves);
      ("delta_extensions", Protocol.jint s.Session.Store.delta_extensions);
      ( "rebuilds",
        Protocol.jint
          (s.Session.Store.rebuilds_renumbered + s.Session.Store.rebuilds_impure) );
      ("solvers_built", Protocol.jint s.Session.Store.solvers_built);
      ("template_hits", Protocol.jint s.Session.Store.template_hits);
      ("template_misses", Protocol.jint s.Session.Store.template_misses);
      (* solver counters, summed over live and already-evicted sessions
         like the rest *)
      ("sat_conflicts", Protocol.jint s.Session.Store.sat.Sat.Solver.conflicts);
      ("sat_binaries", Protocol.jint s.Session.Store.sat.Sat.Solver.binaries);
      ("requests", Protocol.jint t.n_requests);
      ("resolve_requests", Protocol.jint t.n_resolves);
      ("ingest_requests", Protocol.jint t.n_ingests);
      ("baselines", Protocol.obj baselines);
      (* durability + connection counters *)
      ("events_applied", Protocol.jint t.events_applied);
      ("events_deduped", Protocol.jint t.events_deduped);
      ("snapshots", Protocol.jint t.snapshots_taken);
      ( "wal_appended",
        Protocol.jint
          (match t.wal with None -> 0 | Some w -> Durable.Wal.appended w) );
      ("connections_open", Protocol.jint t.conns_open);
      ("connections_total", Protocol.jint t.conns_total);
      ("idle_closed", Protocol.jint t.idle_closed);
      ("shed", Protocol.jint t.shed);
    ]

let lifecycle_string = function
  | Serving -> "serving"
  | Draining -> "draining"
  | Stopped -> "stopped"

let health_json t =
  let wal_fields =
    match t.wal with
    | None -> [ ("enabled", "false") ]
    | Some w ->
        [
          ("enabled", "true");
          ("fsync", Protocol.jstr (Durable.Wal.fsync_to_string (Config.fsync t.config)));
          ("segment", Protocol.jint (Durable.Wal.current_segment w));
          ("appended", Protocol.jint (Durable.Wal.appended w));
          ("lag_records", Protocol.jint (Durable.Wal.unsynced w));
          ("last_sync_age_s", Protocol.jnum (Durable.Wal.last_sync_age w));
        ]
  in
  let r = t.recovery in
  Protocol.ok
    [
      ("status", Protocol.jstr (lifecycle_string t.lifecycle));
      ("wal", Protocol.obj wal_fields);
      ( "recovery",
        Protocol.obj
          [
            ("performed", Protocol.jbool r.performed);
            ("snapshot_loaded", Protocol.jbool r.snapshot_loaded);
            ("wal_records_replayed", Protocol.jint r.replayed);
            ("wal_segments", Protocol.jint r.segments);
            ("torn_tail_repaired", Protocol.jbool r.torn);
            ("rejected", Protocol.jint r.rejected);
            ("recovery_ms", Protocol.jnum r.ms);
          ] );
      ("store_live", Protocol.jint (Session.Store.live t.store));
      ("store_cap", Protocol.jint (Config.max_sessions t.config));
      ("entries", Protocol.jint (Hashtbl.length t.entries));
      ("events_applied", Protocol.jint t.events_applied);
      ("events_deduped", Protocol.jint t.events_deduped);
      ("snapshots", Protocol.jint t.snapshots_taken);
      ("inflight", Protocol.jint t.inflight);
      ("max_inflight", Protocol.jint (Config.max_inflight t.config));
      ("shed", Protocol.jint t.shed);
      ("connections_open", Protocol.jint t.conns_open);
      ("connections_total", Protocol.jint t.conns_total);
      ("idle_closed", Protocol.jint t.idle_closed);
    ]

let ready_json t =
  match t.lifecycle with
  | Serving -> Protocol.ok [ ("ready", "true") ]
  | (Draining | Stopped) as l ->
      Protocol.obj
        [
          ("ok", "false");
          ("ready", "false");
          ("error", Protocol.jstr (lifecycle_string l));
        ]

(* {1 Command dispatch} *)

let run_command t ?seq (cmd : Protocol.command) =
  match cmd with
  | Protocol.Ping -> Protocol.ok [ ("pong", "true") ]
  | Protocol.Shutdown { drain } ->
      Protocol.ok [ ("stopping", "true"); ("drain", Protocol.jbool drain) ]
  | Protocol.Stats -> locked t (fun () -> stats_json t)
  | Protocol.Health -> locked t (fun () -> health_json t)
  | Protocol.Ready -> ready_json t
  | Protocol.Sweep ->
      let evicted = Session.Store.sweep t.store in
      Protocol.ok [ ("evicted", Protocol.jint evicted) ]
  | Protocol.Open { label; header } ->
      locked t (fun () ->
          apply_event t ?seq ~log:true (Durable.Wal.Open { label; header }))
  | Protocol.Ingest { label; row } ->
      locked t (fun () ->
          apply_event t ?seq ~log:true (Durable.Wal.Ingest { label; row }))
  | Protocol.Order { label; attr; lo; hi } ->
      locked t (fun () ->
          apply_event t ?seq ~log:true (Durable.Wal.Order { label; attr; lo; hi }))
  | Protocol.Close label ->
      locked t (fun () -> apply_event t ?seq ~log:true (Durable.Wal.Close label))
  | Protocol.Resolve label ->
      let h = locked t (fun () -> materialise t label (find_entry t label)) in
      (* the solve itself runs outside the daemon lock: the handle has its
         own mutex, so other connections keep streaming meanwhile *)
      let r, st = Session.resolve h in
      locked t (fun () -> t.n_resolves <- t.n_resolves + 1);
      result_json label (Spec.schema (Session.spec h)) r st (Session.resolves h)
  | Protocol.Baseline { label; policy } ->
      let strategy =
        match policy with
        | None -> (Config.to_engine t.config).Engine.pick_strategy
        | Some p -> (
            match Pick.strategy_of_string p with
            | Some s -> s
            | None -> fail "BASELINE %s: unknown policy %s" label p)
      in
      locked t (fun () ->
          let entry = find_entry t label in
          (* no solver, no materialisation: Pick policies answer from the
             accumulated spec directly — the cheap BDR-style path *)
          let spec = effective_spec t label entry in
          let values = Pick.run ~strategy spec in
          let name = Pick.strategy_to_string strategy in
          Hashtbl.replace t.baselines name
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.baselines name));
          Protocol.ok
            [
              ("label", Protocol.jstr label);
              ("policy", Protocol.jstr name);
              ("values", values_json (Spec.schema spec) values);
            ])

let handle_line t line =
  match Protocol.parse line with
  | Error msg -> (Protocol.error msg, Continue)
  | Ok { Protocol.seq; cmd } ->
      (* Admission gate: liveness probes and SHUTDOWN always pass; other
         work is shed past [max_inflight] (explicit OVERLOADED, bounded
         concurrency) and refused while draining. *)
      let gate =
        locked t (fun () ->
            t.n_requests <- t.n_requests + 1;
            match cmd with
            | Protocol.Ping | Protocol.Health | Protocol.Ready
            | Protocol.Shutdown _ ->
                `Exempt
            | _ when t.lifecycle <> Serving -> `Draining
            | _ ->
                let cap = Config.max_inflight t.config in
                if cap > 0 && t.inflight >= cap then begin
                  t.shed <- t.shed + 1;
                  `Shed
                end
                else begin
                  t.inflight <- t.inflight + 1;
                  `Admitted
                end)
      in
      let outcome =
        match cmd with
        | Protocol.Shutdown { drain = true } -> Drain
        | Protocol.Shutdown { drain = false } -> Stop
        | _ -> Continue
      in
      let response =
        match gate with
        | `Shed -> Protocol.overloaded
        | `Draining -> Protocol.error "draining: not accepting new work"
        | (`Exempt | `Admitted) as g ->
            Fun.protect
              ~finally:(fun () ->
                if g = `Admitted then
                  locked t (fun () -> t.inflight <- t.inflight - 1))
              (fun () ->
                try run_command t ?seq cmd with
                | Reply r -> r
                | Invalid_argument msg | Failure msg -> Protocol.error msg)
      in
      (match outcome with
      | Drain -> drain t
      | Stop -> stop t
      | Continue -> ());
      (response, outcome)

(* {1 Socket serving} *)

let request_many ~socket_path lines =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX socket_path);
      let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
      List.map
        (fun line ->
          output_string oc line;
          output_char oc '\n';
          flush oc;
          input_line ic)
        lines)

let request ~socket_path line =
  match request_many ~socket_path [ line ] with
  | [ r ] -> r
  | _ -> assert false

let write_all fd s =
  let b = Bytes.of_string s in
  let total = Bytes.length b in
  let off = ref 0 in
  while !off < total do
    off := !off + Unix.write fd b !off (total - !off)
  done

(* Line-buffered reading over a raw fd so the read can time out (idle
   connections, drain responsiveness) — in_channel buffering cannot be
   mixed with select. *)
let next_line fd pending ~timeout =
  let rec go () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear pending;
        Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
        `Line (String.sub s 0 i)
    | None -> (
        match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> `Timeout
        | _ -> (
            let b = Bytes.create 4096 in
            match Unix.read fd b 0 4096 with
            | 0 -> `Eof
            | n ->
                Buffer.add_subbytes pending b 0 n;
                go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout)
  in
  go ()

let handle_conn t fd =
  locked t (fun () ->
      t.conns_open <- t.conns_open + 1;
      t.conns_total <- t.conns_total + 1);
  let pending = Buffer.create 256 in
  let tick = 0.25 in
  let idle_limit = Config.idle_timeout t.config in
  let idle = ref 0. in
  (* [Fun.protect] guarantees the fd closes and the count drops whatever
     the handler does — a raising handler can no longer leak sockets *)
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked t (fun () -> t.conns_open <- t.conns_open - 1))
    (fun () ->
      try
        let connected = ref true in
        while !connected do
          if t.lifecycle = Stopped then connected := false
          else
            match next_line fd pending ~timeout:tick with
            | `Eof -> connected := false
            | `Timeout ->
                (* between requests: drain closes the connection, and so
                   does exceeding the idle timeout *)
                if t.lifecycle <> Serving then connected := false
                else begin
                  idle := !idle +. tick;
                  match idle_limit with
                  | Some limit when !idle >= limit ->
                      locked t (fun () -> t.idle_closed <- t.idle_closed + 1);
                      connected := false
                  | _ -> ()
                end
            | `Line line ->
                idle := 0.;
                let response, outcome = handle_line t line in
                write_all fd (response ^ "\n");
                if outcome <> Continue then connected := false
        done
      with Sys_error _ | Unix.Unix_error _ | End_of_file -> ())

let serve ?(backlog = 64) ?(drain_wait = 10.) t ~socket_path =
  (* a client vanishing mid-write must surface as EPIPE on the handler's
     write, not kill the whole daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener backlog;
  let sweeper =
    match Config.session_ttl t.config with
    | None -> None
    | Some ttl ->
        Some
          (Thread.create
             (fun () ->
               let period = Float.max 0.05 (ttl /. 2.) in
               while t.lifecycle = Serving do
                 Thread.delay period;
                 if t.lifecycle = Serving then ignore (Session.Store.sweep t.store)
               done)
             ())
  in
  let flusher =
    match (t.wal, Config.fsync t.config) with
    | Some w, Durable.Wal.Interval i ->
        Some
          (Thread.create
             (fun () ->
               let period = Float.max 0.01 (i /. 2.) in
               while t.lifecycle <> Stopped do
                 Thread.delay period;
                 Durable.Wal.maybe_flush w
               done)
             ())
    | _ -> None
  in
  let conn_cap =
    match Config.max_inflight t.config with
    | 0 -> max_int
    | cap -> max 64 (4 * cap)
  in
  while
    sync_lifecycle t;
    t.lifecycle = Serving
  do
    match Unix.select [ listener ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept listener with
        | fd, _ ->
            if t.lifecycle <> Serving then (
              try Unix.close fd with Unix.Unix_error _ -> ())
            else if t.conns_open >= conn_cap then begin
              locked t (fun () -> t.shed <- t.shed + 1);
              (try write_all fd (Protocol.overloaded ^ "\n")
               with Unix.Unix_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
            else ignore (Thread.create (handle_conn t) fd)
        | exception
            Unix.Unix_error ((Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* no new connections from here on *)
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  (* drain: let in-flight requests finish (connection threads close
     themselves once idle), then persist a final snapshot *)
  if t.lifecycle = Draining then begin
    let deadline = Clock.now_s () +. drain_wait in
    while t.conns_open > 0 && Clock.now_s () < deadline do
      Thread.delay 0.05
    done;
    locked t (fun () -> take_snapshot_locked t)
  end;
  (match t.wal with Some w -> Durable.Wal.flush w | None -> ());
  locked t (fun () -> t.lifecycle <- Stopped);
  Option.iter Thread.join sweeper;
  Option.iter Thread.join flusher

(* Stream workloads: a crsolved process spoken to over its Unix socket by
   one client connection in a closed loop — the next request goes out
   only after the previous reply is in. *)

module Cr = Conflict_resolution
module Daemon = Crserver.Daemon
module Protocol = Crserver.Protocol

(* {1 The daemon process} *)

type env = { crsolved : string; sigma : string; gamma : string; log : string }

(* Σ and Γ reach the daemon as constraint files in [dir], the way
   crsolved is deployed; they must parse back to exactly the generated
   lists. The daemons' output goes to a log file there too. *)
let env ~crsolved ~dir (ds : Datagen.Types.dataset) =
  if not (Sys.file_exists crsolved) then failwith ("crsolved not found at " ^ crsolved);
  Common.mkdir_p dir;
  let write name render parse expected =
    let path = Filename.concat dir name in
    let text = String.concat "\n" (List.map render expected) ^ "\n" in
    Common.write_file path text;
    (match parse text with
    | Ok l when l = expected -> ()
    | Ok _ -> failwith (name ^ ": constraints do not survive their text form")
    | Error m -> failwith (name ^ ": " ^ m));
    path
  in
  {
    crsolved;
    log = Filename.concat dir "crsolved.log";
    sigma =
      write "sigma.txt" Currency.Constraint_ast.to_string Currency.Parser.parse_many
        ds.Datagen.Types.sigma;
    gamma =
      write "gamma.txt" Cfd.Constant_cfd.to_string Cfd.Constant_cfd.parse_many
        ds.Datagen.Types.gamma;
  }

let spawn env ~wal_dir ~socket =
  let out =
    Unix.openfile env.log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close out)
    (fun () ->
      Common.spawn env.crsolved
        [
          "--socket"; socket;
          "--sigma"; env.sigma;
          "--gamma"; env.gamma;
          "--max-sessions"; string_of_int Workload.session_cap;
          "--wal-dir"; wal_dir;
          "--fsync"; Durable.Wal.fsync_to_string Workload.fsync;
          "--snapshot-every"; string_of_int Workload.snapshot_every;
        ]
        ~out)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Start a daemon and poll READY every 0.2 ms; returns the pid and
   the seconds from spawn to the first [READY] answered true. *)
let start env ~wal_dir ~socket =
  let t0 = Trace.now () in
  let pid = spawn env ~wal_dir ~socket in
  let rec poll () =
    let ready =
      match Daemon.request ~socket_path:socket "READY" with
      | r -> contains r {|"ready":true|}
      | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> false
    in
    if ready then Trace.now () -. t0
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          Hashtbl.remove Common.live pid;
          failwith ("crsolved exited before it was ready:\n" ^ Common.read_file env.log));
      if Trace.now () -. t0 > 60. then failwith "crsolved not ready after 60 s";
      Unix.sleepf 0.0002;
      poll ()
    end
  in
  (pid, poll ())

let stop ~socket pid =
  (try ignore (Daemon.request ~socket_path:socket "SHUTDOWN")
   with Unix.Unix_error _ | End_of_file | Sys_error _ -> ());
  let deadline = Trace.now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Trace.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        Common.reap pid
    | _ -> Hashtbl.remove Common.live pid
  in
  wait ()

(* {1 Replies} *)

let is_ok reply = String.length reply >= 10 && String.sub reply 0 10 = {|{"ok":true|}

(* the part of a RESOLVE reply every path must agree on: validity and the
   resolved tuple (session counters legitimately differ) *)
let core_of_reply reply =
  match Json.of_string reply with
  | Ok j -> (
      match (Json.member "valid" j, Json.member "resolved" j) with
      | Json.Bool v, (Json.Obj _ as r) -> Printf.sprintf "%b %s" v (Json.to_string r)
      | _ -> "no answer: " ^ reply)
  | Error _ -> "no answer: " ^ reply

(* the same core for an in-process answer, rendered as the daemon does *)
let core_of_result schema (r : Crcore.Engine.result) =
  let value = function
    | None | Some Value.Null -> Json.Null
    | Some (Value.Int i) -> Json.Num (float_of_int i)
    | Some (Value.Float f) -> Json.Num (float_of_string (Protocol.jnum f))
    | Some (Value.Str s) -> Json.Str s
  in
  Printf.sprintf "%b %s" r.Crcore.Engine.valid
    (Json.to_string
       (Json.Obj
          (List.mapi
             (fun i v -> (Schema.name schema i, value v))
             (Array.to_list r.Crcore.Engine.resolved))))

let resolve_cores lines replies =
  List.concat
    (List.mapi
       (fun i l -> if Workload.is_resolve l then [ core_of_reply replies.(i) ] else [])
       (Array.to_list lines))

let kind_of_parsed = function
  | Ok { Protocol.cmd = Protocol.Ingest _; _ } -> `Ingest
  | Ok { Protocol.cmd = Protocol.Resolve _; _ } -> `Resolve
  | _ -> `Other

let kind line = kind_of_parsed (Protocol.parse line)

let base_config () =
  let cap = Workload.session_cap in
  Cr.Config.(default |> with_session_cap cap)

let durable_config dir =
  let f = Workload.fsync and e = Workload.snapshot_every in
  Cr.Config.(base_config () |> with_wal_dir (Some dir) |> with_fsync f |> with_snapshot_every e)

(* {1 Reference: the same lines in process, no WAL} *)

let reference (s : Workload.stream) ~seed ~digests =
  let ds, lines = Workload.stream_lines s ~seed in
  let d =
    Daemon.create ~config:(base_config ()) ~sigma:ds.Datagen.Types.sigma
      ~gamma:ds.Datagen.Types.gamma ()
  in
  let replies = Array.map (fun l -> fst (Daemon.handle_line d l)) lines in
  Common.write_lines digests (resolve_cores lines replies);
  {
    Common.empty with
    attempted = Array.length lines;
    failed = Array.fold_left (fun a r -> if is_ok r then a else a + 1) 0 replies;
  }

(* {1 One pass over the socket} *)

(* The closed-loop client. It waits for each reply by polling a
   non-blocking socket instead of sleeping in read(2): on this class of
   VM, waking a sleeping client costs about as much as a memoized
   RESOLVE, and how much varies from run to run, so a sleeping client
   measures its own wake-ups. *)
module Poll_client = struct
  type t = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

  let connect socket =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with e ->
       Unix.close fd;
       raise e);
    Unix.set_nonblock fd;
    { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let rec write_all fd b off len =
    if len > 0 then
      match Unix.write fd b off len with
      | k -> write_all fd b (off + k) (len - k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          write_all fd b off len

  let request c line =
    match
      let b = Bytes.of_string (line ^ "\n") in
      write_all c.fd b 0 (Bytes.length b);
      let rec await () =
        match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
        | 0 -> raise End_of_file
        | k -> (
            Buffer.add_subbytes c.pending c.chunk 0 k;
            let s = Buffer.contents c.pending in
            match String.index_opt s '\n' with
            | Some i ->
                Buffer.clear c.pending;
                Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
                String.sub s 0 i
            | None -> await ())
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Domain.cpu_relax ();
            await ()
      in
      await ()
    with
    | reply -> Ok reply
    | exception (Unix.Unix_error _ | End_of_file) -> Error "connection lost"
end

type pass = {
  wall : float;  (** stream time, the restart after a kill excluded *)
  rtt : float array;  (** client round trip per line *)
  replies : string array;
  failed : int;
  hwm_mb : float;  (** the daemon's peak RSS (the larger of both lives) *)
  recovery_s : float option;  (** restart spawn to READY after the kill *)
}

let socket_pass env lines ~kill_at =
  let wal_dir = Common.fresh "wal" and socket = Common.fresh "sock" in
  let pid, _ = start env ~wal_dir ~socket in
  let pid = ref pid in
  let client = ref (Poll_client.connect socket) in
  let n = Array.length lines in
  let rtt = Array.make n 0. and replies = Array.make n "" in
  let failed = ref 0 and hwm = ref 0. and downtime = ref 0. and recovery = ref None in
  let t0 = Trace.now () in
  Array.iteri
    (fun i line ->
      if kill_at = Some i then begin
        let k0 = Trace.now () in
        hwm := Float.max !hwm (Common.vmhwm_mb !pid);
        Unix.kill !pid Sys.sigkill;
        Common.reap !pid;
        Poll_client.close !client;
        let p, r = start env ~wal_dir ~socket in
        pid := p;
        recovery := Some r;
        client := Poll_client.connect socket;
        downtime := Trace.now () -. k0
      end;
      let t = Trace.now () in
      let r = Poll_client.request !client line in
      rtt.(i) <- Trace.now () -. t;
      match r with
      | Ok reply ->
          replies.(i) <- reply;
          if not (is_ok reply) then incr failed
      | Error _ -> incr failed)
    lines;
  let wall = Trace.now () -. t0 -. !downtime in
  hwm := Float.max !hwm (Common.vmhwm_mb !pid);
  Poll_client.close !client;
  stop ~socket !pid;
  Common.rm_rf wal_dir;
  { wall; rtt; replies; failed = !failed; hwm_mb = !hwm; recovery_s = !recovery }

let select lines (p : pass) k =
  List.concat
    (List.mapi (fun i l -> if kind l = k then [ p.rtt.(i) ] else []) (Array.to_list lines))

(* {1 The measured run} *)

(* Set-up samples first (each a fresh daemon on an empty WAL directory,
   spawn to READY), then passes for about [seconds]. *)
let run env (s : Workload.stream) ~seed ~seconds ~min_passes ~setup_samples ~digests =
  let _, lines = Workload.stream_lines s ~seed in
  let expected = Common.read_lines digests in
  let setups =
    List.init setup_samples (fun _ ->
        let wal_dir = Common.fresh "wal" and socket = Common.fresh "sock" in
        let pid, ready = start env ~wal_dir ~socket in
        stop ~socket pid;
        Common.rm_rf wal_dir;
        ready)
  in
  let kill_at = Workload.kill_point s (Array.length lines) in
  let passes = Common.passes ~seconds ~min_passes (fun _ -> socket_pass env lines ~kill_at) in
  let per_pass f = List.map f passes in
  let median_metric name unit f =
    let l = per_pass f in
    Common.metric ~per_pass:l name unit (Stats.median l)
  in
  let pooled name k =
    let lat =
      Common.latency name "ms" (List.concat_map (fun p -> Common.ms (select lines p k)) passes)
    in
    let p50s = per_pass (fun p -> Stats.median (Common.ms (select lines p k))) in
    List.map
      (fun (m : Common.metric) ->
        if m.Common.name = name ^ "_p50" then { m with Common.per_pass = p50s } else m)
      lat
  in
  let n_lines = float_of_int (Array.length lines) in
  let recovery =
    match List.filter_map (fun p -> p.recovery_s) passes with
    | [] -> []
    | l -> [ Common.metric ~per_pass:l "recovery_s" "s" (Stats.median l) ]
  in
  {
    Common.metrics =
      [
        Common.metric ~per_pass:setups "setup_s" "s" (Stats.median setups);
        median_metric "rss_peak_mb" "MiB" (fun p -> p.hwm_mb);
        median_metric "entities_per_s" "1/s" (fun p ->
            float_of_int s.Workload.stream_entities /. p.wall);
        median_metric "requests_per_s" "1/s" (fun p -> n_lines /. p.wall);
      ]
      @ pooled "resolve_ms" `Resolve @ pooled "ingest_ms" `Ingest @ recovery;
    passes = List.length passes;
    attempted = Array.length lines * List.length passes;
    failed = List.fold_left (fun a p -> a + p.failed) 0 passes;
    mismatches =
      List.fold_left
        (fun a p -> a + Layers.count_mismatches expected (resolve_cores lines p.replies))
        0 passes;
  }

(* {1 The traced run} *)

let copy_dir src dst =
  Common.mkdir_p dst;
  Array.iter
    (fun f ->
      Common.write_file (Filename.concat dst f) (Common.read_file (Filename.concat src f)))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* The lines through Protocol.parse and Daemon.handle_line on an
   in-process durable daemon configured like the forked one. With
   [copy_to], the WAL directory is copied at the kill point (the copy is
   excluded from the wall time). *)
let in_process tracer (ds : Datagen.Types.dataset) lines ?copy_to () =
  let dir = Common.fresh "wal" in
  let d =
    Daemon.create ~config:(durable_config dir) ~sigma:ds.Datagen.Types.sigma
      ~gamma:ds.Datagen.Types.gamma ()
  in
  let n = Array.length lines in
  let replies = Array.make n "" and copying = ref 0. in
  let t0 = Trace.now () in
  Array.iteri
    (fun i line ->
      (match copy_to with
      | Some dst when i = n * 9 / 10 ->
          let c0 = Trace.now () in
          copy_dir dir dst;
          copying := Trace.now () -. c0
      | _ -> ());
      replies.(i) <-
        Trace.span tracer ~req:i "request" (fun () ->
            let handler =
              match
                kind_of_parsed
                  (Trace.span tracer "protocol.parse" (fun () -> Protocol.parse line))
              with
              | `Ingest -> "daemon.handle_ingest"
              | `Resolve -> "daemon.handle_resolve"
              | `Other -> "daemon.handle_other"
            in
            fst (Trace.span tracer handler (fun () -> Daemon.handle_line d line))))
    lines;
  let wall = Trace.now () -. t0 -. !copying in
  let snapshots =
    match Json.of_string (fst (Daemon.handle_line d "STATS")) with
    | Ok j -> Json.to_float (Json.member "snapshots" j)
    | Error m -> failwith ("STATS: " ^ m)
  in
  Daemon.stop d;
  Common.rm_rf dir;
  (wall, replies, snapshots)

type entry = {
  schema : Schema.t;
  mutable tuples : Tuple.t list;  (** buffered before the session exists, newest first *)
  mutable orders : Crcore.Spec.order_edge list;
  mutable dirty : bool;  (** a mutation arrived since the last resolve *)
  mutable last_core : string option;
}

type session_replay = {
  cores : string list;
  store : Crcore.Session.Store.stats;
  path : Layers.acc;
  finals : (Crcore.Spec.t * string option) list;
      (** each entity's final spec, with its last answer when nothing
          arrived after it *)
  unchanged_reads : float;
}

(* The lines through Session.Store directly — what the daemon does
   between parsing a request and replying, with a span around each
   session ingest and resolve. Arrivals before an entity's first resolve
   are buffered and open its session then, as in the daemon. *)
let session_replay tracer (ds : Datagen.Types.dataset) lines =
  let store =
    Crcore.Session.Store.create ~config:(Cr.Config.to_engine (base_config ()))
      ~max_sessions:Workload.session_cap ()
  in
  let entries = Hashtbl.create 64 and path = Layers.acc () in
  let cores = ref [] and finals = ref [] and reads = ref 0 and unchanged = ref 0 in
  let spec_of (e : entry) =
    Crcore.Spec.make
      (Entity.make e.schema (List.rev e.tuples))
      ~orders:e.orders ~sigma:ds.Datagen.Types.sigma ~gamma:ds.Datagen.Types.gamma
  in
  Array.iteri
    (fun i line ->
      match Protocol.parse line with
      | Ok { Protocol.cmd = Protocol.Open { label; header }; _ } ->
          Hashtbl.replace entries label
            {
              schema = Schema.make header;
              tuples = [];
              orders = [];
              dirty = true;
              last_core = None;
            }
      | Ok { Protocol.cmd = Protocol.Ingest { label; row }; _ } -> (
          let e = Hashtbl.find entries label in
          e.dirty <- true;
          let tuple = Tuple.make e.schema (List.map Value.of_string row) in
          match Crcore.Session.Store.find store label with
          | Some h ->
              Trace.span tracer ~req:i "session.ingest" (fun () ->
                  Crcore.Session.ingest h ~tuples:[ tuple ] ())
          | None -> e.tuples <- tuple :: e.tuples)
      | Ok { Protocol.cmd = Protocol.Order { label; attr; lo; hi }; _ } -> (
          let e = Hashtbl.find entries label in
          e.dirty <- true;
          let edge = { Crcore.Spec.attr; lo; hi } in
          match Crcore.Session.Store.find store label with
          | Some h ->
              Trace.span tracer ~req:i "session.ingest" (fun () ->
                  Crcore.Session.ingest h ~orders:[ edge ] ())
          | None -> e.orders <- edge :: e.orders)
      | Ok { Protocol.cmd = Protocol.Resolve label; _ } ->
          let e = Hashtbl.find entries label in
          incr reads;
          if not e.dirty then incr unchanged;
          e.dirty <- false;
          let h, _ =
            Crcore.Session.Store.get_or_create store label ~spec:(fun () -> spec_of e)
          in
          let r, _ =
            Trace.span tracer ~req:i "session.resolve" (fun () -> Crcore.Session.resolve h)
          in
          let core = core_of_result e.schema r in
          e.last_core <- Some core;
          cores := core :: !cores
      | Ok { Protocol.cmd = Protocol.Close label; _ } ->
          let e = Hashtbl.find entries label in
          (match Crcore.Session.Store.find store label with
          | Some h ->
              Layers.add path
                ~rounds:
                  (match Crcore.Session.last_result h with
                  | Some r -> r.Crcore.Engine.rounds
                  | None -> 0)
                (Crcore.Session.stats h);
              finals :=
                (Crcore.Session.spec h, if e.dirty then None else e.last_core) :: !finals
          | None -> ());
          ignore (Crcore.Session.Store.remove store label);
          Hashtbl.remove entries label
      | Ok _ -> ()
      | Error m -> failwith ("unparsable stream line: " ^ m))
    lines;
  {
    cores = List.rev !cores;
    store = Crcore.Session.Store.stats store;
    path;
    finals = List.rev !finals;
    unchanged_reads = float_of_int !unchanged /. float_of_int (max 1 !reads);
  }

(* WAL appends (and interval flushes) of the mutating lines on a scratch
   writer with the daemon's fsync policy. Returns append and flush times
   and the log's bytes per byte of request text. *)
let wal_replay tracer lines =
  let dir = Common.fresh "walw" in
  let w = Durable.Wal.open_writer ~fsync:Workload.fsync ~dir () in
  let appends = ref [] and flushes = ref [] and user_bytes = ref 0 in
  Array.iteri
    (fun i line ->
      let event =
        match Protocol.parse line with
        | Ok { Protocol.seq; cmd = Protocol.Open { label; header } } ->
            Some (seq, Durable.Wal.Open { label; header })
        | Ok { Protocol.seq; cmd = Protocol.Ingest { label; row } } ->
            Some (seq, Durable.Wal.Ingest { label; row })
        | Ok { Protocol.seq; cmd = Protocol.Order { label; attr; lo; hi } } ->
            Some (seq, Durable.Wal.Order { label; attr; lo; hi })
        | Ok { Protocol.seq; cmd = Protocol.Close label } -> Some (seq, Durable.Wal.Close label)
        | _ -> None
      in
      match event with
      | None -> ()
      | Some (seq, event) ->
          user_bytes := !user_bytes + String.length line + 1;
          let t = Trace.now () in
          Trace.span tracer ~req:i "wal.append" (fun () ->
              Durable.Wal.append w { Durable.Wal.seq; event });
          appends := (Trace.now () -. t) :: !appends;
          let pending = Durable.Wal.unsynced w in
          let t = Trace.now () in
          Trace.span tracer ~req:i "wal.flush" (fun () -> Durable.Wal.maybe_flush w);
          if pending > 0 && Durable.Wal.unsynced w = 0 then
            flushes := (Trace.now () -. t) :: !flushes)
    lines;
  Durable.Wal.close_writer w;
  let bytes = dir_bytes dir in
  Common.rm_rf dir;
  (!appends, !flushes, float_of_int bytes /. float_of_int (max 1 !user_bytes))

let handler_spans spans =
  List.filter
    (fun (s : Trace.span) -> String.starts_with ~prefix:"daemon.handle_" s.Trace.name)
    (Array.to_list spans)

(* Everything the traced run measures for a stream workload; see
   README.md for which end-to-end number each metric should move. *)
let trace env (s : Workload.stream) ~seed ~seconds ~digests ~trace_out =
  let ds, lines = Workload.stream_lines s ~seed in
  let expected = Common.read_lines digests in
  let n = Array.length lines in
  let off = Trace.create ~enabled:false () in
  let wal_copy = Common.fresh "walcopy" in
  (* the session replay goes first: it also warms the engine (templates,
     heap) for the untraced/traced pairs that follow *)
  let session_tracer = Trace.create ~enabled:true () in
  let sr = session_replay session_tracer ds lines in
  let tracer = Trace.create ~enabled:true () in
  let pairs =
    Common.passes ~seconds:(seconds /. 2.) ~min_passes:1 (fun k ->
        let u = in_process off ds lines () in
        let t =
          if k = 0 then in_process tracer ds lines ~copy_to:wal_copy ()
          else in_process (Trace.create ~enabled:true ()) ds lines ()
        in
        (u, t))
  in
  let handle_spans = Trace.spans tracer in
  let handle = Array.make n 0. in
  List.iter
    (fun (sp : Trace.span) -> handle.(sp.Trace.req) <- sp.Trace.stop -. sp.Trace.start)
    (handler_spans handle_spans);
  (* recovery of the WAL as it stood at the kill point *)
  let recovered, recover_s =
    let t = Trace.now () in
    let d =
      Trace.span session_tracer "daemon.recover" (fun () ->
          Daemon.create ~config:(durable_config wal_copy) ~sigma:ds.Datagen.Types.sigma
            ~gamma:ds.Datagen.Types.gamma ())
    in
    let dt = Trace.now () -. t in
    let health = fst (Daemon.handle_line d "HEALTH") in
    Daemon.stop d;
    Common.rm_rf wal_copy;
    match Json.of_string health with
    | Ok j ->
        (Json.to_float (Json.member "wal_records_replayed" (Json.member "recovery" j)), dt)
    | Error m -> failwith ("HEALTH: " ^ m)
  in
  let appends, flushes, wal_ratio = wal_replay session_tracer lines in
  let sock = socket_pass env lines ~kill_at:None in
  (* cold engine resolution and the layer replay on each entity's final
     state *)
  let final_items =
    List.map
      (fun (spec, _) ->
        { Crcore.Engine.label = ""; spec; user = Crcore.Framework.silent })
      sr.finals
  in
  let loop_tracer = Trace.create ~enabled:true () in
  let loop =
    Layers.engine_loop loop_tracer ~config:(Cr.Config.to_engine (base_config ())) final_items
  in
  let replay_tracer = Trace.create ~enabled:true () in
  let replay =
    Layers.replay replay_tracer ~mode:Crcore.Encode.Paper (List.map fst sr.finals)
  in
  let replay_spans = Trace.spans replay_tracer in
  let session_spans = Trace.spans session_tracer in
  Trace.write_chrome trace_out
    (Layers.concat_spans [ handle_spans; session_spans; loop.Layers.spans; replay_spans ]);
  (* the final cold answers must equal each entity's last streamed one *)
  let final_mismatches =
    List.fold_left2
      (fun a (spec, last) r ->
        match last with
        | Some core when core <> core_of_result (Crcore.Spec.schema spec) r -> a + 1
        | _ -> a)
      0 sr.finals loop.Layers.results
  in
  let metric = Common.metric in
  let lat name unit scale l = Common.latency name unit (List.map (fun x -> x *. scale) l) in
  let st = sr.store in
  let entities = float_of_int (max 1 sr.path.Layers.entities) in
  let extras =
    let us name spans span = lat (name ^ "_us") "us" 1e6 (Layers.durations spans span) in
    us "protocol.parse" handle_spans "protocol.parse"
    @ us "daemon.handle_ingest" handle_spans "daemon.handle_ingest"
    @ us "daemon.handle_resolve" handle_spans "daemon.handle_resolve"
    @ [ metric "daemon.recover_ms" "ms" (recover_s *. 1000.) ]
    @ us "session.ingest" session_spans "session.ingest"
    @ lat "session.resolve_ms" "ms" 1e3 (Layers.durations session_spans "session.resolve")
    @ [
        metric "session.delta_extensions" "count"
          (float_of_int st.Crcore.Session.Store.delta_extensions /. entities);
        metric "session.rebuilds_renumbered" "count"
          (float_of_int st.Crcore.Session.Store.rebuilds_renumbered /. entities);
        metric "session.solvers_built" "count"
          (float_of_int st.Crcore.Session.Store.solvers_built /. entities);
        metric "session.unchanged_read_share" "ratio" sr.unchanged_reads;
      ]
    @ lat "wal.append_us" "us" 1e6 appends
    @ lat "wal.flush_ms" "ms" 1e3 flushes
    @ [
        metric "wal.bytes_per_user_byte" "ratio" wal_ratio;
        metric "wal.replay_records_per_s" "1/s" (recovered /. recover_s);
        metric "snapshot.count" "count" (let _, _, s = snd (List.hd pairs) in s);
      ]
    @ [
        metric ~n "socket.overhead_us_p50" "us"
          (Stats.median
             (Array.to_list (Array.mapi (fun i r -> (r -. handle.(i)) *. 1e6) sock.rtt)));
      ]
  in
  let checks =
    (resolve_cores lines sock.replies, sock.failed)
    :: List.concat_map
         (fun ((_, ru, _), (_, rt, _)) ->
           let failed r = Array.fold_left (fun a x -> if is_ok x then a else a + 1) 0 r in
           [ (resolve_cores lines ru, failed ru); (resolve_cores lines rt, failed rt) ])
         pairs
    @ [ (sr.cores, 0) ]
  in
  {
    Common.metrics =
      Layers.metrics ~replay_spans ~replay ~loops:[ loop ] ~path:sr.path
        ~overhead:(List.map (fun ((u, _, _), (t, _, _)) -> (u, t)) pairs)
      @ extras;
    passes = List.length pairs;
    attempted = n * List.length checks;
    failed = List.fold_left (fun a (_, f) -> a + f) 0 checks + loop.Layers.failed;
    mismatches =
      List.fold_left
        (fun a (cores, _) -> a + Layers.count_mismatches expected cores)
        final_mismatches checks;
  }

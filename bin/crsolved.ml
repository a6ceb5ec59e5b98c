(* crsolved: resolution-as-a-service. Loads Σ/Γ once, then serves the
   line/JSON protocol of Crserver.Protocol over a Unix-domain socket,
   keeping per-entity encodings and incremental solver sessions hot
   between requests. Stop it with `crsolve client --socket ... SHUTDOWN`. *)

open Conflict_resolution

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_sigma_gamma sigma_file gamma_file =
  let sigma =
    match sigma_file with
    | None -> []
    | Some f -> (
        match Constraint_parser.parse_many (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse currency constraints: " ^ m))
  in
  let gamma =
    match gamma_file with
    | None -> []
    | Some f -> (
        match Constant_cfd.parse_many (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse CFDs: " ^ m))
  in
  (sigma, gamma)

let run socket sigma_file gamma_file exact max_rounds budget_conflicts budget_ms max_degrade
    pick session_cap ttl wal_dir fsync snapshot_every max_inflight request_deadline
    idle_timeout =
  let sigma, gamma = parse_sigma_gamma sigma_file gamma_file in
  let pick_strategy =
    match Pick.strategy_of_string pick with
    | Some s -> s
    | None -> failwith (Printf.sprintf "unknown pick policy %S" pick)
  in
  let fsync =
    match Durable.Wal.fsync_of_string fsync with
    | Ok f -> f
    | Error m -> failwith m
  in
  let config =
    (* bound outside the local open: the Config accessors of the same
       names would shadow the CLI parameters *)
    let wd = wal_dir
    and fs = fsync
    and se = snapshot_every
    and mi = max_inflight
    and rd = request_deadline
    and it = idle_timeout in
    Config.(
      default
      |> with_mode (if exact then Encode.Exact else Encode.Paper)
      |> with_max_rounds max_rounds
      |> with_budget_conflicts budget_conflicts
      |> with_budget_ms budget_ms
      |> with_max_degrade max_degrade
      |> with_pick pick_strategy
      |> with_session_cap session_cap
      |> with_session_ttl ttl
      |> with_wal_dir wd
      |> with_fsync fs
      |> with_snapshot_every se
      |> with_max_inflight mi
      |> with_request_deadline rd
      |> with_idle_timeout it)
  in
  let daemon = Crserver.Daemon.create ~config ~sigma ~gamma () in
  (* SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
     requests, snapshot, exit. The handler only flips an atomic flag. *)
  let graceful = Sys.Signal_handle (fun _ -> Crserver.Daemon.drain daemon) in
  Sys.set_signal Sys.sigterm graceful;
  Sys.set_signal Sys.sigint graceful;
  (match wal_dir with
  | Some d -> Printf.printf "crsolved: durable (wal %s, fsync %s)\n%!" d
                (Durable.Wal.fsync_to_string fsync)
  | None -> ());
  Printf.printf "crsolved: listening on %s (cap %d session(s)%s)\n%!" socket session_cap
    (match ttl with None -> "" | Some s -> Printf.sprintf ", ttl %gs" s);
  Crserver.Daemon.serve daemon ~socket_path:socket;
  Printf.printf "crsolved: shut down\n%!";
  0

open Cmdliner

let main =
  let socket_a =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")
  in
  let sigma_a =
    Arg.(
      value
      & opt (some file) None
      & info [ "sigma"; "s" ] ~docv:"FILE"
          ~doc:"Currency constraints, shared by every entity the daemon serves.")
  in
  let gamma_a =
    Arg.(
      value
      & opt (some file) None
      & info [ "gamma"; "g" ] ~docv:"FILE" ~doc:"Constant CFDs, shared by every entity.")
  in
  let exact_a =
    Arg.(
      value & flag
      & info [ "exact" ] ~doc:"Use the exact (total-order) encoding instead of the paper's.")
  in
  let max_rounds_a =
    Arg.(value & opt int 5 & info [ "max-rounds" ] ~docv:"N" ~doc:"Interaction-round budget per resolve (default 5).")
  in
  let budget_conflicts_a =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-conflicts" ] ~docv:"N"
          ~doc:
            "Per-request SAT conflict budget; re-armed on every RESOLVE, so long-lived \
             sessions degrade per request, not per lifetime.")
  in
  let budget_ms_a =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS" ~doc:"Per-request soft wall-clock budget in milliseconds.")
  in
  let max_degrade_a =
    Arg.(
      value
      & opt
          (enum
             [
               ("exact", Engine.Exact);
               ("partial", Engine.PartialDeduce);
               ("pick", Engine.PickFallback);
             ])
          Engine.PickFallback
      & info [ "max-degrade" ] ~docv:"LEVEL"
          ~doc:"Lowest degradation level a budget-exhausted request may fall to (default pick).")
  in
  let pick_a =
    Arg.(
      value & opt string "favoured"
      & info [ "pick" ] ~docv:"POLICY"
          ~doc:
            "Pick policy for the fallback rung and as the default BASELINE flavour: \
             favoured, random, max, min, first, last_update_wins (lww), accept_local (local).")
  in
  let max_sessions_a =
    Arg.(
      value & opt int 1024
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Live-session cap; least-recently-used entities are evicted beyond it.")
  in
  let ttl_a =
    Arg.(
      value
      & opt (some float) None
      & info [ "ttl" ] ~docv:"SECONDS"
          ~doc:"Idle-session time-to-live; a background sweeper evicts sessions idle longer.")
  in
  let wal_dir_a =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:
            "Write-ahead-log directory. Every applied OPEN/INGEST/ORDER/CLOSE is logged \
             before its reply, and startup recovers from the newest snapshot plus the log \
             tail — restart without data loss. Omit to run without durability.")
  in
  let fsync_a =
    Arg.(
      value & opt string "interval:0.05"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "WAL fsync policy: $(b,always) (no acknowledged event survives even an OS \
             crash unsynced; slowest), $(b,interval:SECONDS) (bounded lag; default \
             interval:0.05), or $(b,never) (fsync only on rotation/shutdown).")
  in
  let snapshot_every_a =
    Arg.(
      value & opt int 10_000
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Snapshot the replayable state and compact the WAL every $(docv) applied \
             events; 0 disables periodic snapshots (one is still taken on drain).")
  in
  let max_inflight_a =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission control: at most $(docv) requests executing concurrently; beyond \
             it the daemon answers OVERLOADED immediately instead of queueing. 0 = \
             unbounded (default).")
  in
  let request_deadline_a =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request deadline, enforced through the per-resolve wall-clock budget (a \
             soft bound on solver time).")
  in
  let idle_timeout_a =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close client connections idle longer than $(docv) seconds.")
  in
  Cmd.v
    (Cmd.info "crsolved" ~version:"1.0.0"
       ~doc:
         "Conflict-resolution daemon: per-entity solver sessions and the encoding cache \
          stay hot across requests; arrivals re-resolve incrementally. With $(b,--wal-dir) \
          the daemon is durable: crash recovery replays snapshot + WAL to the exact \
          pre-crash state.")
    Term.(
      const run $ socket_a $ sigma_a $ gamma_a $ exact_a $ max_rounds_a $ budget_conflicts_a
      $ budget_ms_a $ max_degrade_a $ pick_a $ max_sessions_a $ ttl_a $ wal_dir_a $ fsync_a
      $ snapshot_every_a $ max_inflight_a $ request_deadline_a $ idle_timeout_a)

let () =
  try exit (Cmd.eval' ~catch:false main)
  with Failure m | Invalid_argument m | Sys_error m ->
    Printf.eprintf "crsolved: %s\n" m;
    exit 2

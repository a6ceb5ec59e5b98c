(** The [crsolved] server: resolution-as-a-service on a Unix socket.

    A daemon holds one {!Conflict_resolution.Session.Store} — engine
    configuration, the shared template cache and every live
    per-entity solver session — plus the Σ/Γ constraint sets, loaded once
    at startup and shared by all entities. Clients speak {!Protocol} over
    a Unix-domain stream socket; each connection gets its own thread, and
    {!handle_line} is safe to call from many threads (and directly, for
    in-process tests and benchmarks — the protocol without the socket).

    Entity lifecycle: [OPEN] registers the schema; arrivals buffer until
    the first [RESOLVE]/[BASELINE] materialises the session (entities
    cannot be empty); from then on arrivals stream into the live session
    through the incremental [Encode.extend] path and every [RESOLVE]
    re-resolves with budgets re-armed. If the store evicts an idle entity
    (LRU cap or TTL), its accumulated state is gone — commands on the
    label then answer with an error naming the eviction, and the client
    re-opens and replays from its own log, exactly as a replication
    consumer would.

    {b Durability} (when the configuration sets
    {!Conflict_resolution.Config.with_wal_dir}): every applied mutating
    event is appended to a {!Durable.Wal} before its reply is released,
    and {!create} recovers by loading the newest {!Durable.Snapshot} and
    replaying the WAL tail through the exact same apply path — post-
    recovery state, and therefore every post-recovery resolve, is
    bit-identical to an uninterrupted run. Snapshots are taken every
    [snapshot_every] applied events (and on graceful drain), after which
    covered WAL segments are deleted. [@seq]-stamped requests are
    deduplicated against a persisted per-entity cursor, making
    at-least-once redelivery safe.

    {b Overload protection}: at most [max_inflight] requests execute
    concurrently — excess work is answered [OVERLOADED] immediately
    (load shedding) rather than queued; idle connections are closed
    after [idle_timeout]; [SIGTERM]-style {!drain} stops accepting,
    finishes in-flight requests, snapshots and exits. *)

type t

(** [create ?config ~sigma ~gamma ()] — configuration defaults to
    {!Conflict_resolution.Config.default}; the store capacity and TTL come
    from it ({!Conflict_resolution.Config.with_session_cap} /
    [with_session_ttl]). When the configuration names a WAL directory,
    [create] {b recovers} synchronously — snapshot load plus WAL-tail
    replay, with the torn tail truncated — before opening a fresh WAL
    segment for new events. *)
val create :
  ?config:Conflict_resolution.Config.t ->
  sigma:Conflict_resolution.Constraint_ast.t list ->
  gamma:Conflict_resolution.Constant_cfd.t list ->
  unit ->
  t

val store : t -> Conflict_resolution.Session.Store.t

(** What a handled request asks of the serve loop: keep going, drain
    gracefully, or stop now. *)
type outcome = Continue | Drain | Stop

(** [handle_line t line] executes one protocol request and returns the
    JSON response plus the requested {!outcome} ([Drain]/[Stop] for the
    two [SHUTDOWN] forms). Never raises on malformed or failing requests
    — those produce [{"ok":false,...}] responses. Admission control runs
    here too: past [max_inflight] concurrently-executing requests the
    reply is [OVERLOADED] without touching daemon state. *)
val handle_line : t -> string -> string * outcome

(** Request a graceful drain: stop accepting, finish in-flight requests,
    snapshot, exit {!serve}. Only flips an atomic flag — safe to call
    from a signal handler. *)
val drain : t -> unit

(** Request an immediate stop (the WAL is still flushed). Signal-safe
    like {!drain}. *)
val stop : t -> unit

(** [serve t ~socket_path] binds the Unix-domain socket (unlinking any
    stale file first) and accepts connections until a client sends
    [SHUTDOWN] (or {!drain}/{!stop} is called). Each connection runs in
    its own thread; when the configuration has a session TTL, a
    background thread sweeps idle sessions at half-TTL intervals, and
    under [Interval] fsync a flusher thread bounds WAL lag. On
    [SHUTDOWN drain] the listener closes first, in-flight requests get
    up to [drain_wait] seconds (default 10) to finish, and a final
    snapshot is persisted. Blocks until shutdown. *)
val serve : ?backlog:int -> ?drain_wait:float -> t -> socket_path:string -> unit

(** [request ~socket_path line] — a one-connection client round trip:
    connect, send [line], read the response line. Used by
    [crsolve client] and the tests. *)
val request : socket_path:string -> string -> string

(** [request_many ~socket_path lines] pipelines several requests over one
    connection and returns the responses in order. *)
val request_many : socket_path:string -> string list -> string list

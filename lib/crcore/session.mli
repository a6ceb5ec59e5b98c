(** Long-lived resolution sessions: the state [crsolved] keeps hot.

    {!Engine} resolves an entity and forgets it; this layer retains the
    entity's encoding and incremental solver {e between} resolves, so a
    conflict stream delivering tuples for the same entity over time (the
    multi-master replication workload) re-resolves incrementally:

    - {!ingest} buffers arriving tuples and user-asserted currency
      orders; the next {!resolve}/{!baseline} applies the whole buffer as
      {e one} pure extension through {!Engine.ingest_session} (delta
      coalescing: k arrivals between two resolves cost one
      {!Encode.extend}, not k). Extensions with unchanged value universes
      feed only delta clauses to the live solver ({!Encode.extend}'s
      [Delta] path); a grown universe reloads the solver but reuses the
      Σ instance sweep ([Renumbered]);
    - {!resolve} re-runs the Fig. 4 loop on the live session with the
      per-request budgets re-armed ({!Engine.refresh_budget}) — the
      graceful-degradation ladder applies to every request, not only the
      first;
    - {!baseline} answers with a {!Pick} policy instead (the BDR-style
      [last_update_wins] / [accept_local] cheap paths) without touching
      the solver.

    {!Store} bounds the memory of many such sessions with an LRU capacity
    cap and a TTL for idle sessions.

    Every operation on a handle is serialised by a per-handle mutex, and
    the store by its own lock (never held while a handle operates), so
    daemon connection threads can share both. *)

type handle

(** [create ?config ?cache ?label spec] opens a session on the entity's
    initial specification — lint, encoding and the solver load happen
    here. [cache] is the shared encoding
    cache ({!Engine.create_cache}); sessions of a {!Store} share the
    store's. *)
val create :
  ?config:Engine.config -> ?cache:Engine.cache -> ?label:string -> Spec.t -> handle

val label : handle -> string

(** The accumulated specification: initial spec plus everything
    {!ingest}ed since. *)
val spec : handle -> Spec.t

(** [ingest h ?orders ?tuples ()] absorbs new arrivals: [tuples] append
    to the entity in arrival order, [orders] are user-asserted currency
    edges (indices into the accumulated entity). The buffer is applied to
    the engine session lazily, at the next {!resolve}/{!baseline}/{!spec}
    — so bursts of arrivals between resolve points coalesce into a single
    extension. A session whose accumulated spec the engine's lint had
    rejected is rebuilt from scratch on the extended spec at that point
    (re-checked — soundly, whatever the extension). Raises
    [Invalid_argument] on a closed handle; a spec validation error in the
    buffered extension surfaces at the applying call. *)
val ingest : handle -> ?orders:Spec.order_edge list -> ?tuples:Tuple.t list -> unit -> unit

(** [resolve ?user h] re-resolves the accumulated specification on the
    live session, budgets re-armed for this request. [user] defaults to
    never answering (fully automatic resolution, the daemon's mode).
    Automatic resolution is deterministic for a fixed config, so when
    nothing was {!ingest}ed since the previous automatic resolve the
    memoized result is served without touching the solver — repeated
    reads of a hot entity are O(1). Passing [?user] bypasses and does not
    populate the memo (an interactive user's answers may differ). *)
val resolve : ?user:Engine.user -> handle -> Engine.result * Engine.entity_stats

(** [baseline h strategy] resolves the accumulated entity with a {!Pick}
    policy — no solver, no inference; [Last_update_wins] / [Accept_local]
    are the BDR replication baselines. *)
val baseline : handle -> Pick.strategy -> Value.t array

(** The result of the most recent {!resolve}, if any. *)
val last_result : handle -> Engine.result option

(** Statistics accumulated over the session's whole life (every request).
    Reads the engine session as-is — buffered, not-yet-applied ingests are
    not reflected. *)
val stats : handle -> Engine.entity_stats

(** Number of {!resolve} calls served. *)
val resolves : handle -> int

(** [close h] marks the handle closed; further {!ingest}/{!resolve} raise.
    Idempotent. The encoding and solver become garbage once the caller
    drops the handle. *)
val close : handle -> unit

val is_closed : handle -> bool

(** {1 Bounded session tables} *)

module Store : sig
  (** A label-keyed table of live sessions with bounded memory: at most
      [max_sessions] live handles (least-recently-used evicted first, in
      O(1) amortised), and {!sweep} closes sessions idle longer than
      [ttl_s]. All operations are thread-safe. *)

  type t

  (** [create ?config ?cache ?max_sessions ?ttl_s ()]. Defaults:
      {!Engine.default_config}, a fresh shared template cache, 1024
      sessions, no TTL. [max_sessions] is clamped to at least 1. *)
  val create :
    ?config:Engine.config ->
    ?cache:Engine.cache ->
    ?max_sessions:int ->
    ?ttl_s:float ->
    unit ->
    t

  val config : t -> Engine.config

  (** [find t label] is the live session for [label], touching its LRU
      slot and idle clock. *)
  val find : t -> string -> handle option

  (** [get_or_create t label ~spec] returns the live session for [label],
      or opens one on [spec ()] (evicting the least-recently-used session
      first if the table is full). The boolean is [true] when a session
      was created. The spec thunk runs outside the store lock; on a race,
      first-in wins and the loser's session is dropped. *)
  val get_or_create : t -> string -> spec:(unit -> Spec.t) -> handle * bool

  (** [remove t label] closes and drops the session. [false] if absent. *)
  val remove : t -> string -> bool

  (** [sweep t] closes every session idle longer than the TTL; returns
      how many. No-op without a TTL. *)
  val sweep : t -> int

  (** Close and drop every session. *)
  val clear : t -> unit

  val live : t -> int

  (** Cumulative store statistics; solver/encode counters are summed over
      live {e and} already-evicted sessions. *)
  type stats = {
    live : int;
    created : int;
    reused : int;  (** [find]/[get_or_create] hits on a live session *)
    evicted_lru : int;
    evicted_ttl : int;
    removed : int;  (** explicit {!remove}/{!clear} closes *)
    resolves : int;
    delta_extensions : int;
    rebuilds_renumbered : int;
    rebuilds_impure : int;
    solvers_built : int;
    template_hits : int;
        (** encodings instantiated from an already-compiled template
            (see {!Encode.template}) *)
    template_misses : int;  (** lookups that compiled the template first *)
    sat : Sat.Solver.stats;
        (** solver counters summed the same way — conflicts and
            propagations, plus the clause-database management counters
            (learnt clauses kept/deleted, average LBD, binary-layer size) *)
  }

  val stats : t -> stats

  val pp_stats : Format.formatter -> stats -> unit
end

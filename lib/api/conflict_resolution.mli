(** The stable public surface of the conflict-resolution system.

    One [open]-able (or dot-accessible) module collecting everything an
    application needs to resolve conflicts by data currency and
    consistency (ICDE 2013): the relational building blocks, the
    specification type [Se = (It, Σ, Γ)] with its constraint parsers, the
    interactive framework of Fig. 4 and its batch {!Engine}, the
    traditional baselines — and, front and centre, the {b session-based
    API} the [crsolved] daemon is built on:

    {[
      open Conflict_resolution

      let config = Config.(default |> with_budget_conflicts (Some 10_000)) in
      let s = Session.create ~config spec in
      let result, _stats = Session.resolve s in
      (* ... tuples and asserted orders arrive later ... *)
      Session.ingest s ~tuples ();
      let result', _ = Session.resolve s in      (* incremental re-resolution *)
      Session.close s
    ]}

    A {!Session.handle} keeps the entity's CNF encoding and incremental
    solver alive between resolves, so a conflict stream delivering updates
    for the same entity re-resolves against delta clauses instead of
    re-encoding from scratch. {!Session.Store} bounds a table of many such
    sessions (LRU capacity cap + idle TTL).

    Internal libraries ([sat], [maxsat], [clique], [porder], the module
    internals of [crcore]) are deliberately not re-exported: they may
    change freely between versions, while the surface below is the
    compatibility contract. *)

(** {1 Relational building blocks} *)

(** Attribute values: integers, strings, nulls. *)
module Value = Value

(** Relation schemas (attribute names and positions). *)
module Schema = Schema

(** Tuples over a schema. *)
module Tuple = Tuple

(** Entity instances: the tuples referring to one real-world entity. *)
module Entity = Entity

(** CSV reading/writing, including [load_entity]. *)
module Csv = Csv

(** {1 Specifications and their parsers} *)

(** Entity specifications [Se = (It, Σ, Γ)]; build with {!Spec.make_res}
    (typed errors) or {!Spec.make} (raising). *)
module Spec = Crcore.Spec

(** Currency-constraint ASTs (the Σ of a specification). *)
module Constraint_ast = Currency.Constraint_ast

(** Parser for the textual currency-constraint syntax, e.g.
    [t1\[status\] = "working" & t2\[status\] = "retired" -> prec(status)]. *)
module Constraint_parser = Currency.Parser

(** Constant conditional functional dependencies (the Γ of a
    specification), with [parse] / [parse_many] for the
    [AC = 212 -> city = "NY"] syntax. *)
module Constant_cfd = Cfd.Constant_cfd

(** {1 Reasoning} *)

(** The CNF encoding Ω(Se)/Φ(Se); chiefly useful for {!Encode.mode}
    ([Paper] vs the total-order [Exact]) accepted across the API. *)
module Encode = Crcore.Encode

(** Validity of a specification (does a valid completion exist?). *)
module Validity = Crcore.Validity

(** True-value deduction (certain facts in every valid completion). *)
module Deduce = Crcore.Deduce

(** Derivation rules and the [Suggest] pipeline. *)
module Rules = Crcore.Rules

(** {1 Resolution} *)

(** The interactive loop of Fig. 4, one entity per call: fresh encoding
    and solvers every phase, no code shared with {!Engine}. The reference
    the engine's answers are tested against. *)
module Framework = Crcore.Framework

(** Batch resolution: incremental solver sessions, a sharded shape-template
    cache, and structured statistics over collections of specifications.
    Set [config.jobs > 1] to resolve entities on that many domains in
    parallel — results are identical to the sequential run and arrive in
    input order. *)
module Engine = Crcore.Engine

(** Whole-relation repair: partition by key, resolve each entity. *)
module Repair = Crcore.Repair

(** Deterministic fault injection at the engine's phase boundaries —
    for testing batch robustness (per-entity isolation, the budget
    degradation ladder) against simulated crashes and hangs. *)
module Faults = Crcore.Faults

(** {1 Baselines and evaluation} *)

(** The traditional heuristic conflict-resolution baselines, including the
    BDR-style replication policies [Last_update_wins] / [Accept_local]. *)
module Pick = Crcore.Pick

(** Accuracy metrics (precision/recall against ground truth). *)
module Metrics = Crcore.Metrics

(** The encoding mode, re-exported for convenience: [Paper] is the
    heuristic reduction of Lemma 5, [Exact] encodes total orders (one
    variable per value pair, [v ≺ u] as the negation of [u ≺ v]). *)
type mode = Crcore.Encode.mode = Paper | Exact

(** {1 Configuration} *)

(** One builder-style configuration for the whole API, replacing the
    separately-threaded engine, budget and lint knobs of earlier
    revisions:

    {[
      Config.(
        default
        |> with_jobs 4
        |> with_budget_conflicts (Some 20_000)
        |> with_max_degrade Engine.PartialDeduce
        |> with_session_ttl (Some 300.))
    ]}

    Every [with_] function returns a new value; {!Config.to_engine}
    projects the engine's record wherever the lower-level API is used
    directly. *)
module Config : sig
  type t

  (** {!Engine.default_config} + a 1024-session store cap, no TTL. *)
  val default : t

  val with_mode : Encode.mode -> t -> t
  val with_max_rounds : int -> t -> t
  val with_jobs : int -> t -> t
  val with_clamp_jobs : bool -> t -> t
  val with_budget_conflicts : int option -> t -> t
  val with_budget_ms : float option -> t -> t
  val with_max_degrade : Engine.degrade_level -> t -> t

  (** The {!Pick} policy of the [PickFallback] rung {e and}
      {!Session.baseline}'s default flavour in the daemon protocol. *)
  val with_pick : Pick.strategy -> t -> t

  val with_fail_fast : bool -> t -> t

  (** {!Session.Store} capacity cap (LRU beyond it); clamped to ≥ 1. *)
  val with_session_cap : int -> t -> t

  (** {!Session.Store} idle TTL in seconds ([None] = keep forever). *)
  val with_session_ttl : float option -> t -> t

  (** {2 Durability and overload protection (the [crsolved] daemon)} *)

  (** Directory for the write-ahead log and snapshots. [None] (the
      default) disables durability entirely — no WAL, no recovery. *)
  val with_wal_dir : string option -> t -> t

  (** WAL fsync policy (see {!Durable.Wal.fsync}); default
      [Interval 0.05]. *)
  val with_fsync : Durable.Wal.fsync -> t -> t

  (** Take a snapshot (and compact the WAL) every N applied mutating
      events; [0] disables periodic snapshots (one is still taken on
      graceful drain). Default 10000. *)
  val with_snapshot_every : int -> t -> t

  (** Admission control: at most N requests executing concurrently —
      beyond it the daemon answers [OVERLOADED] instead of queueing
      ([PING]/[HEALTH]/[READY] are exempt). [0] (default) = unbounded. *)
  val with_max_inflight : int -> t -> t

  (** Per-request deadline in seconds, enforced through the engine's
      re-armed per-resolve [budget_ms] (a soft bound on solver time). *)
  val with_request_deadline : float option -> t -> t

  (** Close daemon connections idle longer than this many seconds.
      [None] (default) keeps them forever. *)
  val with_idle_timeout : float option -> t -> t

  (** The engine projection; folds the request deadline into
      [budget_ms]. *)
  val to_engine : t -> Engine.config

  val max_sessions : t -> int
  val session_ttl : t -> float option
  val wal_dir : t -> string option
  val fsync : t -> Durable.Wal.fsync
  val snapshot_every : t -> int
  val max_inflight : t -> int
  val request_deadline : t -> float option
  val idle_timeout : t -> float option
end

(** {1 Sessions}

    The resolution-as-a-service surface: a handle per entity whose
    encoding and incremental solver survive between resolves. *)

module Session : sig
  type handle = Crcore.Session.handle

  (** [create ?config ?cache ?label spec] opens a session on the entity's
      initial specification — lint, encoding and (unless a cheap check
      rejected the spec) the solver load happen here. *)
  val create : ?config:Config.t -> ?cache:Engine.cache -> ?label:string -> Spec.t -> handle

  val label : handle -> string

  (** The accumulated specification: initial spec plus everything
      {!ingest}ed since. *)
  val spec : handle -> Spec.t

  (** [ingest h ?orders ?tuples ()] absorbs new arrivals: [tuples] append
      to the entity in arrival order, [orders] are user-asserted currency
      edges over the accumulated entity. Pure extensions reach the live
      solver as delta clauses ({!Encode.extend}); a grown value universe
      reloads the solver but reuses the Σ instance sweep. Raises
      [Invalid_argument] on a closed handle. *)
  val ingest :
    handle -> ?orders:Spec.order_edge list -> ?tuples:Tuple.t list -> unit -> unit

  (** [resolve ?user h] (re-)resolves the accumulated specification on the
      live session — same result, degradation level and [degrade_reason]
      metadata as {!Engine.resolve} — with the configured budgets re-armed
      for this request. [user] defaults to {!Framework.silent}. *)
  val resolve : ?user:Engine.user -> handle -> Engine.result * Engine.entity_stats

  (** [baseline h strategy] answers with a {!Pick} policy on the
      accumulated entity — no solver, no inference. *)
  val baseline : handle -> Pick.strategy -> Value.t array

  val last_result : handle -> Engine.result option
  val stats : handle -> Engine.entity_stats
  val resolves : handle -> int

  (** Idempotent; further {!ingest}/{!resolve} raise [Invalid_argument]. *)
  val close : handle -> unit

  val is_closed : handle -> bool

  (** A bounded, thread-safe table of live sessions keyed by label: at
      most {!Config.max_sessions} live handles (least-recently-used
      evicted first) and {!sweep} closes sessions idle past the TTL. The
      store's sessions share one template cache. *)
  module Store : sig
    type t = Crcore.Session.Store.t

    val create : ?config:Config.t -> ?cache:Engine.cache -> unit -> t
    val config : t -> Engine.config

    (** [find t label] is the live session for [label], touching its LRU
        slot and idle clock. *)
    val find : t -> string -> handle option

    (** [get_or_create t label ~spec] returns the live session for
        [label] or opens one on [spec ()]; the boolean is [true] when a
        session was created. *)
    val get_or_create : t -> string -> spec:(unit -> Spec.t) -> handle * bool

    val remove : t -> string -> bool

    (** Close every session idle longer than the TTL; returns how many. *)
    val sweep : t -> int

    val clear : t -> unit
    val live : t -> int

    type stats = Crcore.Session.Store.stats = {
      live : int;
      created : int;
      reused : int;
      evicted_lru : int;
      evicted_ttl : int;
      removed : int;
      resolves : int;
      delta_extensions : int;
      rebuilds_renumbered : int;
      rebuilds_impure : int;
      solvers_built : int;
      template_hits : int;
      template_misses : int;
      sat : Sat.Solver.stats;
    }

    val stats : t -> stats
    val pp_stats : Format.formatter -> stats -> unit
  end
end

(** Batch conflict resolution: the Fig. 4 loop of the paper run at scale.

    {!Framework.resolve} is the paper's loop in its plainest form: one
    entity per call, a fresh encoding and fresh solvers for every phase
    and round. This module gives the same answers — property-tested
    against it — while sharing the work when resolving whole relations or
    the same entity across interaction rounds. It has one path:

    - {b one incremental solver session per entity}: the validity check
      ([IsValid]), true-value deduction, the backbone and the
      clique-consistency check inside [Suggest] all run on a single
      {!Sat.Solver} session holding Φ(Se), solving under assumption
      literals instead of re-instantiating the CNF per phase — learnt
      clauses carry across phases and rounds;
    - {b true values without the backbone}: each round's true values come
      from {!Deduce.decide_true_values}, which proves or refutes the one
      candidate per attribute that the validity model names, mostly off
      the level-0 trail and with one guided solve for the rest. The full
      backbone ({!Deduce.backbone}), which [Suggest] derives its rules
      from, runs only when a suggestion is built: for a user that is not
      {!Framework.silent}, in a round that does not end the loop. The
      answers are those of {!Framework.resolve}, which still reads them
      off the backbone. Under a conflict budget the solves differ from
      the backbone's, so a run lands where its own solves run out: an
      interrupted true-value query reports the values proven so far at
      [PartialDeduce] with reason [conflicts@deduce], and so does an
      interrupted backbone before a suggestion, with that round's
      complete values;
    - {b encoding reuse across [Se ⊕ Ot] steps}: user-input extensions are
      re-encoded with {!Encode.extend}, which keeps the order axioms
      (the cubic part of [ConvertToCNF]: Paper's structural clauses,
      Exact's tournament blocks) and feeds only the delta
      clauses to the live solver whenever the value universes are
      unchanged;
    - {b a shape-template cache}: entities sharing a shape (mode, Σ, Γ,
      schema) compile it once and each entity is stamped into the compiled
      template ({!Encode.template} / {!Encode.instantiate}); the cache
      holds templates only, so it grows with the number of shapes, not
      with the number of entities resolved;
    - {b rejection before solving}: provably unsatisfiable specs are
      reported invalid without a solve ({!Analyze.cheap_errors} before
      encoding; after loading, a solver that unit propagation already
      refuted at level 0, which is then dropped);
    - {b one row pass per encoding}: the entity's distinct rows
      ({!Entity.distinct_rows}) are hashed once per encode and serve both
      the rejection test and the lowering, so a history that repeats its
      records is scanned once per distinct record;
    - {b no suggestion for a silent user}: a [user] that is
      {!Framework.silent} (physically) would answer every suggestion
      with [[]], so the loop ends where that answer would end it, before
      [Suggest] runs. The answer is the one the suggestion would have
      led to, but the MaxSAT layer never touches the session solver:
      [conflicts_spent], the solver's learnt-clause counts and
      [suggest_ms] exclude it, the [Maxsat] fault point is not reached,
      and a budgeted run whose budget would have run out at or inside
      the suggestion ends [Exact] instead of [PartialDeduce];
    - {b structured observability}: per-entity and aggregate phase timings,
      solver conflict/decision/propagation counters, template hit rates
      and incremental-path counters in {!entity_stats} / {!stats}. *)

(** What the user (or an oracle) answers to a suggestion. An empty answer
    stops the entity's loop. *)
type user = Framework.user

(** {1 Budgets and graceful degradation}

    Every entity can carry a resource budget; when it runs out, the engine
    does not fail or block — it walks down a degradation ladder and still
    returns an answer, labelled with the level that produced it:

    {ol
    {- {!Exact}: the full pipeline ran to completion (the default when no
       budget interferes).}
    {- {!PartialDeduce}: validity was established, but completion was cut
       short — the answer contains only values proven before the
       interruption (on the level-0 trail or by an [Unsat] query, a sound
       subset of the full deduction — property-tested).}
    {- {!PickFallback}: not even validity could be established in budget;
       the answer is the paper's [Pick] baseline (deterministic currency
       order heuristic), honest about its confidence level.}} *)

(** The rung of the ladder that produced a {!result}; ordered
    [Exact < PartialDeduce < PickFallback]. *)
type degrade_level = Exact | PartialDeduce | PickFallback

val level_rank : degrade_level -> int

val level_to_string : degrade_level -> string
(** ["exact"], ["partial"], ["pick"] — the CLI's [--max-degrade] words. *)

(** Engine phases, used to attribute budget exhaustion and captured
    exceptions. *)
type phase = Lint_p | Encode_p | Validity_p | Deduce_p | Suggest_p

val phase_to_string : phase -> string

(** Which budget ran out. [Conflicts] is the deterministic one (CDCL
    conflict count, schedule-independent); [Wall] is the soft [budget_ms]
    deadline, checked only at phase and round boundaries. *)
type budget_kind = Conflicts | Wall

type degrade_reason = { cause : budget_kind; phase : phase }

val reason_to_string : degrade_reason -> string
(** e.g. ["conflicts@validity"]. *)

type config = {
  mode : Encode.mode;
  max_rounds : int;  (** interaction rounds per entity before stopping *)
  jobs : int;
      (** domains {!run_batch} resolves entities on (clamped to at least
          1). Results and aggregate counters are identical to [jobs = 1] —
          property-tested — and [on_result] still streams in input order;
          only the schedule changes. The exceptions are measurements and
          the cache's race: phase [times], [encode_alloc_words] and
          [wall_ms], and [template_hits]/[template_misses], which depend
          on which domain compiles a shape first. Item [user] callbacks
          must be safe to call from another domain. Sessions created
          directly are unaffected. *)
  clamp_jobs : bool;
      (** cap the effective batch width at
          [Parallel.Pool.recommended_jobs ()] (the machine's core count):
          over-subscribing domains is a pure slowdown. [stats.jobs] is
          the effective width, [stats.jobs_requested] the request. Off,
          the request is honoured literally (scheduling tests,
          deliberate over-subscription). *)
  budget_conflicts : int option;
      (** per-entity CDCL conflict budget, counted across every solver the
          entity uses (the unit of account survives solver rebuilds).
          Deterministic: the same spec and budget degrade identically at
          any [jobs]. [None] (default) = unlimited. *)
  budget_ms : float option;
      (** per-entity soft wall-clock budget in milliseconds, measured from
          session creation and checked at phase and round boundaries only
          — a phase in flight is never interrupted, and the outcome is
          schedule-dependent by nature. Prefer [budget_conflicts] when
          reproducibility matters. [None] (default) = unlimited. *)
  max_degrade : degrade_level;
      (** lowest ladder rung the engine may land on. [PickFallback]
          (default) allows the full ladder; [PartialDeduce] forbids the
          Pick guess; [Exact] forbids degradation entirely — an exhausted
          budget then yields a conservative unresolved answer whose
          [degrade_reason] records why. *)
  pick_strategy : Pick.strategy;
      (** the baseline the {!PickFallback} rung runs — the paper's
          [Favoured] by default; [Last_update_wins]/[Accept_local] give
          the BDR-style replication policies instead. *)
  fail_fast : bool;
      (** [run_batch] only: [true] restores the pre-isolation contract —
          the first entity exception propagates out of the batch instead
          of being captured as an [Error] outcome. Default [false]. *)
}

(** [mode = Paper], [max_rounds = 5], [jobs = 1], [clamp_jobs = true]. Budgets off ([budget_conflicts = None],
    [budget_ms = None]), full ladder allowed
    ([max_degrade = PickFallback]), [fail_fast = false]. *)
val default_config : config

(** Cumulative wall-clock time per phase, milliseconds (wall, not process
    CPU: under a parallel batch, process CPU time charges one domain's
    work with every domain's cycles). Encoding
    ([Instantiation] + [ConvertToCNF], including {!Encode.extend} deltas)
    is split out of the paper's validity phase so cache and delta effects
    are visible; add [encode_ms] to [validity_ms] to recover the paper's
    [IsValid] accounting.

    A phase's time includes the garbage-collector work it sets off: a
    minor collection (and the major slice it carries) runs inside
    whichever phase's allocation fills the minor heap, so a phase can
    read slow for another phase's allocation. Before encode stopped
    allocating per instance, a long-history entity allocated 162k minor
    words and took most of a minor collection each, and the solver's
    [ensure_nvars] (1,030 words) read 0.27–0.37 ms of the validity phase
    with the default minor heap but 0.05 ms with a 4M-word one. *)
type phase_times = {
  mutable lint_ms : float;
      (** the cheap rejection checks and, before them, the entity's row
          pass ({!Entity.distinct_rows}, whose rows the encoding reuses):
          on a long history of few distinct records the row pass is
          almost all of it *)
  mutable encode_ms : float;
  mutable saturate_ms : float;
      (** always 0: the engine has no saturate phase. Kept for the
          benchmark replay; deleted by the next [benchmark] PR. *)
  mutable validity_ms : float;
  mutable deduce_ms : float;
      (** true-value deduction, plus the backbone each suggestion is
          derived from *)
  mutable suggest_ms : float;
}

type entity_stats = {
  times : phase_times;
  solver : Sat.Solver.stats;  (** summed over every solver the entity used *)
  solvers_built : int;
      (** CNF loads: 1 = a single session survived and served every
          phase, 0 = a cheap check rejected the spec before encoding. A
          solver that loading refuted at level 0 is counted, then
          dropped ([lint_rejected]) *)
  solvers_reused : int;
      (** solver phases (validity checks, true-value deductions,
          suggestions, each with the backbone it is derived from) served
          by the live session instead of a fresh CNF load *)
  true_value_solves : int;
      (** solver calls {!Deduce.decide_true_values} issued: the guided
          refutation solve and the selector queries. 0 when every true
          value was decided on the level-0 trail or no attribute had a
          candidate *)
  deduce_sat_calls : int;
      (** solver calls {!Deduce.backbone} issued; it runs only before a
          suggestion is built *)
  deduce_probes : int;  (** the backbone's single-literal refutation probes *)
  deduce_model_prunes : int;
      (** candidates {!Deduce.backbone} eliminated by model intersection *)
  deduce_seeded : int;
      (** backbone facts adopted without a probe: the solver's level-0
          facts *)
  probes_avoided : int;
      (** always 0: the engine hands deduction no static closure. Kept for
          the benchmark replay; deleted by the next [benchmark] PR. *)
  template_hits : int;
      (** encodings instantiated from an already-compiled shape template
          (keyed on mode + interned Σ/Γ ids + schema) *)
  template_misses : int;  (** lookups that had to compile the shape *)
  encode_alloc_words : float;
      (** minor-heap words the encode phase allocated on this entity's
          domain — the per-domain allocation signal of a parallel batch *)
  encode_tuples : int;
      (** tuples of every encoding built or extended, summed: an
          encoding lowers its entity's distinct rows, not its tuples *)
  encode_rows : int;
      (** distinct rows ({!Entity.distinct_rows}) of those encodings:
          what the lowering and the Σ projection scans walked. Below
          [encode_tuples] by the repeated records *)
  delta_extensions : int;  (** [Se ⊕ Ot] rounds served by {!Encode.extend} *)
  rebuilds : int;  (** rounds the solver session could not survive:
                       [rebuilds_renumbered + rebuilds_impure] *)
  rebuilds_renumbered : int;
      (** {!Encode.extend} reused the Σ instances but a value universe
          grew, shifting variable numbers: the solver reloaded *)
  rebuilds_impure : int;
      (** the extension was not pure (Σ/Γ changed, tuples not appended):
          full re-encode from scratch *)
  lint_rejected : bool;
      (** the spec was proven unsatisfiable before any solve and no
          solver was kept: a cheap check before encoding, or a level-0
          refutation found while loading the CNF *)
}

(** [add_stats a b] sums two records field by field: every counter and
    phase time adds, the solver gauges [learnts] and [binaries] included
    (the databases of distinct solvers add up), and [lint_rejected] is
    [a.lint_rejected || b.lint_rejected]. The only code that sums
    counters: a batch's {!stats.totals} and the session store's totals are
    folds of it. *)
val add_stats : entity_stats -> entity_stats -> entity_stats

(** All zero, [lint_rejected = false]: the unit of {!add_stats}. *)
val zero_entity_stats : unit -> entity_stats

(** Per-entity result; same content as {!Framework.outcome} minus timings
    (those live in {!entity_stats}), plus the degradation record. *)
type result = {
  resolved : Value.t option array;
  valid : bool;
  rounds : int;
  per_round_known : int list;
  level : degrade_level;
      (** the ladder rung that produced [resolved]; [Exact] whenever no
          budget interfered *)
  degrade_reason : degrade_reason option;
      (** [Some _] iff a budget ran out — even at [level = Exact] under
          [max_degrade = Exact], distinguishing a budget-truncated
          conservative answer from a proven one *)
  conflicts_spent : int;
      (** CDCL conflicts this entity consumed, across all its solvers and
          any injected burn — comparable against [budget_conflicts] *)
}

(** A captured per-entity failure (see {!run_batch}): the exception
    rendered with [Printexc.to_string], its backtrace, and the engine
    phase that was executing. The string forms keep {!item_result}
    comparable across runs (backtraces aside) and printable without
    re-raising. *)
type error_info = { exn : string; backtrace : string; phase : phase }

(** A shared shape-template cache, safe to reuse across sessions and
    batches — including parallel ones: one table behind one mutex, held
    only for a lookup or an insert; compilation on a miss runs outside
    it. It holds one compiled template per shape and no per-entity
    encoding. *)
type cache

val create_cache : unit -> cache

(** {1 Sessions — one entity, explicit lifecycle} *)

type session

(** [create_session ?config ?cache ?label spec] lints and encodes [spec]
    and, unless a cheap check rejected it, loads the solver session; a
    solver the load refutes at level 0 is dropped and the session is
    rejected. [cache] defaults to a
    private one. [label] identifies the entity to the {!Faults} injection
    plan (and is set automatically by {!run_batch}); it has no effect
    otherwise. The wall budget, when configured, starts here. *)
val create_session : ?config:config -> ?cache:cache -> ?label:string -> Spec.t -> session

(** [resolve_session s ~user] runs the full interactive loop of Fig. 4 on
    the session, degrading per the config's budgets rather than running
    unbounded. *)
val resolve_session : session -> user:user -> result * entity_stats

(** [resolve ?config ?cache ?label ~user spec] is a one-shot
    [create_session] + [resolve_session]. Exceptions propagate — fault
    isolation is a batch concern. *)
val resolve :
  ?config:config -> ?cache:cache -> ?label:string -> user:user -> Spec.t ->
  result * entity_stats

(** {1 Streaming hooks}

    {!Crcore.Session} (and the [crsolved] daemon above it) keeps sessions
    alive {e between} resolves: new tuples or asserted orders arrive for
    an already-resolved entity, the live encoding and solver absorb them
    through {!Encode.extend}, and {!resolve_session} runs again —
    re-resolution without re-encoding whenever the extension is pure and
    the value universes are unchanged. *)

(** The session's current (accumulated) specification. *)
val session_spec : session -> Spec.t

(** [true] when the current spec was rejected (a cheap check or a
    level-0 refutation on load): the session holds no solver, and
    {!ingest_session} re-runs the rejection test on the extended spec. *)
val session_rejected : session -> bool

(** A snapshot of the session's statistics so far; the same record
    {!resolve_session} returns, readable between resolves. A snapshot is
    a copy: later work on the session does not change it. *)
val session_stats : session -> entity_stats

(** [refresh_budget s] re-arms the per-request budgets on a long-lived
    session: the wall deadline restarts from now, and conflicts accrued by
    earlier requests no longer count against [budget_conflicts] (each
    request gets the full configured budget; [result.conflicts_spent] is
    per-request). Call before each {!resolve_session} on a reused
    session. *)
val refresh_budget : session -> unit

(** [ingest_session s ?orders ?tuples ()] extends the session's
    specification in place — the streaming [Se ⊕ arrivals] step: [tuples]
    are appended to the entity (arrival order preserved), [orders] are
    prepended to the currency orders. Pure extensions ride
    {!Encode.extend}: unchanged value universes feed only delta clauses
    to the live solver ([delta_extensions]); a grown universe reloads the
    solver but reuses the Σ instance sweep ([rebuilds_renumbered]). A
    rejected session (see {!session_rejected}) has no solver to extend:
    it is rebuilt in place on the extended spec — rejection test,
    encoding and solver load, as {!create_session} runs them — and counted
    as one [rebuilds_impure]. The extension may cure it; its statistics,
    fault-injection context and budget state carry across. Propagates
    {!Spec.extend} validation errors. *)
val ingest_session :
  session -> ?orders:Spec.order_edge list -> ?tuples:Tuple.t list -> unit -> unit

(** {1 Batches} *)

type item = { label : string; spec : Spec.t; user : user }

(** [outcome] is [Error info] when the entity raised and the batch ran
    with [fail_fast = false]: the batch completed anyway, and [stats]
    holds whatever the entity accumulated before dying. *)
type item_result = {
  label : string;
  outcome : (result, error_info) Stdlib.result;
  stats : entity_stats;
}

(** Aggregate batch statistics. Phase times ([totals.times]) are wall
    milliseconds summed over entities — under a parallel batch they
    exceed [wall_ms] (the batch's elapsed time, orchestration included),
    because [jobs] domains accumulate them concurrently; [wall_ms] is the
    honest end-to-end figure, the phase sums show where the work went. *)
type stats = {
  entities : int;
  valid_entities : int;
  errors : int;  (** entities whose outcome is [Error] (captured raises) *)
  degraded_partial : int;  (** entities that landed on {!PartialDeduce} *)
  degraded_pick : int;  (** entities that landed on {!PickFallback} *)
  budget_exhausted : int;
      (** entities with a [degrade_reason] — includes budget-truncated
          answers pinned at [Exact] by [max_degrade] *)
  total_rounds : int;
  attrs_total : int;
  attrs_resolved : int;
  totals : entity_stats;
      (** every item's {!entity_stats}, summed with {!add_stats} *)
  template_hit_ratio : float;
      (** template hits / template lookups in [totals], 0 with no
          lookups. A batch of [n] distinct same-shape entities scores
          [(n-1)/n] *)
  lint_rejected : int;  (** entities rejected as unsat before solving *)
  jobs : int;  (** domains the batch ran on (after any clamping) *)
  jobs_requested : int;  (** [config.jobs] as given *)
  wall_ms : float;
}

(** [throughput stats] is resolved entities per second of wall time. *)
val throughput : stats -> float

val pp_stats : Format.formatter -> stats -> unit

(** [run_batch ?config ?cache ?on_result items] resolves every item with a
    shared template cache and returns all results plus the aggregate, on
    [config.jobs] domains. Results are in input order and identical to a
    sequential run whatever [jobs] is; [on_result] receives each finished
    {!item_result} in input order too (under parallelism, as the finished
    prefix grows). Structurally equal Σ/Γ lists are interned across items
    first, so compiled constraint forms and cache-key comparisons are
    shared batch-wide.

    {b Fault isolation}: an exception raised while resolving one entity
    (a crashing [user] callback, a spec that trips an internal invariant,
    an injected {!Faults} fault) is captured as that entity's [Error]
    outcome — with backtrace and the phase it escaped from — and every
    other entity still completes. Set [config.fail_fast] to propagate the
    first failure instead (its original backtrace intact). *)
val run_batch :
  ?config:config ->
  ?cache:cache ->
  ?on_result:(item_result -> unit) ->
  item list ->
  item_result list * stats

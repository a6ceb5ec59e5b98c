(** A CDCL SAT solver in the MiniSat lineage.

    Features: two-watched-literal propagation with a dedicated binary-clause
    implication layer, first-UIP conflict analysis with clause learning,
    LBD ("glue") scoring with periodic learnt-database reduction, VSIDS
    variable activities with an indexed heap, phase saving, Luby-sequence
    restarts and incremental solving under assumptions. Like MiniSat used
    as a black box, it searches the clause database as loaded: there is no
    pre/inprocessing pass.

    This is the substrate standing in for MiniSat in the paper's [IsValid],
    [NaiveDeduce] and suggestion-repair steps. Clauses may be added between
    [solve] calls; the solver keeps learnt clauses across calls. *)

type t

type result = Sat | Unsat

(** [create ()] is a fresh solver with no variables. *)
val create : unit -> t

(** [new_var s] allocates a fresh variable and returns its index. *)
val new_var : t -> int

(** [ensure_nvars s n] allocates variables until [nvars s >= n]. *)
val ensure_nvars : t -> int -> unit

val nvars : t -> int

(** [add_clause s lits] adds a clause. Literals over unallocated variables
    raise [Invalid_argument]. Adding the empty clause (or a clause
    falsified at level 0) makes the solver permanently unsatisfiable.
    Two-literal clauses go to the binary implication layer, not the
    general watch lists. *)
val add_clause : t -> Lit.t list -> unit

(** [add_clause_a s c] is [add_clause] on an array. [c] is only read,
    never modified: callers share clause arrays (template blocks). *)
val add_clause_a : t -> Lit.t array -> unit

(** [add_cnf s f] allocates variables for [f] and adds all its clauses. *)
val add_cnf : t -> Cnf.t -> unit

(** [add_units s lits] adds each literal as a unit clause. Only tests and
    the benchmark replay call it; kept for the benchmark replay, deleted
    by the next [benchmark] PR. Units are enqueued and propagated at level 0
    immediately, so a literal the clause set already implies is a no-op
    on the solver state, and clauses added afterwards drop the literals
    the units falsify. *)
val add_units : t -> Lit.t list -> unit

(** [freeze_all s] does nothing: the solver removes no variable, so none
    has to be frozen. Kept only so existing callers still build. *)
val freeze_all : t -> unit

(** [simplify s] does nothing: the solver has no pre/inprocessing pass.
    Kept only so existing callers still build. *)
val simplify : t -> unit

(** [set_reduce_interval s n] sets the number of conflicts before the next
    database reduction to [n] (default 2000); each reduction then grows the
    interval geometrically. Exposed for tests and benchmarks that need to
    force reductions on small instances. *)
val set_reduce_interval : t -> int -> unit

(** [solve ?assumptions s] decides satisfiability of the clause set under
    the given assumption literals (default none). Budgets set with
    {!set_budget} are ignored: [solve] always runs to completion (use
    {!solve_limited} for interruptible solving). *)
val solve : ?assumptions:Lit.t list -> t -> result

(** Three-valued answer of a budget-respecting solve. *)
module Limited : sig
  type t = Sat | Unsat | Unknown
end

(** [set_budget ?conflicts ?propagations s] arms resource budgets relative
    to the solver's current counters (MiniSat's [setConfBudget] /
    [setPropBudget]): the next {!solve_limited} calls may spend at most
    that many further conflicts / propagated literals before answering
    [Unknown]. Omitted budgets are left unchanged; a budget of [0] makes
    the next [solve_limited] return [Unknown] immediately unless the
    clause set is already known unsatisfiable. Budgets persist across
    calls until re-armed or cleared with {!clear_budget}, and they survive
    learnt-database reductions unchanged. *)
val set_budget : ?conflicts:int -> ?propagations:int -> t -> unit

(** [clear_budget s] removes all budgets. *)
val clear_budget : t -> unit

(** [budget_exhausted s] is [true] when an armed budget has been spent —
    i.e. the next [solve_limited] would answer [Unknown] without working. *)
val budget_exhausted : t -> bool

(** [solve_limited ?assumptions s] is {!solve}, except that the CDCL search
    loop checks the armed budgets at every conflict and decision point and
    answers [Limited.Unknown] deterministically when one is spent (no
    wall-clock signals involved, so results are reproducible across
    schedules and domains). On [Unknown] the trail is cancelled back to
    level 0 and the solver stays fully usable: clauses learnt before the
    interrupt are kept (modulo database reduction, which only discards
    non-reason clauses), and a later call with a larger budget can finish
    the job. The saved model is invalidated on every call and only valid
    again after [Limited.Sat]. *)
val solve_limited : ?assumptions:Lit.t list -> t -> Limited.t

(** [model_value s v] is the truth of variable [v] in the model found by the
    last successful [solve]. Raises [Invalid_argument] if the last call
    did not return [Sat]. *)
val model_value : t -> int -> bool

(** [model s] is the full model as an array indexed by variable. *)
val model : t -> bool array

(** [has_model s] is [true] when the last [solve] returned [Sat] and its
    model is still available — models found under assumptions count, since
    they satisfy the whole clause set. Lets a caller reuse the model of a
    preceding phase (e.g. a validity check on a shared incremental session)
    instead of re-solving. *)
val has_model : t -> bool

(** [value_level0 s v] is [Some b] when [v] is fixed to [b] by unit
    propagation at decision level 0, [None] otherwise. *)
val value_level0 : t -> int -> bool option

(** [set_phase s l] sets the saved polarity of [l]'s variable so that the
    next decision on it tries [l] true. Only the search order changes:
    answers are the same under any phases, and a later solve overwrites
    them through phase saving. Raises [Invalid_argument] on an
    unallocated variable. *)
val set_phase : t -> Lit.t -> unit

(** [ok s] is [false] once the clause set is known unsatisfiable without
    assumptions. *)
val ok : t -> bool

(** [export_cnf s] is the loaded clause database as a [Cnf.t]: the level-0
    facts as unit clauses, the binary implication layer, and the original
    long clauses (learnt clauses are implied and skipped). On an unsat
    solver it is a formula holding just the empty clause. The result has
    exactly the models of everything ever added, over all variables. *)
val export_cnf : t -> Cnf.t

(** Cumulative statistics since [create], in one snapshot. Mixed gauges and
    counters: [learnts] (current learnt-clause count), [learnts_kept]
    (survivors of the most recent reduction) and [binaries] (live pairs in
    the binary layer) are gauges; everything else accumulates. [learned]
    counts clauses ever learnt and [lbd_sum] their learn-time LBDs, so
    {!lbd_avg} is exact under [add_stats]/[diff_stats]. [subsumed],
    [vars_substituted] and [simplify_ms] are always 0: they counted the
    deleted pre/inprocessing pass and stay only so existing readers still
    build. [Crcore.Engine] aggregates these per entity and per batch. *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnts : int;
  learned : int;
  lbd_sum : float;
  learnts_kept : int;
  learnts_deleted : int;
  binaries : int;
  subsumed : int;
  vars_substituted : int;
  simplify_ms : float;
}

val stats : t -> stats

val zero_stats : stats

(** [lbd_avg st] is the average learn-time LBD over all clauses learnt in
    the snapshot's window ([0.] when none were). *)
val lbd_avg : stats -> float

(** [add_stats a b] / [diff_stats a b] combine snapshots field-wise
    (the gauges [learnts], [learnts_kept] and [binaries] keep the later
    snapshot's value; all other fields add/subtract). *)
val add_stats : stats -> stats -> stats

val diff_stats : stats -> stats -> stats

val pp_stats : Format.formatter -> stats -> unit

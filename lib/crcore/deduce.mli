(** Deducing implied currency orders and true values (Section V-B).

    Facts are literals ({!Encode.fact_of_lit}): in [Paper] mode the
    positive literal of each ordered pair's variable, in [Exact] mode
    either polarity of each unordered pair's variable.

    [DeduceOrder] runs unit propagation over Φ(Se): every one-literal
    clause it derives is added to the partial temporal order [Od]
    (a negative [Paper]-mode literal contributes the reversed pair, sound
    under the total-order completion semantics). [NaiveDeduce] instead
    asks the SAT solver, for every fact literal [l], whether Φ(Se) ∧ ¬l
    is unsatisfiable — the exact but expensive variant the paper compares
    against. [backbone] computes the same complete answer as
    [NaiveDeduce] from the backbone of Φ(Se), pruning candidates with the
    models of failed refutations so most literals never need their own
    solver call.

    Each deducer takes an optional incremental [solver] already holding
    Φ(Se) (the engine passes its per-entity session): the SAT-based
    deducers then probe under assumptions instead of loading the CNF into
    a fresh solver, and [backbone] additionally starts from the model the
    preceding validity check left on the session. *)

(** Solver-work accounting for one deduction call. *)
type stats = {
  sat_calls : int;  (** incremental [solve] calls issued *)
  probes : int;  (** single-literal assumption solves *)
  model_prunes : int;
      (** candidates eliminated by intersecting a probe's model, beyond
          the probed variable itself *)
  seeded : int;  (** facts adopted without a probe (the solver's level-0
                     facts or a caller-supplied static closure) *)
  probes_avoided : int;
      (** of [seeded], facts adopted from the [static] closure; 0 without
          [static] *)
  reused_solver : bool;  (** the caller's session solver served the calls *)
  built_solver : bool;  (** a private solver was created (one CNF load) *)
  complete : bool;
      (** [false] when a conflict budget interrupted the deduction: the
          reported facts are then a sound subset of the full answer
          (every adopted fact was proven before the interrupt) *)
}

type t = {
  enc : Encode.t;
  od : Porder.Strict_order.t array;
      (** per attribute position: the deduced order over value ids, kept
          transitively closed *)
  stats : stats;
}

(** [unit_conflict enc] is [true] when unit propagation alone refutes
    Φ(Se) — a polynomial-time proof that the specification is invalid,
    usable when a budget left full validity checking unfinished. *)
val unit_conflict : Encode.t -> bool

(** [deduce_order enc] is the paper's [DeduceOrder] (linear-time unit
    propagation). The specification must be valid. [solver], [budget] and
    [static] are accepted for interface uniformity and ignored — no SAT
    call is made, so the answer is always complete. *)
val deduce_order :
  ?solver:Sat.Solver.t -> ?budget:int -> ?static:int list -> Encode.t -> t

(** [deduce_units enc] is {!deduce_order} restricted to units that are
    fact literals: every adopted fact is in the backbone of Φ(Se), so
    the result is a sound subset of what {!backbone}/{!naive_deduce}
    deduce — the right deducer when a budget forces a degraded answer
    that must stay inside the exact engine's fact set. (The reversed
    reading of negative [Paper]-mode units, while sound under total-order
    completion semantics, can claim facts the backbone never contains.)
    The result
    carries [stats.complete = false], routing {!true_value_id} to the
    monotone {!certain_value_id}. *)
val deduce_units : Encode.t -> t

(** [naive_deduce enc] is [NaiveDeduce]: one SAT call per fact literal
    (per variable in [Paper] mode, two per variable in [Exact]). With
    [solver] the calls run as assumption solves on the given session.
    [budget] arms a conflict budget on the solver ({!Sat.Solver.set_budget});
    when it runs out the probe loop stops and [stats.complete] is [false].
    A budget already armed on a passed-in [solver] is honoured the same
    way. [static] is ignored (every fact literal is probed regardless). *)
val naive_deduce :
  ?solver:Sat.Solver.t -> ?budget:int -> ?static:int list -> Encode.t -> t

(** [backbone enc] deduces exactly the facts of {!naive_deduce} — the
    fact literals in the backbone of Φ(Se) — by model intersection: fact
    literals false in any discovered model are discarded as candidates,
    the solver's level-0 literals are read off its trail (fact ones
    adopted without a probe), and each remaining candidate [l] costs one
    assumption solve of Φ ∧ ¬l whose [Sat] models prune further
    candidates wholesale. Each probe first sets every remaining
    candidate's phase against it ({!Sat.Solver.set_phase}), steering the
    search toward a model that refutes as many of them as it can.

    When [solver] is a session already holding Φ(Se), its saved validity
    model bootstraps the candidate set with no extra solve, and learnt
    clauses carry over. The session may also hold satisfiable extension
    layers (relaxation/totalizer clauses from
    {!Maxsat.Exact.solve_groups_on}); these never change answers about
    Φ(Se)'s variables.

    [budget] (or a budget already armed on [solver]) bounds the work in
    CDCL conflicts: probes run through {!Sat.Solver.solve_limited}, and on
    [Unknown] the loop stops with [stats.complete = false]. Facts are only
    ever adopted from the level-0 seed or an [Unsat] probe, so a truncated
    run returns a sound subset of the unbudgeted fact set.

    [static] hands over the {e literals} ([Sat.Lit.t = int]; the name
    of {!Saturate.fact_vars} predates the literal coding) of facts a
    static saturation ({!Saturate}) already proved backbone: they are
    adopted outright —
    with [stats.probes_avoided] counting them — and the level-0 read is
    skipped. The caller must only pass a {e complete} closure
    ({!Saturate.complete}); the deduced set is then identical to the
    level-0 path's. No program path passes [static] (the engine reads the
    level-0 trail); kept for the benchmark replay, deleted by the next
    [benchmark] PR. *)
val backbone :
  ?solver:Sat.Solver.t -> ?budget:int -> ?static:int list -> Encode.t -> t

(** [lt d ~attr lo hi] is [true] when [Od] orders value [lo] before [hi]. *)
val lt : t -> attr:int -> int -> int -> bool

(** [n_facts d] is the size |Od| of the deduced relation (closure). *)
val n_facts : t -> int

(** [candidates d a] is [V(A)]: universe value ids of attribute [a] not
    dominated by any other value in [Od] (the paper's candidate true
    values). *)
val candidates : t -> int -> int list

(** [true_value_id d a] is the id of the true value of attribute [a] when
    [Od] determines one: the unique candidate that dominates every other
    active-domain value. When the deduction was interrupted
    ([stats.complete = false]) this falls back to {!certain_value_id} —
    active-domain domination is not monotone in the fact set (a missing
    fact can hide a second incomparable maximal, typically a CFD repair
    constant), so only universe-certain claims are sound there. *)
val true_value_id : t -> int -> int option

(** [certain_value_id d a] is the id of the value proven above {e every}
    other universe value of [a] — a claim monotone in the fact set, hence
    sound for any partial deduction regardless of how it was produced
    (budget-interrupted backbone, plain unit propagation). At most one
    value can qualify. *)
val certain_value_id : t -> int -> int option

(** [true_values d] is the per-attribute true values determined so far. *)
val true_values : t -> Value.t option array

(** [certain_values d] is {!certain_value_id} per attribute — what a
    degraded engine answer may soundly report. *)
val certain_values : t -> Value.t option array

(** [known_attrs d] is the positions whose true value is determined. *)
val known_attrs : t -> int list

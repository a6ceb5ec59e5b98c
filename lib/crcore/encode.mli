(** The uniform instance-constraint representation Ω(Se) and its CNF
    conversion Φ(Se) (Section V-A of the paper).

    Encoding, in brief: Boolean variables are value-currency facts
    [a1 ≺v_{Ai} a2] over each attribute's active domain (see {!Coding});
    the partial currency orders of [It] and the premise-free instances of
    currency constraints become unit clauses; currency constraints
    instantiated on tuple pairs and constant CFDs become implications;
    transitivity and asymmetry axioms make every model a strict partial
    order per attribute.

    Completions order the values the entity actually takes, following the
    paper's Section II-A definition of temporal instances over [Ie]; a CFD
    pattern constant outside the active domain therefore cannot be a
    current value — an LHS such constant makes the CFD vacuous
    ({!relevant_gamma}), an RHS one forbids the CFD's premise (a veto
    clause).

    [Exact] mode makes models correspond exactly to families of total
    orders — the sound-and-complete variant of the paper's heuristic
    Lemma 5 reduction (ablated in the benches). It numbers one variable
    per unordered value pair ({!Coding}): [v ≺ u] is the literal
    [¬x_uv], so totality and asymmetry hold by construction and what is
    left of the order axioms is two 3-cycle exclusions per value triple.
    Exact mode does not list those: each attribute's pairs are one
    tournament block of the CNF ({!Sat.Cnf.block}), which the solver
    enforces by propagation and {!Sat.Cnf.expand} renders as clauses for
    code that reads them. Paper mode lists its axioms as clauses. *)

type mode = Coding.mode = Paper | Exact

(** A value-currency fact: value [lo] is less current than value [hi] in
    attribute position [attr] (ids per {!Coding}). *)
type fact = { attr : int; lo : int; hi : int }

(** Where an instance constraint came from; drives the derivation rules of
    [Suggest]. *)
type source =
  | From_order          (** a currency order of [It], or null-is-lowest *)
  | From_constraint of int  (** index into Σ *)
  | From_cfd of int         (** index into Γ *)

(** One instance constraint of Ω(Se): if every premise fact holds then the
    conclusion fact holds. Premise-free instances are facts outright. *)
type iconstraint = { premise : fact list; concl : fact; source : source }

(** Σ compiled against a schema: attribute names resolved to positions
    once, single-tuple constant predicates split out of the pair
    predicates so whole tuple pairs can be skipped wholesale. Compiling
    is cheap but Σ is routinely large and shared across a batch, so
    {!encode} accepts a precompiled form. *)
type sigma_c

(** Γ compiled against a schema (attribute names resolved to positions). *)
type gamma_c

(** One compiled CFD: Γ index, LHS and RHS with attribute positions. *)
type cgamma = { g_idx : int; g_lhs : (int * Value.t) list; g_rhs : int * Value.t }

(** [compile_sigma schema sigma] resolves [sigma] against [schema] and
    builds its constant index: each constraint with an [Eq] constant
    predicate is filed under one (attribute, constant) pair, so an entity
    visits only the constraints filed under values it takes, plus those
    without an [Eq] constant. The result is only valid for specs carrying
    this very [sigma] list (it is checked by physical equality and
    recompiled on mismatch). *)
val compile_sigma : Schema.t -> Currency.Constraint_ast.t list -> sigma_c

(** [compile_gamma schema gamma] — as {!compile_sigma}, for Γ: each CFD is
    filed under its first LHS atom. *)
val compile_gamma : Schema.t -> Cfd.Constant_cfd.t list -> gamma_c

(** [compiled_gamma spec] is [spec]'s Γ compiled against its schema, from
    a domain-local one-slot memo (shared with {!template}). *)
val compiled_gamma : Spec.t -> gamma_c

(** [gamma_candidates gc adom] is, in ascending Γ index, every CFD whose
    first LHS constant equals ([Value.equal]) a value of [adom a] for its
    attribute [a]. A superset of the CFDs relevant to an entity whose
    active domains are [adom] (see {!relevant_gamma}), found without
    walking Γ: callers test the remaining LHS atoms. *)
val gamma_candidates : gamma_c -> (int -> Value.t array) -> cgamma list

(** [relevant_cfds gc coding] is, in ascending Γ index, every CFD whose
    LHS constants all occur in [coding]'s active domains, each with its
    LHS as (attribute, value id) pairs — {!relevant_gamma} on compiled
    forms, through the constant index. A NaN LHS constant never occurs:
    patterns match under [Value.equal]. *)
val relevant_cfds : gamma_c -> Coding.t -> (cgamma * (int * int) list) list

(** A compiled spec {e shape}: everything about an encoding that does not
    depend on the concrete entity. Holds the compiled Σ/Γ with their
    constant indexes (a function of the schema and the interned
    constraint lists) and, in [Paper] mode, a store of per-attribute
    structural-axiom clause arenas ({!Sat.Cnf.arena}) keyed by (universe
    size, variable offset) — an attribute's arena is a pure function of
    those, so the cubic transitivity block of an attribute is built once
    and shared, never copied, by every entity (and {!extend}
    renumbering) that agrees on it, whatever the other attributes'
    sizes. [Exact] mode lists no axiom clauses, so its store stays
    empty. One template serves a whole batch of same-shape specs, from
    any domain (the store is mutex-guarded; arenas are built outside the
    lock, first-in wins). *)
type template

(** [template ?mode spec] compiles [spec]'s shape: its schema and its
    (canonical, interned — see {!Spec.intern_sigma}) Σ/Γ lists. Default
    mode [Paper]. *)
val template : ?mode:mode -> Spec.t -> template

(** [template_matches tpl spec] — [spec] has exactly the shape [tpl] was
    compiled from (same schema, same interned Σ/Γ). *)
val template_matches : template -> Spec.t -> bool

(** Ground instances, packed: one int array holding each instance's
    source, conclusion and premise facts, one int per fact, with an
    offset per instance — no record or list per instance or fact. Read
    them as records through {!sigma_insts}, {!units}, {!implications},
    {!vetoes} or {!parts_of_t}. *)
type insts

type t = {
  spec : Spec.t;
  coding : Coding.t;
  mode : mode;
  sigma_c : sigma_c;   (** compiled Σ, reused across {!extend} steps *)
  gamma_c : gamma_c;   (** compiled Γ, reused across {!extend} steps *)
  template : template option;
      (** the template this encoding was instantiated from, when it came
          from {!instantiate}; lets {!extend}'s [Renumbered] path fetch
          the new coding's per-attribute structural arenas from the
          shared store *)
  n_rows : int;
      (** the entity's distinct rows the encoding was lowered over
          ({!Entity.distinct_rows}; {!Coding.lower}): its tuples with
          every repeat of an earlier tuple dropped *)
  sigma_ground : insts;
      (** the instances of Σ ({!sigma_insts}), in a canonical order
          independent of which tuple pairs produced them — the part
          {!extend} updates incrementally *)
  gamma_ground : insts;
      (** the implication instances of Γ ({!gamma_imps}); a pure function
          of the value universes, reused verbatim by {!extend} when the
          universes are unchanged *)
  veto_ground : insts;  (** the vetoes of Γ ({!vetoes}) *)
  order_facts : int array;
      (** the facts of the currency orders of [It] and of null-lowest,
          packed, each once, in first-occurrence order: the [From_order]
          units *)
  cnf : Sat.Cnf.t;
      (** Φ(Se), order axioms included. One arena holds the instance
          clauses, rendered straight from the packed instances, last
          first: the units (order facts, then premise-free Σ, then
          premise-free Γ), the implications (Σ, then Γ), the vetoes.
          [Paper] lists the structural arenas ([structural]) after it (a
          [Delta] extension before it); [Exact] carries one tournament
          block per attribute ({!Coding.block}, in attribute order) and
          lists no axiom *)
  n_structural : int;
      (** structural-axiom clauses listed in [cnf]: [Paper] transitivity
          + asymmetry, d(d-1)(d-2) + d(d-1)/2 per attribute; [0] in
          [Exact] mode, whose d(d-1)(d-2)/3 3-cycle exclusions per
          attribute stay in its blocks *)
  structural : Sat.Cnf.arena list;
      (** the structural-axiom arenas (also inside [cnf]), one per
          attribute, last attribute first, shared with the template's
          store and across {!extend} steps. Empty in [Exact] mode *)
}

(** [sigma_insts e] is [e]'s Σ instances as records, in their canonical
    order: premise lists lexicographically, then conclusions, as
    polymorphic [compare] orders [(premise, concl)]; each premise list
    ascending and duplicate-free. Premise-free ones are units. *)
val sigma_insts : t -> iconstraint list

(** [gamma_imps e] is [e]'s Γ implication instances, in ascending Γ
    index, each CFD's by ascending conclusion [lo]. *)
val gamma_imps : t -> iconstraint list

(** [units e] is the premise-free part of Ω(Se): the order facts, then
    the premise-free Σ instances, then the premise-free Γ ones. *)
val units : t -> (fact * source) list

(** [implications e] is the rest of Ω(Se): the Σ instances with a
    premise, then the Γ ones. *)
val implications : t -> iconstraint list

(** [vetoes e] is the conjunctions of facts that cannot all hold: a CFD
    whose RHS pattern constant never occurs in the entity can never fire,
    so its "LHS pattern is most current" premise is forbidden. *)
val vetoes : t -> (fact list * source) list

(** The ground-instance part of Ω(Se) without any clause rendering — what
    a purely static analysis ({!Saturate}, {!Analyze}) consumes. *)
type parts = {
  p_coding : Coding.t;
  p_units : (fact * source) list;
  p_implications : iconstraint list;
  p_vetoes : (fact list * source) list;
  p_sigma_fired : bool array;
      (** [p_sigma_fired.(k)]: constraint [k] produced at least one ground
          instance {e before} global deduplication (distinct constraints
          can ground to identical instances, and "did σ_k fire" must not
          depend on which one won the dedup) *)
}

(** [parts ?mode ?sigma_c ?gamma_c ?rows spec] instantiates Ω(Se)
    without building any clauses: same units/implications/vetoes a full
    {!encode} would carry, decoded to records from the same packed
    grounding, at a fraction of the cost (no order axioms, no CNF).
    [mode] (default [Paper]) only selects [p_coding]'s numbering.
    [rows] are the entity's rows as {!instantiate} takes them. *)
val parts :
  ?mode:mode -> ?sigma_c:sigma_c -> ?gamma_c:gamma_c -> ?rows:int array -> Spec.t -> parts

(** [parts_of_t enc] views an existing encoding as {!parts}, decoding
    its packed instances.
    [p_sigma_fired] is {e not} recovered (it is empty) — the encoding
    deduplicated globally; use {!parts} when firing flags matter. *)
val parts_of_t : t -> parts

(** [encode ?mode ?sigma_c ?gamma_c spec] computes Ω(Se) and Φ(Se).
    Default mode [Paper]. Pass [?sigma_c]/[?gamma_c] (from
    {!compile_sigma}/{!compile_gamma}) to share the compiled constraint
    forms across a batch of specs holding the same Σ/Γ lists; a compiled
    form whose source list is not physically the spec's is recompiled, so
    passing a stale one is safe. *)
val encode : ?mode:mode -> ?sigma_c:sigma_c -> ?gamma_c:gamma_c -> Spec.t -> t

(** [instantiate ?rows tpl spec] is the thin per-entity stage: stamp the
    concrete entity into the precompiled shape without re-walking the
    constraint AST. Produces a result bit-identical to
    [encode ~mode:(template_mode tpl) spec] — same clauses in the same
    order, same numbering, same universes (property-tested in
    test_encode) — reusing [tpl]'s compiled Σ/Γ and structural blocks.
    Falls back to direct compilation when [not (template_matches tpl
    spec)], so a stale template is safe, merely useless.

    The entity is lowered over [rows] ({!Coding.lower}), by default
    [Entity.distinct_rows spec.entity]; a caller that already has them
    (the engine computes them once for its rejection test) passes them.
    Any ascending index array holding the first occurrence of every
    class of equal tuples gives the same encoding — every tuple index
    is the tuple-level lowering. *)
val instantiate : ?rows:int array -> template -> Spec.t -> t

(** How an incremental re-encode relates to its base. *)
type extension =
  | Delta of t * Sat.Lit.t array list
      (** value universes unchanged, so variable numbering is too: the
          new encoding plus exactly the clauses of its [cnf] missing from
          the base's — an incremental SAT session already holding the
          base Φ(Se) only needs these added to represent the new
          specification (pure extensions only add clauses, so the
          session stays sound) *)
  | Renumbered of t
      (** a universe grew (the fresh tuple carries a genuinely new
          value): variable numbers shifted, so solvers must reload the
          new [cnf] — but the expensive Σ instance sweep was still
          reused from the base. A fresh tuple carrying only known values
          and nulls does {e not} renumber: {!Coding.build} pre-reserves
          [Null] in every universe, so null-introducing extensions stay
          on the [Delta] path *)

(** [extend base spec] re-encodes [spec] incrementally against the
    already-encoded [base] — the [Se ⊕ Ot] step of the framework, where
    [spec] extends [base.spec] with user-asserted orders and tuples.

    Old values keep their per-attribute ids (universes are built in
    first-occurrence order; a reserved trailing null may float to a later
    id, which is safe because Σ instances never mention null ids), so the
    base's Σ instances carry over verbatim and only row pairs touching
    the appended tuples' new distinct rows are instantiated — O(reps)
    [instantiate] calls per constraint instead of the full O(reps²)
    sweep. An appended tuple equal to an earlier one adds no row and no
    Σ instance. Returns [None]
    when [spec] is not a pure extension of [base.spec] (different Σ/Γ,
    tuples not appended, order edges not prepended); callers then fall
    back to a full {!encode}. *)
val extend : t -> Spec.t -> extension option

(** [relevant_gamma entity gamma] keeps the CFDs that can fire on this
    entity — those whose every LHS pattern constant occurs in the active
    domain of its attribute — paired with their index in [gamma]. The
    encoding and the reference semantics consider only these; a CFD whose
    LHS mentions a value the entity never takes is vacuous on it, and
    skipping it keeps the value universes (and hence the cubic
    transitivity axioms) small when Γ is a large pattern table. This is
    the plain scan over Γ, kept as the reference the tests hold
    {!relevant_cfds} (the indexed form the encoder uses) to. *)
val relevant_gamma : Entity.t -> Cfd.Constant_cfd.t list -> (int * Cfd.Constant_cfd.t) list

(** [projection_reps coding cells positions] is, in ascending order, the
    position of the first row of each distinct projection of the entity's
    rows onto [positions], where [cells] are [coding]'s id columns, one
    entry per row ({!Coding.lower}). Σ-instances depend only on the two
    tuples' values at the attributes a constraint mentions, so
    instantiating over pairs of these representatives yields exactly the
    instances of all tuple pairs, usually over far fewer pairs. Two rows
    project alike iff their ids agree at every position, so this is keyed
    on integers, not values. *)
val projection_reps : Coding.t -> int array array -> int list -> int list

(** The int-keyed table {!projection_reps} refines classes through (keys
    [class·d + id], d a universe size); its hash mixes the key's bits. *)
module Int_tbl : Hashtbl.S with type key = int

(** [lit_of_fact e f] is the literal of fact [f] ({!Coding.lit_of}). *)
val lit_of_fact : t -> fact -> Sat.Lit.t

(** [fact_of_lit e l] decodes a literal back to its fact; [None] for a
    negative [Paper]-mode literal ({!Coding.fact_of_lit}). *)
val fact_of_lit : t -> Sat.Lit.t -> fact option

(** [fact_table e] is every literal's fact, indexed by literal: equal,
    element for element, to [Array.init (2 * e.cnf.nvars) (fact_of_lit
    e)], but built in one pass over each attribute's value pairs. *)
val fact_table : t -> fact option array

(** Static currency deduction: a polynomial-time saturation (chase) over
    the ground instances Ω(Se), computing the closure of {e certain}
    value-currency facts — facts true in every completion — without a
    solver.

    The rules are exactly the unit-propagation reflections of Φ(Se)'s
    clauses: units of Ω(Se) are axioms; an implication instance whose
    premises are all in the closure contributes its conclusion (modus
    ponens); two chained facts contribute their transitive composition;
    and in [Exact] mode a vetoed singleton premise [¬f] meets totality
    ([f ∨ rev f], which the [Exact] coding holds by construction: [rev f]
    is the literal [¬f]) to yield [rev f]. Every closure fact is
    therefore level-0 implied by Φ(Se): the closure is pointwise a subset
    of the backbone whenever Φ(Se) is satisfiable.

    In [Paper] mode the closure is also {e complete} when saturation
    finds no refutation: the closure-as-assignment (closure facts true,
    everything else false) is then a model of Φ(Se), so any fact outside
    the closure is false in some completion and the closure equals the
    positive backbone exactly — {!complete} reports this, and
    [refutation = None] coincides with [Validity.is_valid]. [Exact] mode
    is conservatively incomplete (totality can force facts the chase
    cannot see).

    Every derived fact carries a {e certificate}: the chain of ground
    derivation steps, checkable by {!verify} — an independent ~100-line
    checker that re-instantiates constraints from the raw [Spec.t] and
    never trusts the saturation code. *)

(** How one step of a derivation was obtained. *)
type rule =
  | Axiom of Encode.source
      (** a unit of Ω(Se): an explicit currency-order edge, the
          null-is-lowest rule, or a premise-free constraint instance *)
  | Implication of Encode.source
      (** modus ponens on a ground instance of Σ or Γ whose premises are
          the referenced steps *)
  | Trans  (** transitivity: [lo ≺ mid] and [mid ≺ hi] give [lo ≺ hi] *)
  | Total of int
      (** [Exact] mode only: Γ's veto [¬f] (the CFD at this Γ index has a
          singleton ω_X premise and an RHS constant the entity never
          takes) meets totality [f ∨ rev f] *)
  | Assumed
      (** a hypothesis seeded by {!derives} [~assume]; never appears in
          an emitted certificate and is rejected by {!verify} *)

(** One derivation step: [premises] index earlier steps. *)
type step = { fact : Encode.fact; rule : rule; premises : int list }

(** A statically-proved contradiction: Φ(Se) is unsatisfiable. *)
type refutation =
  | Cycle of { attr : int; lo : int; hi : int; s1 : int; s2 : int }
      (** both orientations of a fact were derived (steps [s1], [s2]) —
          a cycle in the certain part of the currency order *)
  | Veto of { gamma : int; steps : int list }
      (** every premise of the veto of Γ's CFD [gamma] was derived *)

type t

(** [of_parts ~mode ?plan parts] saturates the ground instances to a
    fixpoint. [plan] is a Σ firing-order ranking (see {!plan_for}); it
    affects only the order work is done, never the closure. *)
val of_parts : mode:Encode.mode -> ?plan:int array -> Encode.parts -> t

(** [of_encode enc] saturates an existing encoding's instances (no
    re-instantiation), with the firing plan memoised per Σ template. *)
val of_encode : Encode.t -> t

(** [of_spec ?mode spec] instantiates ({!Encode.parts}) and saturates. *)
val of_spec : ?mode:Encode.mode -> Spec.t -> t

val mode : t -> Encode.mode
val coding : t -> Coding.t

(** [mem t f] — is [f] in the closure of certain facts? *)
val mem : t -> Encode.fact -> bool

(** The closure, in derivation order. *)
val facts : t -> Encode.fact list

val n_facts : t -> int

(** The closure as the {e literals} ([Sat.Lit.t = int]) of its facts in
    the coding's numbering ({!Coding.lit_of}) — positive in [Paper] mode,
    either polarity in [Exact] mode. The name predates the one-variable-
    per-pair [Exact] layout and is kept because external harnesses call
    it; it is the list {!Deduce.backbone} takes as [?static]. *)
val fact_vars : t -> int list

(** The closure as unit literals, ready to seed a SAT session (the same
    list as {!fact_vars}). *)
val unit_lits : t -> Sat.Lit.t list

(** [complete t]: the closure provably equals the positive backbone of
    Φ(Se) ([Paper] mode, no refutation). *)
val complete : t -> bool

(** The first statically-proved contradiction, if any. Saturation runs on
    to the full fixpoint regardless, so {!cyclic_attrs} and
    {!fired_vetoes} report {e every} contradiction site. *)
val refutation : t -> refutation option

(** [cyclic_attrs t].(a): the certain facts of attribute position [a]
    contain a cycle. *)
val cyclic_attrs : t -> bool array

(** Vetoes whose every premise is in the closure, as
    [(source, premise step ids)], most recently instantiated first. *)
val fired_vetoes : t -> (Encode.source * int list) list

(** {1 Hypothetical closures} *)

(** [derives ~mode parts concl] — is [concl] in the closure? [~assume]
    seeds extra hypothesis facts; [~drop_unit f src] removes matching
    units; [~drop_source src] removes matching units, implications and
    vetoes. Powers Analyze's subsumption (W007: drop one constraint's
    instances, assume a ground premise) and redundancy (I004: drop one
    explicit edge) diagnostics. *)
val derives :
  mode:Encode.mode ->
  ?drop_unit:(Encode.fact -> Encode.source -> bool) ->
  ?drop_source:(Encode.source -> bool) ->
  ?assume:Encode.fact list ->
  Encode.parts ->
  Encode.fact ->
  bool

(** {1 Certificates} *)

type goal =
  | Derived of Encode.fact  (** the last chain step derives this fact *)
  | Cycle_goal of Encode.fact
      (** the chain derives both orientations of this fact *)
  | Veto_goal of int
      (** the chain derives every premise of the veto of Γ's CFD at this
          index *)

(** A self-contained derivation: [chain] steps reference earlier chain
    positions only. *)
type cert = { cmode : Encode.mode; goal : goal; chain : step list }

(** [certificate t f] — the derivation of closure fact [f], or [None]
    when [f] is not in the closure (or was assumed). *)
val certificate : t -> Encode.fact -> cert option

(** The derivation of {!refutation}, if any. *)
val refutation_certificate : t -> cert option

(** [verify spec cert] checks the certificate against the raw
    specification alone: every step must be a legitimate ground inference
    over [spec] (constraints re-instantiated via
    [Currency.Constraint_ast.instantiate], CFD premises rebuilt from the
    active domains) and the chain must establish the goal. Trusts nothing
    from the saturation engine. *)
val verify : Spec.t -> cert -> (unit, string) result

(** [pp_cert spec ppf cert] renders the chain with attribute names and
    values. *)
val pp_cert : Spec.t -> Format.formatter -> cert -> unit

(** {1 Template plan} *)

(** [plan_for sigma] ranks Σ's constraints in a dependency-stratified
    firing order (producers of an attribute's facts before consumers),
    memoised per physical Σ list — the per-template piece of saturation,
    shared across every entity of a batch holding the same Σ. *)
val plan_for : Currency.Constraint_ast.t list -> int array

(** Domain-local [(hits, misses)] of the {!plan_for} memo. *)
val template_stats : unit -> int * int

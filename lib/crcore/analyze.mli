(** Static analysis ("lint") of specifications [Se = (It, Σ, Γ)].

    Satisfiability of a specification is NP-complete (Theorem 1 of the
    paper), but most broken specifications fail for reasons decidable in
    polynomial time: a cyclic currency order, constraint instances whose
    ground closure already contradicts asymmetry, constant CFDs forced
    into conflict by the entity's active domains. This pass finds those —
    plus likely-misuse warnings and redundancy notes — without touching
    the SAT solver, so [crsolve lint] can explain {e why} a specification
    is broken instead of reporting a bare "INVALID". {!Engine} rejects
    statically-unsat specifications in two halves: {!cheap_errors}
    (E001/E003/E004) before [Instantiation]/[ConvertToCNF], and a
    refuted {!Saturate} closure of its own encoding (E002/E005) before
    any solver is built.

    Diagnostic codes are stable:

    - [E0xx] {b errors} — the specification provably has no valid
      completion ({!Validity.is_valid} is guaranteed [false]; the qcheck
      soundness property in [test_analyze] enforces this):
      {ul
       {- [E001] — an attribute's explicit currency order [≺_Ai] is cyclic
          at the value level.}
       {- [E002] — the ground closure is contradictory: instantiating
          Σ-constraints whose comparison predicates are decidable from
          tuple constants, closing under transitivity and firing
          instances/CFDs whose premises are already derived yields a
          value-currency cycle, or fires a CFD that can never be
          satisfied.}
       {- [E003] — two constant CFDs whose LHS patterns are forced by
          singleton active domains demand contradictory current values for
          the same attribute.}
       {- [E004] — a constant CFD's LHS pattern is forced by singleton
          active domains but its RHS constant never occurs in the entity:
          the current tuple can never satisfy it.}
       {- [E005] — the {!Saturate} fixpoint refutes the specification
          statically; the message carries the full derivation chain
          (certificate) of the contradiction.}}
    - [W0xx] {b warnings} — likely misuse; the specification may still be
      satisfiable:
      {ul
       {- [W001] — dead CFD: an LHS pattern constant never occurs in the
          entity, so the CFD can never fire (cf. {!Encode.relevant_gamma}).}
       {- [W002] — veto CFD: the RHS pattern constant never occurs in the
          entity, so whenever the LHS pattern is most current the CFD is
          violated — it only ever {e forbids} completions.}
       {- [W003] — vacuous Σ-constraint: no ordered tuple pair yields an
          instance (the premise is unsatisfiable over the entity's values,
          or the conclusion always relates equal values).}
       {- [W004] — duplicate order edge: the same tuple-level edge is
          listed more than once.}
       {- [W005] — reflexive-after-closure order edge: the edge's tuples
          hold equal values on the attribute, so the value-level fact is
          reflexive and the encoding drops it.}
       {- [W006] — possibly conflicting CFDs: unifiable LHS patterns over
          the entity's values with contradictory RHS for the same
          attribute (not provably unsatisfiable — the current tuple may
          avoid the patterns).}
       {- [W007] — a Σ-constraint is subsumed on this entity: every one
          of its ground instances is derivable ({!Saturate.derives}) from
          the closure of the other constraints and the explicit orders.}}
    - [I0xx] {b info} — redundancy:
      {ul
       {- [I001] — a Σ-constraint is subsumed by another (same conclusion,
          sub-conjunction premise; duplicates included).}
       {- [I002] — a constant CFD is subsumed by another (same RHS
          pattern, sub-pattern LHS; duplicates included).}
       {- [I003] — an order edge is implied by the transitive closure of
          the remaining explicit edges.}
       {- [I004] — an order edge is derivable from Σ/Γ and the remaining
          units: the static closure is unchanged without it.}} *)

type severity = Error | Warning | Info

(** What a diagnostic is about; [Sigma]/[Gamma] carry the index of the
    constraint in the specification's list. *)
type subject =
  | Whole
  | Attr of string
  | Order_edge of Spec.order_edge
  | Sigma of int
  | Gamma of int

type diagnostic = {
  code : string;  (** stable: ["E001"] .. ["I003"] *)
  severity : severity;
  subject : subject;
  message : string;
  span : Currency.Parser.span option;
      (** source span of the offending constraint text, when the caller
          parsed Σ with {!Currency.Parser.parse_many_spanned} *)
}

(** [analyze ?errors_only ?sigma_spans spec] runs every check and returns
    diagnostics sorted errors-first (then by code, then by subject).
    [sigma_spans], if given, maps Σ indices to source spans; shorter
    arrays are fine (missing entries get no span). [errors_only] (default
    [false]) skips the warning and redundancy checks and reports E-level
    diagnostics only; once a cheap check (E001/E003/E004) has proven the
    specification unsatisfiable the expensive Σ-instantiation and
    ground-closure work is skipped too, so the result is a subset of the
    full report's errors that is non-empty exactly when the full report
    has any — enough for a verdict; the error list is also
    deduplicated to one diagnostic per [(code, subject)] pair.
    Polynomial in the size of the specification. *)
val analyze :
  ?errors_only:bool ->
  ?sigma_spans:Currency.Parser.span option array ->
  Spec.t ->
  diagnostic list

(** [cheap_errors ?rows spec] runs only the checks that need no ground
    instance (E001, E003, E004), deduplicated and sorted as [analyze
    ~errors_only:true] reports them. It builds no {!Coding.t} and scans
    only the active domains Γ or an explicit edge needs, once each, over
    the entity's distinct [rows] (default [Entity.distinct_rows]; the
    engine passes the rows it then encodes over). When non-empty it
    equals [analyze ~errors_only:true spec], which stops at these
    checks. *)
val cheap_errors : ?rows:int array -> Spec.t -> diagnostic list

val errors : diagnostic list -> diagnostic list
val warnings : diagnostic list -> diagnostic list
val has_errors : diagnostic list -> bool

(** [max_severity ds] is the worst severity present, [None] on a clean
    report; drives [crsolve lint]'s exit code. *)
val max_severity : diagnostic list -> severity option

val severity_to_string : severity -> string
val pp_severity : Format.formatter -> severity -> unit

(** [pp_subject spec ppf subject] renders the subject with the
    constraint's own text (e.g. [Σ#2 'prec(status) -> prec(job)']). *)
val pp_subject : Spec.t -> Format.formatter -> subject -> unit

(** [pp_diagnostic spec ppf d] is a one-line human rendering:
    [code severity: message (subject) [span]]. *)
val pp_diagnostic : Spec.t -> Format.formatter -> diagnostic -> unit

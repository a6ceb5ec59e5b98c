(** Entity specifications [Se = (It, Σ, Γ)] (Section II-C): a temporal
    instance (entity tuples plus per-attribute partial currency orders),
    currency constraints, and constant CFDs. *)

(** A tuple-level currency-order edge: tuple [lo] is less current than
    tuple [hi] in attribute [attr] (attribute by name). *)
type order_edge = { attr : string; lo : int; hi : int }

type t = {
  entity : Entity.t;
  orders : order_edge list;              (** the partial orders of [It] *)
  sigma : Currency.Constraint_ast.t list;  (** currency constraints Σ *)
  gamma : Cfd.Constant_cfd.t list;         (** constant CFDs Γ *)
}

(** Why a specification cannot be built: a dangling attribute name, a
    tuple index outside the entity, or a degenerate (reflexive) order
    edge. Constraint/CFD variants carry the index of the offending element
    in the input list. *)
type error =
  | Unknown_order_attribute of string
  | Order_index_out_of_range of { attr : string; index : int; size : int }
  | Reflexive_order_edge of { attr : string; index : int }
  | Unknown_constraint_attribute of { constraint_index : int; attr : string }
  | Unknown_cfd_attribute of { cfd_index : int; attr : string }

val pp_error : Format.formatter -> error -> unit

(** [make_res entity ~orders ~sigma ~gamma] validates attribute names and
    tuple indices and builds the specification; the non-raising entry
    point for callers assembling specifications from untrusted input
    (parsers, network, CSV headers). Σ and Γ are checked against the
    schema once per shape: a domain-local memo remembers the last
    (Σ, Γ, schema) that passed, by physical identity of the lists, so a
    batch of same-shape specs walks them once. A failure is never
    remembered. *)
val make_res :
  Entity.t ->
  orders:order_edge list ->
  sigma:Currency.Constraint_ast.t list ->
  gamma:Cfd.Constant_cfd.t list ->
  (t, error) result

(** [make entity ~orders ~sigma ~gamma] is {!make_res}, raising
    [Invalid_argument] (rendered with {!pp_error}) on any dangling
    reference — the historical behaviour, kept so existing callers
    compile. *)
val make :
  Entity.t ->
  orders:order_edge list ->
  sigma:Currency.Constraint_ast.t list ->
  gamma:Cfd.Constant_cfd.t list ->
  t

val schema : t -> Schema.t
val size : t -> int

(** {2 Σ/Γ interning}

    {!make_res} (and hence {!make}) interns the constraint lists in a
    global pool: structurally equal Σ (resp. Γ) lists are replaced by one
    canonical physical list and assigned a dense integer id. This is what
    lets a batch of distinct same-shape specs share {!Encode}'s compiled
    constraint forms, {!Saturate}'s fixpoint plans (both keyed on physical
    identity) and the engine's compiled templates (keyed on the ids). *)

(** [intern_sigma l] is the canonical list structurally equal to [l] and
    its intern id. Interns [l] if it is new. *)
val intern_sigma :
  Currency.Constraint_ast.t list -> Currency.Constraint_ast.t list * int

(** [intern_gamma l] — as {!intern_sigma}, for Γ. *)
val intern_gamma : Cfd.Constant_cfd.t list -> Cfd.Constant_cfd.t list * int

(** [sigma_id s] is the intern id of [s.sigma] (interning on demand for
    specs built as record literals, which bypass {!make_res}). Specs
    share an id iff their Σ lists are structurally equal. *)
val sigma_id : t -> int

(** [gamma_id s] — as {!sigma_id}, for Γ. *)
val gamma_id : t -> int

(** [extend s ~tuples ~orders] is [s] with [tuples] appended to its entity
    and [orders] prepended to its order edges — the pure-extension shape
    [Encode.extend] serves incrementally. It equals
    [make entity' ~orders:(orders @ s.orders) ~sigma:s.sigma
    ~gamma:s.gamma] on the grown entity, but validates only the new edges:
    [s] is a validated specification, so its Σ, Γ and schema are reused
    as they are. Raises [Invalid_argument] exactly as {!make} would on
    those inputs (an unknown attribute, an out-of-range or reflexive new
    edge). *)
val extend : t -> tuples:Tuple.t list -> orders:order_edge list -> t

(** [add_order_edges s edges] extends the partial orders ([Se ⊕ Ot] with a
    pure order extension): [extend s ~tuples:[] ~orders:edges]. *)
val add_order_edges : t -> order_edge list -> t

(** [extend_with_tuple s tup ~current_attrs] implements the paper's user
    input step (Section III, Remark 1): appends the fresh tuple [tup] and,
    for every attribute named in [current_attrs], adds order edges making
    [tup] the most current. *)
val extend_with_tuple : t -> Tuple.t -> current_attrs:string list -> t

val pp : Format.formatter -> t -> unit

(** The value universes and Boolean variable numbering behind the SAT
    encoding of Section V-A.

    For each attribute [Ai], the universe is [adom(Ie.Ai)], the values
    the entity takes, plus a reserved null; the Boolean variable
    [x^{Ai}_{a1,a2}] stands for the value-currency fact [a1 ≺v_{Ai} a2]
    over that universe. A CFD pattern constant outside the active
    domain gets no value id: completions order the values the entity
    takes (see {!Encode}).

    Facts map to {e literals}, not variables ({!lit_of}/{!fact_of_lit}).
    In [Paper] mode every ordered pair has its own variable and a fact is
    its positive literal; a negative literal is not a fact. In [Exact]
    mode completions are total orders, so [a2 ≺ a1] is exactly
    [¬(a1 ≺ a2)]: one variable [x_uv] per unordered pair [u < v] stands
    for [u ≺ v], and the fact [v ≺ u] is the literal [¬x_uv]. *)

(** [Paper]: one variable per ordered value pair (the paper's encoding).
    [Exact]: one variable per unordered value pair, totality and
    asymmetry implicit in the literal polarity. *)
type mode = Paper | Exact

type t

(** [build ?mode entity] computes universes and variable numbering
    (default [Paper]). *)
val build : ?mode:mode -> Entity.t -> t

(** [lower ?mode ~rows entity] is [(build ?mode entity, cells)] from one
    scan of the tuples [rows]: [rows] must hold, in
    ascending order, the first occurrence of every class of equal tuples
    — {!Entity.distinct_rows}, or every tuple index. [cells.(a).(k)] is
    the id of row [k]'s value at attribute [a] (the value of tuple
    [rows.(k)]), equal to [vid c a (Tuple.get t a)] for that tuple and for
    every tuple equal to it (a NaN cell included). The columns are the
    caller's to drop: they are not kept in [t], which can outlive the
    entity's encoding. *)
val lower : ?mode:mode -> rows:int array -> Entity.t -> t * int array array

val mode : t -> mode

val schema : t -> Schema.t

(** [universe c a] is the value universe of attribute position [a]: its
    active-domain values in first-occurrence order, so its length is
    {!adom_size}.

    [Value.Null] is always a universe member: when no tuple takes it, it
    is reserved right after the active-domain values — the slot a
    null-carrying [Se ⊕ Ot] extension tuple (extensions append) would
    give it anyway. Null-introducing extensions therefore keep the
    universe, and with it the variable numbering, unchanged, so live
    incremental solver sessions survive them. The reserved null is ranked
    lowest by the null-lowest unit clauses and is never a candidate true
    value. *)
val universe : t -> int -> Value.t array

(** [adom_size c a] is the number of universe values of [a] that occur in
    the entity (a prefix of {!universe}), counting the reserved null. *)
val adom_size : t -> int -> int

(** [vid c a v] is the id of value [v] within attribute [a]'s universe.
    Raises [Not_found] for foreign values. *)
val vid : t -> int -> Value.t -> int

(** [vid_opt c a v] is [vid], returning [None] for foreign values. *)
val vid_opt : t -> int -> Value.t -> int option

(** [const_id c a v] is the id of the universe value a CFD pattern
    constant [v] matches at [a], under [Value.equal] as
    [Cfd.Constant_cfd] reads patterns: [vid_opt], except that a NaN
    constant matches nothing ([vid_opt] finds a NaN cell, since
    [Value.total_compare] equates NaNs). *)
val const_id : t -> int -> Value.t -> int option

(** [value c a id] is the value with id [id] in attribute [a]. *)
val value : t -> int -> int -> Value.t

(** [offset c a] is the first variable of attribute [a]: the sum of the
    earlier attributes' variable counts. The numbering of [a]'s variables
    ({!lit_of}) is a pure function of the mode, [a]'s universe size and
    this offset, which is what lets Paper's structural clause blocks be
    shared per attribute across codings (see [Encode.template]). *)
val offset : t -> int -> int

(** [block c a] is attribute [a]'s pairs as a tournament block: [first]
    is [offset c a], [d] its universe size. In [Exact] mode it is the
    numbering {!lit_of} uses ({!Sat.Cnf.pair_lit}). *)
val block : t -> int -> Sat.Cnf.block

(** Total number of Boolean variables: [Σ_a d_a·(d_a - 1)] in [Paper]
    mode, [Σ_a d_a·(d_a - 1)/2] in [Exact] mode. *)
val nvars : t -> int

(** [lit_of c ~attr lo hi] is the literal for [value lo ≺ value hi] in
    [attr]; [lo], [hi] are value ids, [lo ≠ hi]. Always positive in
    [Paper] mode; in [Exact] mode positive iff [lo < hi]. *)
val lit_of : t -> attr:int -> int -> int -> Sat.Lit.t

(** [fact_of_lit c lit] is the [(attr, lo, hi)] fact [lit] stands for —
    the inverse of {!lit_of}. [None] for a negative [Paper]-mode literal,
    which is not a fact. Raises [Invalid_argument] for a variable
    outside the numbering. *)
val fact_of_lit : t -> Sat.Lit.t -> (int * int * int) option

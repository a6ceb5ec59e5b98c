(** Immutable CNF formulas, the interchange format between the encoder in
    [Crcore], the CDCL solver, the brute-force reference solver and the
    MaxSAT engines.

    Clauses are stored packed: a formula is a list of {e arenas}, each one
    flat array of literals (see {!Lit}) with clause offsets, read in
    order. An arena is never mutated once built, so formulas share arenas
    freely: the [Crcore] encoder renders an entity's instance clauses into
    one arena and appends, in Paper mode, per-attribute structural arenas
    from its template, shared by every entity of the same shape. Readers
    go through {!iter}/{!fold} (a fresh array per clause) or, allocation
    free, {!iter_packed}.

    A formula may also carry {e tournament blocks}: each one states,
    without listing them, the axioms that make its pair variables a strict
    total order. The solver enforces a block by propagation
    ({!Solver.add_cnf}); code that reads clauses sees its axioms through
    {!expand}, and {!eval} and {!pp} check or print them without building
    that list. *)

type clause = Lit.t array

(** A tournament block over [d] values [0 .. d-1]: one variable per
    unordered pair [u < v], numbered row-major from [first] (see
    {!pair_var}); the positive literal is [u ≺ v], so every assignment
    orders each pair one way. Its axioms exclude the two cyclic
    orientations of every triple — a tournament without 3-cycles is a
    strict total order — which is [d(d-1)(d-2)/3] clauses. *)
type block = { first : int; d : int }

(** Clauses packed in one literal array: clause [k] is [lits.(offs.(k))
    .. lits.(offs.(k+1) - 1)], so [offs] has one entry more than there
    are clauses, [offs.(0) = 0] and its last entry is [Array.length
    lits]. Never mutated after it is built. *)
type arena = { lits : Lit.t array; offs : int array }

type t = {
  nvars : int;            (** number of variables; literals range over them *)
  arenas : arena list;    (** the clauses, arena by arena, in order *)
  blocks : block list;    (** tournament blocks, their axioms unlisted *)
}

(** [make ?blocks ~nvars clauses] checks every literal is over a variable
    [< nvars] and every block's variables too, and builds the formula as
    one arena (default no blocks). Raises [Invalid_argument] otherwise. *)
val make : ?blocks:block list -> nvars:int -> clause list -> t

(** [unsafe_make ?blocks ~nvars clauses] builds the formula without the
    range checks. A literal over a variable [>= nvars] yields a formula
    that later stages reject or misread. *)
val unsafe_make : ?blocks:block list -> nvars:int -> clause list -> t

(** [unsafe_of_arenas ?blocks ~nvars arenas] is the formula of [arenas]'
    clauses in order, sharing the arenas, without range checks — for
    producers (the [Crcore] encoder's hot path) whose literals are in
    range by construction. *)
val unsafe_of_arenas : ?blocks:block list -> nvars:int -> arena list -> t

(** [arena_of_clauses cs] packs [cs] in order. *)
val arena_of_clauses : clause list -> arena

(** [arena_length a] is the number of clauses in [a]. *)
val arena_length : arena -> int

(** [nclauses f] counts the listed clauses; block axioms are not listed
    (see {!expand}). *)
val nclauses : t -> int

(** {2 Tournament blocks} *)

(** [block_nvars d] is [d(d-1)/2], the variables of a block of [d] values. *)
val block_nvars : int -> int

(** [pair_var b u v] is the variable of the pair [u < v]: the pair's
    row-major rank over the upper triangle, [first + u(2d-u-1)/2 +
    (v-u-1)]. This is the one definition of the layout. *)
val pair_var : block -> int -> int -> int

(** [pair_lit b lo hi] is the literal stating [lo ≺ hi] ([lo <> hi]):
    positive iff [lo < hi]. *)
val pair_lit : block -> int -> int -> Lit.t

(** [block_pair b var] is the pair [(u, v)], [u < v], that [var] numbers
    in [b] — the inverse of {!pair_var}, in closed form. *)
val block_pair : block -> int -> int * int

(** [block_clauses b] is [b]'s axioms as clauses: for each triple
    [i < j < k], [¬x_ik ∨ x_jk ∨ x_ij] then [¬x_ij ∨ ¬x_jk ∨ x_ik], the
    last triple's first. *)
val block_clauses : block -> clause list

(** [iter_block_clauses g b] calls [g] on each clause of
    [block_clauses b], in order, without building the list. *)
val iter_block_clauses : (clause -> unit) -> block -> unit

(** [expand f] is [f] with every block's axioms listed after its clauses
    (the last block's first) and no blocks: the same models, for code that
    reads clauses instead of loading a solver. *)
val expand : t -> t

(** [add_clause f c] is [f] with [c] appended (variables must fit). *)
val add_clause : t -> clause -> t

(** {2 Reading clauses} *)

(** [iter g f] calls [g] on each listed clause of [f], in order, as a
    fresh array. Block axioms are not listed (see {!expand}). *)
val iter : (clause -> unit) -> t -> unit

(** [fold g acc f] folds [g] over the listed clauses of [f], in order. *)
val fold : ('a -> clause -> 'a) -> 'a -> t -> 'a

(** [iter_packed g f] calls [g lits off len] on each listed clause of
    [f], in order: the clause is [lits.(off) .. lits.(off + len - 1)].
    Allocates nothing; [g] must not keep or mutate [lits]. *)
val iter_packed : (Lit.t array -> int -> int -> unit) -> t -> unit

(** [clauses f] is the listed clauses of [f] as a list, in order: for
    tests and small formulas. *)
val clauses : t -> clause list

(** [eval_clause assignment c] is [true] when [c] holds under the total
    [assignment] ([assignment.(v)] is the truth of variable [v]). *)
val eval_clause : bool array -> clause -> bool

(** [eval assignment f] is [true] when every clause of [f] holds and
    every block's pairs form a strict total order. A block is checked
    directly, in [O(d²)]: its tournament is transitive iff its
    out-degrees are exactly [0 .. d-1]. Equal to [eval assignment (expand
    f)]. *)
val eval : bool array -> t -> bool

(** [nlits f] is the total number of literal occurrences in the listed
    clauses. *)
val nlits : t -> int

(** [pp] prints [expand f] in DIMACS, streaming the blocks' axioms
    instead of listing them. *)
val pp : Format.formatter -> t -> unit

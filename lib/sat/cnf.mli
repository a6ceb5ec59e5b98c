(** Immutable CNF formulas, the interchange format between the encoder in
    [Crcore], the CDCL solver, the brute-force reference solver and the
    MaxSAT engines.

    Clauses are arrays of packed literals (see {!Lit}). A formula may also
    carry {e tournament blocks}: each one states, without listing them,
    the axioms that make its pair variables a strict total order. The
    solver enforces a block by propagation ({!Solver.add_cnf}); code that
    reads clauses sees its axioms through {!expand}. *)

type clause = Lit.t array

(** A tournament block over [d] values [0 .. d-1]: one variable per
    unordered pair [u < v], numbered row-major from [first] (see
    {!pair_var}); the positive literal is [u ≺ v], so every assignment
    orders each pair one way. Its axioms exclude the two cyclic
    orientations of every triple — a tournament without 3-cycles is a
    strict total order — which is [d(d-1)(d-2)/3] clauses. *)
type block = { first : int; d : int }

type t = {
  nvars : int;            (** number of variables; literals range over them *)
  clauses : clause list;  (** conjunction of disjunctions *)
  blocks : block list;    (** tournament blocks, their axioms unlisted *)
}

(** [make ?blocks ~nvars clauses] checks every literal is over a variable
    [< nvars] and every block's variables too, and builds the formula
    (default no blocks). Raises [Invalid_argument] otherwise. *)
val make : ?blocks:block list -> nvars:int -> clause list -> t

(** [unsafe_make ?blocks ~nvars clauses] builds the formula without the
    range checks — for producers (the [Crcore] encoder's hot path) whose
    clauses are in range by construction. A literal over a variable
    [>= nvars] yields a formula that later stages reject or misread. *)
val unsafe_make : ?blocks:block list -> nvars:int -> clause list -> t

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
    [i < j < k], [¬x_ij ∨ ¬x_jk ∨ x_ik] and [¬x_ik ∨ x_jk ∨ x_ij], the
    last triple's first. *)
val block_clauses : block -> clause list

(** [expand f] is [f] with every block's axioms listed after its clauses
    (the last block's first) and no blocks: the same models, for code that
    reads clauses instead of loading a solver. *)
val expand : t -> t

(** [add_clause f c] is [f] with [c] appended (variables must fit). *)
val add_clause : t -> clause -> t

(** [eval_clause assignment c] is [true] when [c] holds under the total
    [assignment] ([assignment.(v)] is the truth of variable [v]). *)
val eval_clause : bool array -> clause -> bool

(** [eval assignment f] is [true] when every clause of [f] holds and
    every block's pairs form a strict total order. *)
val eval : bool array -> t -> bool

(** [nlits f] is the total number of literal occurrences in the listed
    clauses. *)
val nlits : t -> int

(** [pp] prints [expand f] in DIMACS. *)
val pp : Format.formatter -> t -> unit

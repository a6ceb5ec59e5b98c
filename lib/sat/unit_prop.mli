(** Unit propagation over a CNF, independent of {!Solver}.

    A list-based fixpoint with per-literal occurrence lists that shares
    no code with the solver's watched-literal and tournament propagation.
    Tests compare the solver's level-0 trail against it, and it is the
    propagation core a proof checker needs to replay learnt clauses.
    Tournament blocks are read through their clause rendering
    ({!Cnf.expand}), [d(d-1)(d-2)/3] clauses per block: a reference, not
    a product path. *)

(** [propagate f] runs unit propagation from [f]'s unit clauses to
    fixpoint. It is [None] when that derives a conflict (an empty clause
    counts as one), and otherwise [Some lits]: every literal the fixpoint
    assigns true, in ascending variable order. Duplicated literals within
    a clause are harmless. *)
val propagate : Cnf.t -> Lit.t list option

(** DIMACS CNF reader/writer for the SAT substrate's command-line front end
    and for test fixtures. *)

(** [parse_string s] parses DIMACS CNF text. Tolerates comment lines ([c])
    and a missing/inconsistent header by growing the variable count.
    Raises [Failure] on malformed input. *)
val parse_string : string -> Cnf.t

(** [parse_file path] reads and parses the file at [path]. *)
val parse_file : string -> Cnf.t

(** [to_string f] renders [f] in DIMACS format, its tournament blocks'
    axioms listed as clauses ({!Cnf.expand}). *)
val to_string : Cnf.t -> string

(** [of_solver s] renders the solver's loaded clause database — level-0
    facts, the binary implication layer, the original long clauses and
    the tournament blocks' axioms, i.e. {!Solver.export_cnf} expanded —
    in DIMACS format: what a failing instance dumped for external
    debugging should contain. *)
val of_solver : Solver.t -> string

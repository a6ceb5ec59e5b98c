(** Validity checking — the paper's [IsValid] (Section V-A, step (1) of the
    framework): reduce the specification to CNF and ask the SAT solver
    whether a valid completion can exist. *)

(** [check enc] decides satisfiability of the already-built Φ(Se). *)
val check : Encode.t -> bool

(** [is_valid ?mode spec] encodes and checks in one step. *)
val is_valid : ?mode:Encode.mode -> Spec.t -> bool

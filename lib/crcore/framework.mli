(** The interactive conflict-resolution framework of Fig. 4: validity
    check → true-value deduction → (done?) → suggestion → user input →
    extend the specification → repeat. *)

(** What the user (or an oracle standing in for one) answers to a
    suggestion: true values for a subset of the suggested attributes,
    by name. An empty answer stops the loop. *)
type user = Rules.suggestion -> schema:Schema.t -> (string * Value.t) list

(** [oracle ?max_answers truth] simulates the paper's experimental setup:
    given the ground-truth tuple of the entity, answer a suggestion with
    the true values of (up to [max_answers] of) the suggested attributes
    ("some with new values", i.e. possibly outside the active domain).
    The paper notes users "do not have to enter values for all attributes
    in A"; a small [max_answers] models that limited effort and is what
    makes multiple interaction rounds meaningful. Default: answer all. *)
val oracle : ?max_answers:int -> Tuple.t -> user

(** A user that never answers; the framework then reports whatever is
    derivable automatically (the 0-interaction rows of Fig. 8(e,i,m)). *)
val silent : user

(** Cumulative wall-clock split across the framework's phases, for the
    Fig. 8(c)/(d) breakdowns. *)
type timings = { mutable validity : float; mutable deduce : float; mutable suggest : float }

type outcome = {
  resolved : Value.t option array;
      (** true values per attribute position at the end of the run *)
  valid : bool;   (** [false] when some (extended) specification was invalid *)
  rounds : int;   (** number of user interactions consumed *)
  per_round_known : int list;
      (** number of attributes resolved after 0, 1, ... rounds *)
  timings : timings;
}

(** [resolve ?mode ?deduce ?repair ?max_rounds ~user spec] runs the loop
    on one entity with nothing shared between phases or rounds: each round
    encodes the (extended) specification with {!Encode.encode}, checks it
    with {!Validity.check}, runs [deduce] and {!Rules.suggest} on solvers
    of their own. It shares no session, cache or lint code
    with {!Engine} (which depends on this module, not the reverse), and is
    the reference the engine's answers are tested against. [deduce]
    defaults to {!Deduce.backbone}, the engine's deducer, and is called
    with no solver; [max_rounds] defaults to 5. Timings are wall-clock
    seconds, encoding counted inside [validity]. *)
val resolve :
  ?mode:Encode.mode ->
  ?deduce:
    (?solver:Sat.Solver.t -> ?budget:int -> ?static:int list -> Encode.t -> Deduce.t) ->
  ?repair:Rules.repair ->
  ?max_rounds:int ->
  user:user ->
  Spec.t ->
  outcome

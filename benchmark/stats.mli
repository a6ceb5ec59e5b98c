(** The statistics every crbench number goes through: percentiles with
    the sample-count rule, quartiles, and the bound and verdict rules
    [crbench compare] applies. *)

(** [percentile sorted p] for [p] in [0, 1], linear interpolation between
    closest ranks over an ascending array. [nan] on an empty array. *)
val percentile : float array -> float -> float

val median : float list -> float

(** [tail_percentile n] is the highest percentile that still has at least
    ten of [n] samples above it: [Some 0.99] from 1000 samples, [Some 0.90]
    from 100, otherwise [None] (report the median only). *)
val tail_percentile : int -> float option

(** [quartiles l] is [(q1, median, q3)] computed as Python's
    [statistics.quantiles(l, n=4)] does (the default "exclusive" method),
    so spreads agree with what other tools report from the same values.
    A single value is its own quartiles. Raises [Invalid_argument] on an
    empty list. *)
val quartiles : float list -> float * float * float

type summary = { n : int; median : float; q1 : float; q3 : float; lo : float; hi : float }

val summarize : float list -> summary

(** [(q3 - q1) / |median|]: the run-to-run spread as a share of the
    median ([0] for fewer than two values). *)
val rel_spread : summary -> float

type better = Lower | Higher

(** How far a metric may worsen before it counts as a regression: a share
    of the parent's median, but never less than an absolute floor.
    [{rel = 0; floor = 0}] is the "absolute zero" bound of a failure
    count. *)
type bound = { rel : float; floor : float }

(** [allowed bound ~parent] is the largest worsening still accepted. *)
val allowed : bound -> parent:float -> float

(** [worsening better ~parent ~change] is how much worse [change] is than
    [parent] in the metric's direction (negative when it is better). *)
val worsening : better -> parent:float -> change:float -> float

(** [within bound better ~parent ~change]: no regression beyond the bound. *)
val within : bound -> better -> parent:float -> change:float -> bool

type verdict = Improved | Unchanged | Regressed | Unresolved

val verdict_to_string : verdict -> string

(** [wins better ~parent ~change] is the share of index-aligned pairs the
    change wins, ties counting for neither side; pairs beyond the shorter
    list are ignored. [0] with no pairs. *)
val wins : better -> parent:float list -> change:float list -> float

(** [verdict bound better ~parent ~change] compares per-run values of
    two commits, pairing them by index (runs should alternate sides):
    - [Improved]: at least 10 pairs, the change wins at least 9 in 10 of
      them, and its median beats the parent's by more than the parent's
      quartile gap [q3 - q1];
    - [Unresolved]: the parent's own spread is wider than the bound, and
      the change does not read better on every run than the parent on
      every run;
    - [Regressed]: the change's median is worse than the parent's by
      more than {!allowed};
    - [Unchanged] otherwise. *)
val verdict : bound -> better -> parent:float list -> change:float list -> verdict

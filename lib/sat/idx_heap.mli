(** Indexed binary max-heap over integer keys [0 .. n-1], ordered by a
    mutable external score array.

    This is the VSIDS order heap of the solver: variables are keys, their
    activities are scores, and [decrease_key]-style updates happen when a
    variable's activity is bumped while it sits in the heap. The heap
    keeps no reference to the scores: every operation that compares is
    given the score array [act] ([act.(k)] is key [k]'s score, larger
    pops first) and reads it directly, so a comparison calls no closure
    and allocates nothing. Callers pass the same scores to every call and
    call {!update} after changing the score of an in-heap key. *)

type t

(** [create ()] is an empty heap. *)
val create : unit -> t

val size : t -> int
val is_empty : t -> bool

(** [mem h k] is [true] when key [k] is currently in the heap. *)
val mem : t -> int -> bool

(** [insert h act k] adds key [k]; no-op if already present. [act] must
    cover every key in the heap and [k]. *)
val insert : t -> float array -> int -> unit

(** [pop_max h act] removes and returns the key with the largest score.
    Raises [Invalid_argument] on an empty heap. *)
val pop_max : t -> float array -> int

(** [update h act k] restores heap order after the score of in-heap key
    [k] changed; no-op if [k] is absent. *)
val update : t -> float array -> int -> unit

(** Entity instances: the sets of tuples, all describing one real-world
    entity, that conflict resolution operates on (Section II-A of the
    paper). Tuples are indexed [0 .. size-1] for use in currency orders. *)

type t

(** [make schema tuples] builds an entity instance. Tuples must be over
    [schema]; the list must be non-empty. *)
val make : Schema.t -> Tuple.t list -> t

val schema : t -> Schema.t
val size : t -> int

(** [tuple e i] is the [i]-th tuple. *)
val tuple : t -> int -> Tuple.t

val tuples : t -> Tuple.t list

(** [value e i a] is attribute position [a] of tuple [i]. *)
val value : t -> int -> int -> Value.t

(** [active_domain e a] is the set of distinct values occurring in
    attribute position [a], in first-occurrence order
    ([adom(Ie.Ai)] of the paper). *)
val active_domain : t -> int -> Value.t list

(** [distinct_rows e] is, ascending, the index of the first tuple of
    every class of tuples equal cell by cell under [Value.equal]: one
    hash per tuple, combining [Value.hash] over its cells, probed in an
    open-addressing table of row indices that starts small and doubles
    with the distinct rows, not with the tuple count; a hit is confirmed
    cell by cell. A tuple with a NaN cell (NaN equals nothing) is a row
    of its own and is not entered in the table. Every value's
    first occurrence in a column is therefore in a returned row, so a
    column scan over these rows meets the values in the order a scan over
    every tuple does. *)
val distinct_rows : t -> int array

(** [active_domain_ids ?rows e a] is [(adom, ids)] from one scan of the
    tuples [rows] (ascending indices; default every tuple): [adom] is the
    distinct values those tuples take at [a], in first-occurrence order,
    and [ids.(k)] is the index in [adom] of tuple [rows.(k)]'s value —
    each scanned cell is hashed once. Over {!distinct_rows} [adom] is
    {!active_domain} as an array. A NaN equals nothing, so each NaN
    occurrence has an [adom] entry of its own. *)
val active_domain_ids : ?rows:int array -> t -> int -> Value.t array * int array

(** [has_conflict e a] is [true] when attribute [a] holds more than one
    distinct value across the tuples. *)
val has_conflict : t -> int -> bool

(** [conflicting_attrs e] is the positions for which {!has_conflict}
    holds. *)
val conflicting_attrs : t -> int list

val pp : Format.formatter -> t -> unit

(** Strict partial orders on [0 .. n-1] with an incrementally maintained
    transitive closure.

    This represents the per-attribute currency orders [≺_Ai] of the paper:
    adding an ordered pair either succeeds (and everything implied by
    transitivity becomes visible through {!lt}) or is rejected because it
    would create a cycle, i.e. contradict the order built so far. *)

type t

val create : int -> t
val size : t -> int

(** [add o a b] records [a ≺ b]. Returns [false] and leaves [o] unchanged
    when [a = b] or [b ⪯ a] already holds; [true] otherwise. *)
val add : t -> int -> int -> bool

(** [lt o a b] is [true] when [a ≺ b] is in the transitive closure. *)
val lt : t -> int -> int -> bool

(** [compatible o a b] is [true] when [a ≺ b] could still be added. *)
val compatible : t -> int -> int -> bool

(** [pairs o] is every pair of the closure, i.e. the full relation. *)
val pairs : t -> (int * int) list

(** [n_pairs o] is the size of the closure relation. *)
val n_pairs : t -> int

(** [maximal o] is the list of elements with no element above them. *)
val maximal : t -> int list

(** [maximum o] is [Some m] when a single element dominates {e all}
    others. *)
val maximum : t -> int option

(** [copy o] is an independent copy. *)
val copy : t -> t

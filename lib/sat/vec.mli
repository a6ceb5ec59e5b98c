(** Growable arrays, in the style of MiniSat's [vec].

    Used pervasively inside the solver for trails, watch lists and clause
    databases, where amortised O(1) push and in-place truncation matter. *)

type 'a t

(** [create ~dummy] is an empty vector. [dummy] fills unused slots; it is
    never observable through the API. *)
val create : dummy:'a -> 'a t

(** [make n x ~dummy] is a vector of [n] copies of [x]. *)
val make : int -> 'a -> dummy:'a -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [get v i] is the [i]-th element. Raises [Invalid_argument] when out of
    bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element. *)
val pop : 'a t -> 'a

val last : 'a t -> 'a

(** [shrink v n] truncates [v] to its first [n] elements. *)
val shrink : 'a t -> int -> unit

val clear : 'a t -> unit

(** [grow_to v n x] extends [v] with copies of [x] until its size is at
    least [n]. *)
val grow_to : 'a t -> int -> 'a -> unit

(** [swap_remove v i] removes element [i] by swapping the last element into
    its place; O(1), does not preserve order. *)
val swap_remove : 'a t -> int -> unit

val iter : ('a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val of_list : 'a list -> dummy:'a -> 'a t
val copy : 'a t -> 'a t

(** [fold f init v] folds [f] left-to-right over the live elements. *)
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

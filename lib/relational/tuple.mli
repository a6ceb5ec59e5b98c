(** Tuples over a schema: a value per attribute position. *)

type t

(** [make schema values] pairs the values with the schema positionally.
    Raises [Invalid_argument] on an arity mismatch. *)
val make : Schema.t -> Value.t list -> t

val of_array : Schema.t -> Value.t array -> t
val schema : t -> Schema.t

(** [get t i] is the value at position [i]. *)
val get : t -> int -> Value.t

(** [cells t] is [t]'s values, position [i] at index [i]: the tuple's own
    array, not a copy, so the caller must not modify it. Loops over every
    cell of many tuples read it instead of calling {!get} per cell. *)
val cells : t -> Value.t array

(** [get_by_name t a] is the value of attribute [a]. Raises [Not_found]. *)
val get_by_name : t -> string -> Value.t

(** [set t i v] is a copy of [t] with position [i] replaced. *)
val set : t -> int -> Value.t -> t

val values : t -> Value.t list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

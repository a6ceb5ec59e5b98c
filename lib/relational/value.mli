(** Attribute values: nulls, integers, floats and strings.

    Comparison follows the paper's conventions: [null] is below every
    non-null value (Example 2(b): "assuming null < k for any number k"),
    numbers compare numerically across [Int]/[Float] (exactly: an [Int]
    equals a [Float] only when the float is that very integer, even
    beyond 2^53 where [float_of_int] rounds), and strings compare
    lexicographically. Values of incomparable kinds (a string against a
    number) only support [=]/[≠]; ordered comparisons on them are [false]. *)

type t = Null | Int of int | Float of float | Str of string

(** Comparison operators of currency-constraint predicates. *)
type op = Eq | Neq | Lt | Leq | Gt | Geq

val equal : t -> t -> bool

(** [hash v] agrees with {!equal}: equal values hash alike ([Int 3] and
    [Float 3.], [0.] and [-0.], [Int min_int] and [Float (-0x1p62)]).
    An [Int], and a [Float] that is integral and in [\[-2^62, 2^62)],
    hash by one integer mix of that int (no float is boxed); a string by
    [String.hash]; other floats and [Null] by [Hashtbl.hash]. The result
    is non-negative. This is the one hash of values: {!Tbl} and
    [Entity.distinct_rows] both use it. *)
val hash : t -> int

(** Hash tables keyed with {!equal} and {!hash}: a NaN key is never
    found, since NaN equals nothing. *)
module Tbl : Hashtbl.S with type key = t

(** [compare_opt a b] is [Some] of the usual [-1/0/1] ordering when [a] and
    [b] are comparable, [None] otherwise. [Null] compares below
    everything and equal to itself. *)
val compare_opt : t -> t -> int option

(** [eval op a b] evaluates [a op b]; ordered operators on incomparable
    kinds are [false]. *)
val eval : op -> t -> t -> bool

(** A total order for use in maps and sorting; ranks kinds arbitrarily but
    consistently ([Null] < numbers < strings). *)
val total_compare : t -> t -> int

val is_null : t -> bool

(** [is_nan v]: [v] is a NaN float, which {!equal}s nothing, itself
    included. *)
val is_nan : t -> bool

(** [of_string s] parses ["null"]/[""] as [Null], then tries [Int], then
    [Float], falling back to [Str]. *)
val of_string : string -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val op_of_string : string -> op option
val op_to_string : op -> string

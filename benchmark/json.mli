(** Minimal JSON: enough to write crbench's result files and the Chrome
    trace, and to read them (and [BENCHMARK.json]) back for
    [crbench compare]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact single-line rendering. Integral numbers print without a
    fraction; every other number prints with all 17 significant digits. *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** [member k v] is field [k] of object [v]; [Null] when absent or when
    [v] is not an object. *)
val member : string -> t -> t

val to_float : t -> float
(** Raises [Failure] unless the value is a number. *)

val to_list : t -> t list
(** Raises [Failure] unless the value is an array. *)

val to_str : t -> string
(** Raises [Failure] unless the value is a string. *)

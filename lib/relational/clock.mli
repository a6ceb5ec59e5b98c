(** Elapsed time on the monotonic clock ([CLOCK_MONOTONIC]), the one
    clock every duration, timeout and deadline in the program reads. A
    clock step cannot skew a difference of two readings; a reading alone
    means nothing, so none is ever persisted or sent. *)

(** seconds *)
val now_s : unit -> float

(** milliseconds *)
val now_ms : unit -> float

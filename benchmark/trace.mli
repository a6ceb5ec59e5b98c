(** In-memory spans for the traced run, and the clock every crbench time
    comes from.

    A span records one call into a layer: its name, start and stop on the
    monotonic clock, the span it ran inside, and the request it served
    (spans of one request or entity share a [req] id). Spans stay in memory
    until the run ends; {!write_chrome} then writes them as Chrome
    trace-event JSON, which Perfetto and [chrome://tracing] open. A
    tracer is single-threaded: open spans form one stack. *)

(** Seconds on the monotonic clock ([bechamel.monotonic_clock], i.e.
    [CLOCK_MONOTONIC]); only differences are meaningful. *)
val now : unit -> float

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, {!now} clock *)
  stop : float;
  parent : int;  (** id of the enclosing span, [-1] at the root *)
  req : int;
}

type t

(** [create ~enabled ()]: a disabled tracer records nothing, and {!span}
    then only calls its function — the untraced runs use one, so traced
    and untraced runs execute the same code. *)
val create : enabled:bool -> unit -> t

(** [span t ?req name f] runs [f ()] inside a span. [req] defaults to the
    enclosing span's request id, or [0] at the root. *)
val span : t -> ?req:int -> string -> (unit -> 'a) -> 'a

(** Every closed span, in start order. *)
val spans : t -> span array

(** [self_times spans].(i) is span [i]'s duration minus the part of its
    interval that its child spans cover; overlapping children are counted
    once, and a child reaching outside its parent counts only inside it. *)
val self_times : span array -> float array

(** [self_by_name spans] groups {!self_times} by span name, in order of
    first appearance. *)
val self_by_name : span array -> (string * float list) list

(** [write_chrome path spans] writes the spans as complete ("X") trace
    events, times in microseconds from the earliest span, with the span
    id, parent and request in [args]. *)
val write_chrome : string -> span array -> unit

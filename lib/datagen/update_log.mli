(** Replay a synthetic dataset as an update log: the streaming workload
    the [crsolved] daemon serves.

    The generators ({!Person}, {!Nba}) emit each entity as a shuffled,
    timestamp-free pile of tuples, holding the simulated history positions
    ([stamps]) out for validation. This module turns those cases back into
    what a replication consumer would actually see — per-entity tuple
    {e arrivals in history order}, interleaved across many entities by a
    seeded scheduler, sprinkled with user-asserted currency orders (pure
    order extensions, the cheapest incremental path) and with re-resolve
    points marking where a reader demanded an answer.

    Per-entity event order is preserved; only the interleaving across
    entities is random. The same seed always yields the same stream. *)

type event =
  | Arrival of { label : string; tuple : Tuple.t }
      (** the next tuple of the entity's history arrives *)
  | Assert_order of { label : string; order : Crcore.Spec.order_edge }
      (** a user asserts a currency edge between two already-arrived
          tuples (indices into the entity in arrival order); consistent
          with the hidden stamps and never between equal values *)
  | Resolve of string  (** a reader asks for the entity's current tuple *)

type params = {
  order_rate : float;
      (** expected asserted-order events per arrival (default 0.25) *)
  resolve_rate : float;
      (** expected mid-stream resolve points per arrival (default 0.35);
          independent of the final resolve *)
  dup_rate : float;
      (** at-least-once delivery: probability per history step that the
          stream re-delivers an earlier claim verbatim (default 0.2). A
          re-delivered tuple keeps the original's hidden stamp and adds
          no fresh values — the pure-extension shape the [Delta] path of
          {!Crcore.Encode.extend} serves without a solver reload. *)
  tail_reads : int;
      (** steady-state reads per entity once its history has fully
          arrived (default 3): each is a resolve, preceded with the usual
          rates by a re-delivery or an asserted order — the hot-entity
          regime where a daemon serves repeated reads of a live session *)
  final_resolve : bool;
      (** end every entity's stream with a resolve even when [tail_reads]
          is 0 (default true) *)
  seed : int;  (** interleaving and event placement (default 77) *)
}

val default_params : params

type t = {
  dataset : Types.dataset;
  events : event list;
  n_arrivals : int;
  n_orders : int;
  n_resolves : int;
}

(** [replay ?params ds] builds the interleaved stream over every case of
    [ds]. Entity labels are ["e<id>"]. *)
val replay : ?params:params -> Types.dataset -> t

(** The sequence number a client should stamp on the synthetic [OPEN]
    that precedes an entity's first arrival (the generators emit no
    explicit open event). Always 1 — {!with_seqs} numbers the mutating
    events from 2 so the whole per-entity stream is strictly monotone. *)
val open_seq : int

(** [with_seqs log] pairs every event with the [@seq] sequence number an
    at-least-once client would stamp it with: per-entity, strictly
    monotone from [open_seq + 1] for arrivals and asserted orders;
    [None] for resolves (reads are never deduplicated). Replaying a
    stamped prefix twice against a durable daemon must coalesce to the
    same state — the crash-recovery redelivery contract. *)
val with_seqs : t -> (int option * event) list

val labels : t -> string list

(** Per-daemon write-ahead log: every state-changing protocol event
    ([OPEN]/[INGEST]/[ORDER]/[CLOSE]) is appended — {!Frame}-framed, CRC
    checked — before the daemon acknowledges it, so a crashed [crsolved]
    replays the log and reaches exactly the state an uninterrupted run
    would hold.

    The log is a directory of numbered segments ([wal-00000042.log]);
    {!append} rotates to a fresh segment past a size threshold, and a
    {!Snapshot} taken after a rotation lets recovery delete every segment
    it covers. Replay tolerates a torn tail — a partial or corrupt final
    record, the signature of a crash mid-write — by truncating at the
    first bad record; only the unacknowledged suffix is lost, which the
    at-least-once contract lets clients re-send (idempotently, when they
    stamp events with [@seq] sequence numbers).

    Events carry the {e raw} wire strings (labels, CSV rows), not parsed
    values: replaying a record through the daemon's normal apply path is
    byte-for-byte the same computation as the original request. *)

(** When appended records are forced to disk:
    - [Always] — fsync after every record; no acknowledged event can be
      lost even to an OS crash, at a large per-request cost;
    - [Interval s] — a flusher ({!maybe_flush}) fsyncs at most every [s]
      seconds; an OS crash can lose the last interval, a plain process
      crash loses nothing (completed [write]s survive the process);
    - [Never] — fsync only on rotation and close. *)
type fsync = Always | Interval of float | Never

val fsync_to_string : fsync -> string

(** [fsync_of_string s] accepts ["always"], ["never"], ["interval"]
    (default 0.05 s) and ["interval:<seconds>"]. *)
val fsync_of_string : string -> (fsync, string) result

(** The loggable protocol events. Row and header fields are the raw
    strings off the wire; [seq] is the client's per-label sequence number
    when it supplied one (the dedup key for at-least-once redelivery). *)
type event =
  | Open of { label : string; header : string list }
  | Ingest of { label : string; row : string list }
  | Order of { label : string; attr : string; lo : int; hi : int }
  | Close of string

type record = { seq : int option; event : event }

(** Textual payload form of a record (what gets framed), and its parser —
    exposed for tests and for {!Snapshot}'s reuse. Labels and attribute
    names must not contain ['|'] or newlines (the wire protocol already
    guarantees this). *)
val record_to_line : record -> string

val record_of_line : string -> (record, string) result

(** {1 Writing} *)

type writer

(** [open_writer ?fsync ?segment_bytes ~dir ()] creates [dir] if needed
    and starts a {e fresh} segment numbered past every existing segment
    and snapshot — an appender never touches bytes a previous life wrote.
    Defaults: [Interval 0.05], 8 MiB segments. Thread-safe. *)
val open_writer : ?fsync:fsync -> ?segment_bytes:int -> dir:string -> unit -> writer

val append : writer -> record -> unit

(** Force everything appended so far to disk (any policy). *)
val flush : writer -> unit

(** Under [Interval s]: fsync iff there are unsynced records and the last
    sync is at least [s] old. No-op otherwise. The fsync runs without
    the writer's lock, so concurrent {!append}s never wait on the disk;
    it covers every record appended before the call. *)
val maybe_flush : writer -> unit

(** [rotate w] fsyncs and closes the current segment and opens the next;
    returns the closed segment's index. A snapshot taken after [rotate]
    covers everything through that index. *)
val rotate : writer -> int

val current_segment : writer -> int

(** Records appended over the writer's life. *)
val appended : writer -> int

(** Records not yet covered by an fsync — the WAL lag [HEALTH] reports. *)
val unsynced : writer -> int

(** Seconds since the last fsync (0 if nothing was ever appended). *)
val last_sync_age : writer -> float

val close_writer : writer -> unit

(** {1 Reading} *)

type replay = {
  records : int;  (** intact records delivered to the callback *)
  segments : int;  (** segments visited *)
  torn : bool;  (** replay hit a torn/corrupt tail and stopped there *)
  truncated_bytes : int;  (** bytes discarded past the last intact record *)
}

(** [replay ~dir ?above ?repair f] feeds every intact record of every
    segment with index > [above] (default: all), in segment-then-offset
    order, to [f]. At the first bad record the scan stops — later bytes
    and later segments are the torn tail — and with [repair] (default
    [true]) the torn segment file is truncated to its valid prefix.
    Records whose payload no longer parses count as bad. A missing
    directory replays as empty. *)
val replay :
  dir:string -> ?above:int -> ?repair:bool -> (record -> unit) -> replay

(** Existing segment indices, ascending. *)
val segments : dir:string -> int list

(** [remove_upto ~dir k] deletes every segment with index <= [k]
    (compaction after a successful snapshot); returns how many. *)
val remove_upto : dir:string -> int -> int

(** {1 Shared directory helpers} *)

val mkdir_p : string -> unit

(** [indexed_files ~dir ~prefix ~suffix] lists [(index, path)] of files
    named [<prefix><%08d><suffix>], ascending. Missing dir = []. *)
val indexed_files : dir:string -> prefix:string -> suffix:string -> (int * string) list

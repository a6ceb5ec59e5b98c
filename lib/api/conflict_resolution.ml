(** The stable public surface of the conflict-resolution system.

    One [open]-able (or dot-accessible) module collecting everything an
    application needs to resolve conflicts by data currency and
    consistency (ICDE 2013): the relational building blocks, the
    specification type [Se = (It, Σ, Γ)] with its constraint parsers, the
    interactive framework of Fig. 4 and its batch {!Engine}, and the
    traditional baselines.

    Internal libraries ([sat], [maxsat], [clique], [porder], the module
    internals of [crcore]) are deliberately not re-exported: they may
    change freely between versions, while the aliases below are the
    compatibility surface.

    {[
      open Conflict_resolution

      let spec = Spec.make entity ~orders:[] ~sigma ~gamma in
      let outcome = Framework.resolve ~user:Framework.silent spec in
      ...
    ]} *)

(** {1 Relational building blocks} *)

(** Attribute values: integers, strings, nulls. *)
module Value = Value

(** Relation schemas (attribute names and positions). *)
module Schema = Schema

(** Tuples over a schema. *)
module Tuple = Tuple

(** Entity instances: the tuples referring to one real-world entity. *)
module Entity = Entity

(** CSV reading/writing, including [load_entity]. *)
module Csv = Csv

(** {1 Specifications and their parsers} *)

(** Entity specifications [Se = (It, Σ, Γ)]; build with {!Spec.make_res}
    (typed errors) or {!Spec.make} (raising). *)
module Spec = Crcore.Spec

(** Currency-constraint ASTs (the Σ of a specification). *)
module Constraint_ast = Currency.Constraint_ast

(** Parser for the textual currency-constraint syntax, e.g.
    [t1\[status\] = "working" & t2\[status\] = "retired" -> prec(status)]. *)
module Constraint_parser = Currency.Parser

(** Constant conditional functional dependencies (the Γ of a
    specification), with [parse] / [parse_many] for the
    [AC = 212 -> city = "NY"] syntax. *)
module Constant_cfd = Cfd.Constant_cfd

(** {1 Reasoning} *)

(** The CNF encoding Ω(Se)/Φ(Se); chiefly useful for {!Encode.mode}
    ([Paper] vs the total-order [Exact]) accepted across the API. *)
module Encode = Crcore.Encode

(** Validity of a specification (does a valid completion exist?). *)
module Validity = Crcore.Validity

(** True-value deduction (certain facts in every valid completion). *)
module Deduce = Crcore.Deduce

(** Derivation rules and the [Suggest] pipeline. *)
module Rules = Crcore.Rules

(** {1 Resolution} *)

(** The interactive loop of Fig. 4, one entity per call. *)
module Framework = Crcore.Framework

(** Batch resolution: incremental solver sessions, a shared shape-template
    cache, and structured statistics over collections of specifications.
    Set [config.jobs > 1] to resolve entities on that many domains in
    parallel — results are identical to the sequential run and arrive in
    input order. *)
module Engine = Crcore.Engine

(** Whole-relation repair: partition by key, resolve each entity. *)
module Repair = Crcore.Repair

(** Deterministic fault injection at the engine's phase boundaries —
    for testing batch robustness (per-entity isolation, the budget
    degradation ladder) against simulated crashes and hangs. *)
module Faults = Crcore.Faults

(** {1 Baselines and evaluation} *)

(** The traditional heuristic conflict-resolution baseline. *)
module Pick = Crcore.Pick

(** Accuracy metrics (precision/recall against ground truth). *)
module Metrics = Crcore.Metrics

(** The encoding mode, re-exported for convenience: [Paper] is the
    heuristic reduction of Lemma 5, [Exact] encodes total orders (one
    variable per value pair, [v ≺ u] as the negation of [u ≺ v]). *)
type mode = Crcore.Encode.mode = Paper | Exact

(** {1 Configuration} *)

module Config = struct
  type t = {
    engine : Crcore.Engine.config;
    max_sessions : int;
    ttl_s : float option;
    (* durability + overload protection (the crsolved daemon) *)
    wal_dir : string option;
    fsync : Durable.Wal.fsync;
    snapshot_every : int;
    max_inflight : int;
    request_deadline : float option;
    idle_timeout : float option;
  }

  let default =
    {
      engine = Crcore.Engine.default_config;
      max_sessions = 1024;
      ttl_s = None;
      wal_dir = None;
      fsync = Durable.Wal.Interval 0.05;
      snapshot_every = 10_000;
      max_inflight = 0;
      request_deadline = None;
      idle_timeout = None;
    }

  let with_mode mode t = { t with engine = { t.engine with Crcore.Engine.mode } }

  let with_max_rounds max_rounds t =
    { t with engine = { t.engine with Crcore.Engine.max_rounds } }

  let with_jobs jobs t = { t with engine = { t.engine with Crcore.Engine.jobs } }

  let with_clamp_jobs clamp_jobs t =
    { t with engine = { t.engine with Crcore.Engine.clamp_jobs } }

  let with_budget_conflicts budget_conflicts t =
    { t with engine = { t.engine with Crcore.Engine.budget_conflicts } }

  let with_budget_ms budget_ms t =
    { t with engine = { t.engine with Crcore.Engine.budget_ms } }

  let with_max_degrade max_degrade t =
    { t with engine = { t.engine with Crcore.Engine.max_degrade } }

  let with_pick pick_strategy t =
    { t with engine = { t.engine with Crcore.Engine.pick_strategy } }

  let with_fail_fast fail_fast t =
    { t with engine = { t.engine with Crcore.Engine.fail_fast } }

  let with_session_cap max_sessions t = { t with max_sessions = max 1 max_sessions }
  let with_session_ttl ttl_s t = { t with ttl_s }
  let with_wal_dir wal_dir t = { t with wal_dir }
  let with_fsync fsync t = { t with fsync }
  let with_snapshot_every snapshot_every t = { t with snapshot_every = max 0 snapshot_every }
  let with_max_inflight max_inflight t = { t with max_inflight = max 0 max_inflight }
  let with_request_deadline request_deadline t = { t with request_deadline }
  let with_idle_timeout idle_timeout t = { t with idle_timeout }

  (* The request deadline is enforced through the engine's per-request
     wall-clock budget: each resolve re-arms [budget_ms] capped by the
     deadline, so a deadline bounds solver time rather than interrupting
     I/O mid-reply (it is a soft bound — see DESIGN §15). *)
  let to_engine t =
    match t.request_deadline with
    | None -> t.engine
    | Some d ->
        let cap = d *. 1000. in
        let budget_ms =
          match t.engine.Crcore.Engine.budget_ms with
          | None -> Some cap
          | Some b -> Some (Float.min b cap)
        in
        { t.engine with Crcore.Engine.budget_ms }

  let max_sessions t = t.max_sessions
  let session_ttl t = t.ttl_s
  let wal_dir t = t.wal_dir
  let fsync t = t.fsync
  let snapshot_every t = t.snapshot_every
  let max_inflight t = t.max_inflight
  let request_deadline t = t.request_deadline
  let idle_timeout t = t.idle_timeout
end

(** {1 Sessions} *)

module Session = struct
  type handle = Crcore.Session.handle

  let create ?(config = Config.default) ?cache ?label spec =
    Crcore.Session.create ~config:(Config.to_engine config) ?cache ?label spec

  let label = Crcore.Session.label
  let spec = Crcore.Session.spec
  let ingest = Crcore.Session.ingest
  let resolve = Crcore.Session.resolve
  let baseline = Crcore.Session.baseline
  let last_result = Crcore.Session.last_result
  let stats = Crcore.Session.stats
  let resolves = Crcore.Session.resolves
  let close = Crcore.Session.close
  let is_closed = Crcore.Session.is_closed

  module Store = struct
    include Crcore.Session.Store

    let create ?(config = Config.default) ?cache () =
      Crcore.Session.Store.create ~config:(Config.to_engine config) ?cache
        ~max_sessions:(Config.max_sessions config) ?ttl_s:(Config.session_ttl config) ()
  end
end

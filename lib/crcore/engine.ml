type user = Framework.user

type degrade_level = Exact | PartialDeduce | PickFallback

let level_rank = function Exact -> 0 | PartialDeduce -> 1 | PickFallback -> 2

let level_to_string = function
  | Exact -> "exact"
  | PartialDeduce -> "partial"
  | PickFallback -> "pick"

type phase = Lint_p | Encode_p | Validity_p | Deduce_p | Suggest_p

let phase_to_string = function
  | Lint_p -> "lint"
  | Encode_p -> "encode"
  | Validity_p -> "validity"
  | Deduce_p -> "deduce"
  | Suggest_p -> "suggest"

type budget_kind = Conflicts | Wall

type degrade_reason = { cause : budget_kind; phase : phase }

let reason_to_string r =
  Printf.sprintf "%s@%s"
    (match r.cause with Conflicts -> "conflicts" | Wall -> "wall")
    (phase_to_string r.phase)

type config = {
  mode : Encode.mode;
  max_rounds : int;
  jobs : int;
  clamp_jobs : bool;
  budget_conflicts : int option;
  budget_ms : float option;
  max_degrade : degrade_level;
  pick_strategy : Pick.strategy;
  fail_fast : bool;
}

let default_config =
  {
    mode = Encode.Paper;
    max_rounds = 5;
    jobs = 1;
    clamp_jobs = true;
    budget_conflicts = None;
    budget_ms = None;
    max_degrade = PickFallback;
    pick_strategy = Pick.Favoured;
    fail_fast = false;
  }

type phase_times = {
  mutable lint_ms : float;
  mutable encode_ms : float;
  mutable saturate_ms : float;
  mutable validity_ms : float;
  mutable deduce_ms : float;
  mutable suggest_ms : float;
}

let zero_times () =
  {
    lint_ms = 0.;
    encode_ms = 0.;
    saturate_ms = 0.;
    validity_ms = 0.;
    deduce_ms = 0.;
    suggest_ms = 0.;
  }

type entity_stats = {
  times : phase_times;
  solver : Sat.Solver.stats;
  solvers_built : int;
  solvers_reused : int;
  deduce_sat_calls : int;
  deduce_probes : int;
  deduce_model_prunes : int;
  deduce_seeded : int;
  probes_avoided : int;
  template_hits : int;
  template_misses : int;
  encode_alloc_words : float;
  delta_extensions : int;
  rebuilds : int;
  rebuilds_renumbered : int;
  rebuilds_impure : int;
  lint_rejected : bool;
}

type result = {
  resolved : Value.t option array;
  valid : bool;
  rounds : int;
  per_round_known : int list;
  level : degrade_level;
  degrade_reason : degrade_reason option;
  conflicts_spent : int;
}

type error_info = { exn : string; backtrace : string; phase : phase }

let zero_entity_stats () =
  {
    times = zero_times ();
    solver = Sat.Solver.zero_stats;
    solvers_built = 0;
    solvers_reused = 0;
    deduce_sat_calls = 0;
    deduce_probes = 0;
    deduce_model_prunes = 0;
    deduce_seeded = 0;
    probes_avoided = 0;
    template_hits = 0;
    template_misses = 0;
    encode_alloc_words = 0.;
    delta_extensions = 0;
    rebuilds = 0;
    rebuilds_renumbered = 0;
    rebuilds_impure = 0;
    lint_rejected = false;
  }

(* ---- template cache ---- *)

(* The template fingerprint: the spec with the entity, the constants and
   the tuple ids abstracted away — mode, interned Σ/Γ ids (see
   {!Spec.sigma_id}) and the schema. Distinct entities of one shape share
   the fingerprint, so a batch of them compiles the shape once; hashing is
   O(1) (two ints and the mode). The cache holds templates only, never a
   per-entity encoding, so it grows with the number of shapes seen. *)
module TKey = struct
  type t = Encode.mode * int * int * Schema.t

  let equal ((m1, s1, g1, c1) : t) ((m2, s2, g2, c2) : t) =
    m1 = m2 && s1 = s2 && g1 = g2 && Schema.equal c1 c2

  let hash ((m, s, g, _) : t) = Hashtbl.hash (m, s, g)
end

module TTbl = Hashtbl.Make (TKey)

(* Sharded for domain-parallel batches: a lookup locks only the shard its
   key hashes to, and compilation on a miss runs outside any lock, so
   domains compiling distinct shapes never serialise on the cache. *)
let n_shards = 16

type cache = {
  tshards : Encode.template TTbl.t array;
  locks : Mutex.t array;
}

let create_cache () =
  {
    tshards = Array.init n_shards (fun _ -> TTbl.create 4);
    locks = Array.init n_shards (fun _ -> Mutex.create ());
  }

(* the last template this domain served, keyed by fingerprint: a batch of
   same-shape entities takes the lock once per domain, not per entity *)
let tmemo : (TKey.t * Encode.template) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* [true] iff the template already existed (a template hit) *)
let template_for ~(config : config) ~cache spec =
  let key =
    (config.mode, Spec.sigma_id spec, Spec.gamma_id spec, Spec.schema spec)
  in
  let slot = Domain.DLS.get tmemo in
  match !slot with
  | Some (k, tpl) when TKey.equal k key -> (tpl, true)
  | _ ->
      let i = TKey.hash key land (n_shards - 1) in
      let lock = cache.locks.(i) in
      Mutex.lock lock;
      let found = TTbl.find_opt cache.tshards.(i) key in
      Mutex.unlock lock;
      let tpl, hit =
        match found with
        | Some tpl -> (tpl, true)
        | None ->
            (* compile outside the lock; racing domains compile twice and
               first-in wins *)
            let tpl = Encode.template ~mode:config.mode spec in
            Mutex.lock lock;
            let tpl =
              match TTbl.find_opt cache.tshards.(i) key with
              | Some existing -> existing
              | None ->
                  TTbl.replace cache.tshards.(i) key tpl;
                  tpl
            in
            Mutex.unlock lock;
            (tpl, false)
      in
      slot := Some (key, tpl);
      (tpl, hit)

(* ---- sessions ---- *)

type session = {
  config : config;
  cache : cache;
  times : phase_times;
  track : phase ref;  (* last phase entered; attributes exceptions and faults *)
  faults : Faults.ctx;
  mutable deadline : float option;  (* absolute [Clock.now_ms] bound from [budget_ms] *)
  mutable spent_base : int;
      (* conflicts accrued before the current request: [refresh_budget]
         moves it so long-lived sessions get a full budget per request *)
  mutable spec : Spec.t;
  mutable enc : Encode.t option;  (* [None] iff a cheap lint check rejected the spec *)
  mutable solver : Sat.Solver.t option;
      (* the incremental session; [None] iff lint rejected the spec *)
  mutable retired : Sat.Solver.stats;    (* stats of replaced solvers *)
  mutable burnt : int;           (* injected conflict-budget consumption *)
  mutable forced_exhaust : bool; (* a pending injected budget-[Unknown] *)
  mutable solvers_built : int;
  mutable solvers_reused : int;
  mutable deduce_sat_calls : int;
  mutable deduce_probes : int;
  mutable deduce_model_prunes : int;
  mutable deduce_seeded : int;
  mutable template_hits : int;
  mutable template_misses : int;
  mutable encode_alloc_words : float;
  mutable delta_extensions : int;
  mutable rebuilds_renumbered : int;
  mutable rebuilds_impure : int;
  mutable lint_rejected : bool;
      (* provably unsat: a cheap check rejected it before encoding, or
         loading its CNF refuted it at level 0; either way no solver is
         kept *)
}

(* elapsed time, not [Sys.time]: process CPU time charges one domain's
   work with every running domain's cycles, so per-phase times would be
   nonsense under a parallel batch. The clock is monotonic ({!Clock}), so
   a clock step cannot skew a phase time or a budget deadline. *)
let timed_t times slot f =
  let t0 = Clock.now_ms () in
  let r = f () in
  let dt = Clock.now_ms () -. t0 in
  (match slot with
  | Lint_p -> times.lint_ms <- times.lint_ms +. dt
  | Encode_p -> times.encode_ms <- times.encode_ms +. dt
  | Validity_p -> times.validity_ms <- times.validity_ms +. dt
  | Deduce_p -> times.deduce_ms <- times.deduce_ms +. dt
  | Suggest_p -> times.suggest_ms <- times.suggest_ms +. dt);
  r

let timed sess slot f =
  sess.track := slot;
  match slot with
  | Encode_p ->
      (* [Gc.minor_words] counts the calling domain's allocation, and a
         session runs a phase on one domain, so the delta is this encode
         work's own words — the per-domain allocation signal of a
         parallel batch *)
      let w0 = Gc.minor_words () in
      let r = timed_t sess.times slot f in
      sess.encode_alloc_words <- sess.encode_alloc_words +. (Gc.minor_words () -. w0);
      r
  | _ -> timed_t sess.times slot f

let the_enc sess =
  match sess.enc with
  | Some enc -> enc
  | None -> invalid_arg "Engine: session was rejected before encoding"

let the_solver sess =
  match sess.solver with
  | Some s -> s
  | None -> invalid_arg "Engine: session was rejected before solving"

(* The shape compiles once and each entity is stamped into it by the thin
   instantiation stage, outside any lock; a lookup counts as a hit when
   the shape was already compiled. *)
let encode_spec sess spec =
  let tpl, hit = template_for ~config:sess.config ~cache:sess.cache spec in
  let enc = Encode.instantiate tpl spec in
  if hit then sess.template_hits <- sess.template_hits + 1
  else sess.template_misses <- sess.template_misses + 1;
  enc

let fresh_solver sess enc =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s enc.Encode.cnf;
  sess.solvers_built <- sess.solvers_built + 1;
  s

let retire sess s = sess.retired <- Sat.Solver.add_stats sess.retired (Sat.Solver.stats s)

(* ---- per-entity conflict/wall budgets ----

   The conflict budget must survive solver rebuilds (Renumbered / impure
   extensions replace the live solver), so the session, not the solver,
   is the unit of account: spent = conflicts of retired solvers + the
   live solver + injected burn. Each solver phase re-arms the live
   solver with whatever remains. *)

let live_conflicts sess =
  match sess.solver with
  | Some s -> (Sat.Solver.stats s).Sat.Solver.conflicts
  | None -> 0

(* total conflicts the session ever accrued, baseline included *)
let conflicts_accrued sess =
  sess.retired.Sat.Solver.conflicts + live_conflicts sess + sess.burnt

(* conflicts charged against the current request's budget *)
let conflicts_spent sess = conflicts_accrued sess - sess.spent_base

let conflicts_remaining sess =
  Option.map (fun b -> max 0 (b - conflicts_spent sess)) sess.config.budget_conflicts

(* arm the remaining conflict budget on a solver about to serve a phase *)
let arm_budget sess s =
  match conflicts_remaining sess with
  | Some left -> Sat.Solver.set_budget ~conflicts:left s
  | None -> ()

let wall_tripped sess =
  match sess.deadline with Some d -> Clock.now_ms () > d | None -> false

(* [true] once per injected [Exhaust] (consumed), or while the conflict
   budget is fully spent *)
let exhausted_now sess =
  if sess.forced_exhaust then begin
    sess.forced_exhaust <- false;
    true
  end
  else match conflicts_remaining sess with Some 0 -> true | _ -> false

(* fault hook: called at the start of each working phase *)
let fire sess point ph =
  sess.track := ph;
  match Faults.fire sess.faults point with
  | None -> ()
  | Some (Faults.Raise msg) -> raise (Faults.Injected msg)
  | Some (Faults.Burn n) -> sess.burnt <- sess.burnt + max 0 n
  | Some Faults.Exhaust -> sess.forced_exhaust <- true

let make_session ?(config = default_config) ?cache ?label ~track spec =
  let cache = match cache with Some c -> c | None -> create_cache () in
  let times = zero_times () in
  (* the rejection test, first half: the checks that need no ground
     instance (E001/E003/E004) skip Instantiation/ConvertToCNF entirely.
     Sound: every E-level diagnostic implies Φ(Se) unsatisfiable
     (property-tested in test_analyze). *)
  track := Lint_p;
  let lint_rejected =
    timed_t times Lint_p (fun () -> Analyze.has_errors (Analyze.cheap_errors spec))
  in
  let sess =
    {
      config;
      cache;
      times;
      track;
      faults = Faults.make ~label;
      deadline = None;
      spent_base = 0;
      spec;
      enc = None;
      solver = None;
      retired = Sat.Solver.zero_stats;
      burnt = 0;
      forced_exhaust = false;
      solvers_built = 0;
      solvers_reused = 0;
      deduce_sat_calls = 0;
      deduce_probes = 0;
      deduce_model_prunes = 0;
      deduce_seeded = 0;
      template_hits = 0;
      template_misses = 0;
      encode_alloc_words = 0.;
      delta_extensions = 0;
      rebuilds_renumbered = 0;
      rebuilds_impure = 0;
      lint_rejected;
    }
  in
  if not lint_rejected then begin
    fire sess Faults.Encode Encode_p;
    sess.enc <- Some (timed sess Encode_p (fun () -> encode_spec sess spec))
  end;
  (* the wall budget runs from the encoded session *)
  sess.deadline <- Option.map (fun ms -> Clock.now_ms () +. ms) config.budget_ms;
  (* second half: loading propagates every unit at level 0, so a solver
     that is no longer [ok] holds a level-0 refutation of Φ(Se) (every
     closure refutation, lint's E002/E005, among them); it is dropped *)
  if not lint_rejected then begin
    let s = timed sess Validity_p (fun () -> fresh_solver sess (the_enc sess)) in
    if Sat.Solver.ok s then sess.solver <- Some s
    else begin
      retire sess s;
      sess.lint_rejected <- true
    end
  end;
  sess

let create_session ?config ?cache ?label spec =
  make_session ?config ?cache ?label ~track:(ref Lint_p) spec

(* [f] on the live session solver (learnt clauses intact), budget armed *)
let with_solver sess f =
  let s = the_solver sess in
  sess.solvers_reused <- sess.solvers_reused + 1;
  arm_budget sess s;
  f s

(* IsValid on the session; [Unknown] when the entity's conflict budget
   runs out mid-solve *)
let check_validity sess = with_solver sess (fun s -> Sat.Solver.solve_limited s)

let suggest_on sess d ~known =
  with_solver sess (fun s -> Rules.suggest ~solver:s d ~known)

(* backbone deduction on the session solver: probes run under
   assumptions and start from the validity check's saved model. The
   remaining conflict budget is armed on the solver and passed down. *)
let deduce_on sess enc =
  let solver = the_solver sess in
  arm_budget sess solver;
  let d = Deduce.backbone ~solver ?budget:(conflicts_remaining sess) enc in
  let st = d.Deduce.stats in
  sess.deduce_sat_calls <- sess.deduce_sat_calls + st.Deduce.sat_calls;
  sess.deduce_probes <- sess.deduce_probes + st.Deduce.probes;
  sess.deduce_model_prunes <- sess.deduce_model_prunes + st.Deduce.model_prunes;
  sess.deduce_seeded <- sess.deduce_seeded + st.Deduce.seeded;
  sess.solvers_reused <- sess.solvers_reused + 1;
  d

(* Se ⊕ Ot: move the session to the extended specification. *)
let apply_extension sess spec' =
  fire sess Faults.Encode Encode_p;
  sess.spec <- spec';
  match timed sess Encode_p (fun () -> Encode.extend (the_enc sess) spec') with
  | Some (Encode.Delta (enc', delta)) ->
      sess.enc <- Some enc';
      sess.delta_extensions <- sess.delta_extensions + 1;
      let s = the_solver sess in
      timed sess Validity_p (fun () -> List.iter (Sat.Solver.add_clause_a s) delta)
  | Some (Encode.Renumbered enc') ->
      (* a value universe grew: the Σ instances were still reused, but
         variable numbers shifted, so the solver session restarts *)
      sess.rebuilds_renumbered <- sess.rebuilds_renumbered + 1;
      sess.enc <- Some enc';
      retire sess (the_solver sess);
      sess.solver <- Some (timed sess Validity_p (fun () -> fresh_solver sess enc'))
  | None ->
      (* not a pure extension: full re-encode and a fresh session *)
      sess.rebuilds_impure <- sess.rebuilds_impure + 1;
      retire sess (the_solver sess);
      let enc' = timed sess Encode_p (fun () -> encode_spec sess spec') in
      sess.enc <- Some enc';
      sess.solver <- Some (timed sess Validity_p (fun () -> fresh_solver sess enc'))

let snapshot_stats sess =
  let solver =
    match sess.solver with
    | Some s -> Sat.Solver.add_stats sess.retired (Sat.Solver.stats s)
    | None -> sess.retired
  in
  {
    times = sess.times;
    solver;
    solvers_built = sess.solvers_built;
    solvers_reused = sess.solvers_reused;
    deduce_sat_calls = sess.deduce_sat_calls;
    deduce_probes = sess.deduce_probes;
    deduce_model_prunes = sess.deduce_model_prunes;
    deduce_seeded = sess.deduce_seeded;
    probes_avoided = 0;
    template_hits = sess.template_hits;
    template_misses = sess.template_misses;
    encode_alloc_words = sess.encode_alloc_words;
    delta_extensions = sess.delta_extensions;
    rebuilds = sess.rebuilds_renumbered + sess.rebuilds_impure;
    rebuilds_renumbered = sess.rebuilds_renumbered;
    rebuilds_impure = sess.rebuilds_impure;
    lint_rejected = sess.lint_rejected;
  }

(* ---- streaming hooks: the long-lived session layer (Crcore.Session /
   crsolved) keeps engine sessions alive across requests ---- *)

let session_spec sess = sess.spec

let session_rejected sess = sess.lint_rejected

let session_stats = snapshot_stats

let refresh_budget sess =
  sess.deadline <- Option.map (fun ms -> Clock.now_ms () +. ms) sess.config.budget_ms;
  sess.spent_base <- conflicts_accrued sess

let ingest_session sess ?(orders = []) ?(tuples = []) () =
  if sess.lint_rejected then
    invalid_arg "Engine.ingest_session: session was rejected as unsat";
  if orders <> [] || tuples <> [] then
    (* tuples appended, order edges prepended: exactly the pure-extension
       shape {!Encode.extend} serves with a Delta or Renumbered encoding *)
    apply_extension sess (Spec.extend sess.spec ~tuples ~orders)

let count_known known = Array.fold_left (fun n v -> if v = None then n else n + 1) 0 known

(* The graceful-degradation ladder (Exact → PartialDeduce → PickFallback),
   driven by what the budget interruption leaves established:

   - validity [Unknown]: nothing is proven, so degrade straight to
     [PickFallback] (the paper's Pick baseline, deterministic) when
     [max_degrade] allows. Capped at [PartialDeduce], unit propagation
     decides: a UP conflict is an exact invalidity proof, otherwise the
     UP facts are reported at avowedly lower confidence. Capped at
     [Exact], a conservative empty answer is returned with the reason
     recorded.
   - deduction interrupted (validity proven): land at [PartialDeduce]
     with the facts proven so far — UP seeds plus confirmed probes, a
     sound subset of the full backbone.
   - suggestion/round interrupted (deduction complete): keep the exact
     facts of the current round and stop interacting; also
     [PartialDeduce], since the interactive fixpoint was not reached.

   Every degraded answer is a deterministic function of the spec and the
   budget (conflict budgets count CDCL conflicts, never wall time), so
   jobs = 1 and jobs = 4 agree. The soft [budget_ms] deadline is the
   exception by design: it is checked only between phases and rounds, and
   documented as schedule-dependent. *)
let resolve_session sess ~user =
  let schema = Spec.schema sess.spec in
  let arity = Schema.arity schema in
  let allowed lvl = level_rank lvl <= level_rank sess.config.max_degrade in
  (* cap a desired landing level at [max_degrade] *)
  let land_at lvl = if allowed lvl then lvl else sess.config.max_degrade in
  let mk ~resolved ~valid ~rounds ~per_round ~level ~reason =
    {
      resolved;
      valid;
      rounds;
      per_round_known = List.rev per_round;
      level;
      degrade_reason = reason;
      conflicts_spent = conflicts_spent sess;
    }
  in
  let invalid_result ~rounds ~per_round =
    mk ~resolved:(Array.make arity None) ~valid:false ~rounds
      ~per_round:(0 :: per_round) ~level:Exact ~reason:None
  in
  (* validity could not be established before the budget ran out *)
  let degrade_unknown_validity cause ~rounds ~per_round =
    let reason = Some { cause; phase = Validity_p } in
    match land_at PickFallback with
    | PickFallback ->
        let resolved =
          Array.map Option.some (Pick.run ~strategy:sess.config.pick_strategy sess.spec)
        in
        mk ~resolved ~valid:true ~rounds
          ~per_round:(count_known resolved :: per_round)
          ~level:PickFallback ~reason
    | PartialDeduce ->
        let enc = the_enc sess in
        if Deduce.unit_conflict enc then
          (* unit propagation refutes Φ(Se): an exact invalidity proof,
             cheaper than the interrupted solve *)
          invalid_result ~rounds ~per_round
        else
          (* the degraded answer must stay inside the exact engine's fact
             set: positive units only, universe-certain values only *)
          let d = Deduce.deduce_units enc in
          let resolved = Deduce.certain_values d in
          mk ~resolved ~valid:true ~rounds
            ~per_round:(count_known resolved :: per_round)
            ~level:PartialDeduce ~reason
    | Exact ->
        (* no degradation allowed: conservative unresolved answer, the
           recorded reason distinguishing it from proven invalidity *)
        mk ~resolved:(Array.make arity None) ~valid:false ~rounds
          ~per_round:(0 :: per_round) ~level:Exact ~reason
  in
  (* validity proven, later work interrupted: report the sound facts *)
  let degrade_partial cause phase resolved ~rounds ~per_round =
    let reason = Some { cause; phase } in
    mk ~resolved ~valid:true ~rounds
      ~per_round:(count_known resolved :: per_round)
      ~level:(land_at PartialDeduce) ~reason
  in
  let outcome =
    (* a rejected spec is provably unsatisfiable: report the same
       outcome IsValid would, without ever building a solver *)
    if sess.lint_rejected then invalid_result ~rounds:0 ~per_round:[]
    else begin
      (* one analyse step: validity then deduction, budget-aware *)
      let analyse ~rounds ~per_round =
        if wall_tripped sess then
          `Stop (degrade_unknown_validity Wall ~rounds ~per_round)
        else begin
          fire sess Faults.Solve Validity_p;
          if exhausted_now sess then
            `Stop (degrade_unknown_validity Conflicts ~rounds ~per_round)
          else
            match timed sess Validity_p (fun () -> check_validity sess) with
            | Sat.Solver.Limited.Unsat -> `Invalid
            | Sat.Solver.Limited.Unknown ->
                `Stop (degrade_unknown_validity Conflicts ~rounds ~per_round)
            | Sat.Solver.Limited.Sat ->
                if wall_tripped sess then
                  (* validity known; the cheapest sound deduction (UP) is
                     still affordable — SAT probing is not *)
                  let d = Deduce.deduce_units (the_enc sess) in
                  `Stop
                    (degrade_partial Wall Deduce_p (Deduce.certain_values d) ~rounds
                       ~per_round)
                else begin
                  fire sess Faults.Deduce Deduce_p;
                  if exhausted_now sess then
                    let d = Deduce.deduce_units (the_enc sess) in
                    `Stop
                      (degrade_partial Conflicts Deduce_p (Deduce.certain_values d)
                         ~rounds ~per_round)
                  else
                    let d = timed sess Deduce_p (fun () -> deduce_on sess (the_enc sess)) in
                    if d.Deduce.stats.Deduce.complete then `Go (d, Deduce.true_values d)
                    else
                      `Stop
                        (degrade_partial Conflicts Deduce_p (Deduce.true_values d)
                           ~rounds ~per_round)
                end
        end
      in
      let finished = ref None in
      let d = ref None in
      let known = ref (Array.make arity None) in
      let per_round = ref [] in
      let rounds = ref 0 in
      (match analyse ~rounds:0 ~per_round:[] with
      | `Invalid -> finished := Some (invalid_result ~rounds:0 ~per_round:[])
      | `Stop r -> finished := Some r
      | `Go (d0, known0) ->
          d := Some d0;
          known := known0;
          per_round := [ count_known known0 ]);
      while !finished = None do
        let exact_here () =
          mk ~resolved:!known ~valid:true ~rounds:!rounds ~per_round:!per_round
            ~level:Exact ~reason:None
        in
        if count_known !known = arity || !rounds >= sess.config.max_rounds then
          finished := Some (exact_here ())
        else if wall_tripped sess then
          finished :=
            Some (degrade_partial Wall Suggest_p !known ~rounds:!rounds ~per_round:!per_round)
        else begin
          fire sess Faults.Maxsat Suggest_p;
          if exhausted_now sess then
            finished :=
              Some
                (degrade_partial Conflicts Suggest_p !known ~rounds:!rounds
                   ~per_round:!per_round)
          else begin
            let d0 = match !d with Some d -> d | None -> assert false in
            let suggestion =
              timed sess Suggest_p (fun () -> suggest_on sess d0 ~known:!known)
            in
            if exhausted_now sess then
              (* the budget ran out inside the suggestion's MaxSAT layer;
                 its content is a truncated guess — stop the interaction
                 instead of asking the user about it *)
              finished :=
                Some
                  (degrade_partial Conflicts Suggest_p !known ~rounds:!rounds
                     ~per_round:!per_round)
            else begin
              let answer = user suggestion ~schema in
              if answer = [] then finished := Some (exact_here ())
              else begin
                incr rounds;
                (* the fresh tuple t_o of the paper's Remark (1): provided
                   values, plus the already-established ones, null elsewhere *)
                let values =
                  Array.init arity (fun a ->
                      let name = Schema.name schema a in
                      match List.assoc_opt name answer with
                      | Some v -> v
                      | None -> ( match !known.(a) with Some v -> v | None -> Value.Null))
                in
                let tup = Tuple.of_array schema values in
                let current_attrs =
                  List.filter_map
                    (fun a ->
                      if Value.is_null values.(a) then None
                      else Some (Schema.name schema a))
                    (List.init arity Fun.id)
                in
                apply_extension sess (Spec.extend_with_tuple sess.spec tup ~current_attrs);
                match analyse ~rounds:!rounds ~per_round:!per_round with
                | `Invalid ->
                    finished :=
                      Some
                        (mk ~resolved:!known ~valid:false ~rounds:!rounds
                           ~per_round:!per_round ~level:Exact ~reason:None)
                | `Stop r -> finished := Some r
                | `Go (d', known') ->
                    d := Some d';
                    known := known';
                    per_round := count_known known' :: !per_round
              end
            end
          end
        end
      done;
      match !finished with Some r -> r | None -> assert false
    end
  in
  (outcome, snapshot_stats sess)

let resolve ?config ?cache ?label ~user spec =
  resolve_session (create_session ?config ?cache ?label spec) ~user

(* ---- batches ---- *)

type item = { label : string; spec : Spec.t; user : user }

type item_result = {
  label : string;
  outcome : (result, error_info) Stdlib.result;
  stats : entity_stats;
}

type stats = {
  entities : int;
  valid_entities : int;
  errors : int;
  degraded_partial : int;
  degraded_pick : int;
  budget_exhausted : int;
  total_rounds : int;
  attrs_total : int;
  attrs_resolved : int;
  times : phase_times;
  solver : Sat.Solver.stats;
  solvers_built : int;
  solvers_reused : int;
  deduce_sat_calls : int;
  deduce_probes : int;
  deduce_model_prunes : int;
  deduce_seeded : int;
  template_hits : int;
  template_misses : int;
  template_hit_ratio : float;
  encode_alloc_words : float;
  delta_extensions : int;
  rebuilds : int;
  rebuilds_renumbered : int;
  rebuilds_impure : int;
  lint_rejected : int;
  jobs : int;
  jobs_requested : int;
  wall_ms : float;
}

let throughput st =
  if st.wall_ms <= 0. then 0. else 1000. *. float_of_int st.entities /. st.wall_ms

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<v>entities: %d (%d valid), %d interaction round(s), %d/%d attrs resolved@ \
     robustness: %d error(s); degraded: %d partial, %d pick; %d budget-exhausted@ \
     phases (ms, summed over %d job(s)%s): lint %.1f | encode %.1f | validity %.1f | \
     deduce %.1f | suggest %.1f@ \
     lint: %d spec(s) rejected as unsat before solving (no solver kept)@ \
     solver: %a; %d CNF load(s), %d phase(s) on live sessions@ \
     deduce: %d SAT call(s) (%d probe(s), %d model-prune(s), %d seeded)@ \
     encode templates: %d hit(s) / %d miss(es) (%.0f%%)@ \
     encode alloc: %.0f minor words; %d delta extension(s), \
     %d rebuild(s) (%d renumbered, %d impure)@ \
     wall: %.1f ms (%.1f entities/s)@]"
    st.entities st.valid_entities st.total_rounds st.attrs_resolved st.attrs_total
    st.errors st.degraded_partial st.degraded_pick st.budget_exhausted
    st.jobs
    (if st.jobs_requested <> st.jobs then
       Printf.sprintf ", %d requested" st.jobs_requested
     else "")
    st.times.lint_ms st.times.encode_ms st.times.validity_ms
    st.times.deduce_ms st.times.suggest_ms st.lint_rejected Sat.Solver.pp_stats
    st.solver st.solvers_built
    st.solvers_reused st.deduce_sat_calls st.deduce_probes st.deduce_model_prunes
    st.deduce_seeded st.template_hits
    st.template_misses
    (100. *. st.template_hit_ratio)
    st.encode_alloc_words
    st.delta_extensions st.rebuilds st.rebuilds_renumbered st.rebuilds_impure st.wall_ms
    (throughput st)

(* Constraint-list interning now happens at spec construction
   ({!Spec.make_res} routes every list through the global pool), so this
   pass is a no-op for specs built through [Spec.make]. It is kept for
   items whose specs were assembled as record literals: {!Encode} reuses
   compiled forms by physical identity and the template cache keys on the
   intern ids, so canonicalising here still pays once per item. *)
let intern_constraint_lists items =
  List.map
    (fun it ->
      let s = it.spec in
      let sigma, _ = Spec.intern_sigma s.Spec.sigma in
      let gamma, _ = Spec.intern_gamma s.Spec.gamma in
      if sigma == s.Spec.sigma && gamma == s.Spec.gamma then it
      else { it with spec = { s with Spec.sigma; gamma } })
    items

let aggregate ~jobs ~jobs_requested ~wall_ms (results : item_result array) =
  let sum f = Array.fold_left (fun n r -> n + f r.stats) 0 results in
  let sum_ok f =
    Array.fold_left (fun n r -> match r.outcome with Ok o -> n + f o | Error _ -> n) 0 results
  in
  let count_ok p = sum_ok (fun o -> if p o then 1 else 0) in
  let times = zero_times () in
  Array.iter
    (fun { stats = { times = t; _ }; _ } ->
      times.lint_ms <- times.lint_ms +. t.lint_ms;
      times.encode_ms <- times.encode_ms +. t.encode_ms;
      times.validity_ms <- times.validity_ms +. t.validity_ms;
      times.deduce_ms <- times.deduce_ms +. t.deduce_ms;
      times.suggest_ms <- times.suggest_ms +. t.suggest_ms)
    results;
  let template_hits = sum (fun s -> s.template_hits)
  and template_misses = sum (fun s -> s.template_misses)
  and rebuilds_renumbered = sum (fun s -> s.rebuilds_renumbered)
  and rebuilds_impure = sum (fun s -> s.rebuilds_impure) in
  let tlookups = template_hits + template_misses in
  {
    entities = Array.length results;
    valid_entities = count_ok (fun o -> o.valid);
    errors = Array.length results - count_ok (fun _ -> true);
    degraded_partial = count_ok (fun o -> o.level = PartialDeduce);
    degraded_pick = count_ok (fun o -> o.level = PickFallback);
    budget_exhausted = count_ok (fun o -> o.degrade_reason <> None);
    total_rounds = sum_ok (fun o -> o.rounds);
    attrs_total = sum_ok (fun o -> Array.length o.resolved);
    attrs_resolved = sum_ok (fun o -> count_known o.resolved);
    times;
    solver =
      Array.fold_left
        (fun acc r -> Sat.Solver.add_stats acc r.stats.solver)
        Sat.Solver.zero_stats results;
    solvers_built = sum (fun s -> s.solvers_built);
    solvers_reused = sum (fun s -> s.solvers_reused);
    deduce_sat_calls = sum (fun s -> s.deduce_sat_calls);
    deduce_probes = sum (fun s -> s.deduce_probes);
    deduce_model_prunes = sum (fun s -> s.deduce_model_prunes);
    deduce_seeded = sum (fun s -> s.deduce_seeded);
    template_hits;
    template_misses;
    template_hit_ratio =
      (if tlookups = 0 then 0.
       else float_of_int template_hits /. float_of_int tlookups);
    encode_alloc_words =
      Array.fold_left (fun acc r -> acc +. r.stats.encode_alloc_words) 0. results;
    delta_extensions = sum (fun s -> s.delta_extensions);
    rebuilds = rebuilds_renumbered + rebuilds_impure;
    rebuilds_renumbered;
    rebuilds_impure;
    lint_rejected = sum (fun s -> Bool.to_int s.lint_rejected);
    jobs;
    jobs_requested;
    wall_ms;
  }

let run_batch ?(config = default_config) ?cache ?on_result items =
  let cache = match cache with Some c -> c | None -> create_cache () in
  let jobs_requested = max 1 config.jobs in
  (* more domains than cores is a pure loss (every domain past the core
     count only adds scheduling and GC contention), so the effective
     width is capped by default;
     [clamp_jobs = false] restores the literal request for scheduling
     tests and benchmarks that need over-subscription on purpose *)
  let jobs =
    if config.clamp_jobs then min jobs_requested (Parallel.Pool.recommended_jobs ())
    else jobs_requested
  in
  let jobs = max 1 jobs in
  let t0 = Clock.now_ms () in
  let items = Array.of_list (intern_constraint_lists items) in
  let n = Array.length items in
  let results : item_result option array = Array.make n None in
  (* Fault isolation: one entity's failure must not take down the batch.
     The session is built and run under a handler; the [track] ref (shared
     with the session) attributes the exception to the phase that was
     executing, and whatever statistics the session accumulated before
     dying are kept. [fail_fast] restores the pre-isolation contract: the
     first failure propagates (with its original backtrace) out of
     [run_batch]. *)
  let process i =
    let item = items.(i) in
    let track = ref Lint_p in
    let sess_cell = ref None in
    let outcome =
      try
        let sess = make_session ~config ~cache ~label:item.label ~track item.spec in
        sess_cell := Some sess;
        Ok (resolve_session sess ~user:item.user)
      with e when not config.fail_fast ->
        let bt = Printexc.get_raw_backtrace () in
        Error
          {
            exn = Printexc.to_string e;
            backtrace = Printexc.raw_backtrace_to_string bt;
            phase = !track;
          }
    in
    match outcome with
    | Ok (result, st) ->
        results.(i) <- Some { label = item.label; outcome = Ok result; stats = st }
    | Error e ->
        let st =
          match !sess_cell with
          | Some sess -> snapshot_stats sess
          | None -> zero_entity_stats ()
        in
        results.(i) <- Some { label = item.label; outcome = Error e; stats = st }
  in
  let the_result i =
    match results.(i) with Some r -> r | None -> assert false
  in
  if jobs = 1 || n <= 1 then
    for i = 0 to n - 1 do
      process i;
      match on_result with Some f -> f (the_result i) | None -> ()
    done
  else begin
    (* Results are written to disjoint indices (race-free), and joining
       the pool's job happens-before [run] returns (publication-safe).
       [on_result] streams the finished prefix in input order — exactly
       the sequence the sequential path emits, whatever the schedule. *)
    let emit_m = Mutex.create () in
    let emitted = ref 0 in
    let process_and_emit i =
      process i;
      match on_result with
      | None -> ()
      | Some f ->
          Mutex.lock emit_m;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock emit_m)
            (fun () ->
              while !emitted < n && Option.is_some results.(!emitted) do
                f (the_result !emitted);
                incr emitted
              done)
    in
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Parallel.Pool.run pool ~n process_and_emit)
  end;
  let results = Array.map (fun r -> match r with Some r -> r | None -> assert false) results in
  let stats = aggregate ~jobs ~jobs_requested ~wall_ms:(Clock.now_ms () -. t0) results in
  (Array.to_list results, stats)

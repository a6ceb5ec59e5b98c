(* The traced run's view of the compute layers, shared by all workloads:
   an engine loop with one span per public Engine call, and a layer
   replay that re-runs an entity's first round one public call at a time
   (Analyze, Encode, Saturate, Sat.Solver, Deduce, Rules) inside spans.
   Spans wrap calls from this file only; the program is unchanged. *)

open Crcore

let value_str = function None -> "?" | Some v -> Printf.sprintf "%S" (Value.to_string v)

(* what an entity's answer must agree on across resolution paths *)
let digest label ~valid ~rounds resolved =
  Printf.sprintf "%s|%b|%d|%s" label valid rounds
    (String.concat "," (Array.to_list (Array.map value_str resolved)))

let item_digest (r : Engine.item_result) =
  match r.Engine.outcome with
  | Ok res ->
      ( digest r.Engine.label ~valid:res.Engine.valid ~rounds:res.Engine.rounds
          res.Engine.resolved,
        res.Engine.level <> Engine.Exact )
  | Error e -> (r.Engine.label ^ "|error|" ^ e.Engine.exn, true)

let count_mismatches expected got =
  let e = Array.of_list expected and g = Array.of_list got in
  if Array.length e <> Array.length g then max (Array.length e) (Array.length g)
  else
    let bad = ref 0 in
    Array.iteri (fun i x -> if x <> g.(i) then incr bad) e;
    !bad

(* {1 Counters summed over the entities of a workload's real path} *)

type acc = {
  mutable entities : int;
  mutable rounds : int;
  mutable solver : Sat.Solver.stats;
  mutable solvers_built : int;
  mutable deduce_probes : int;
  mutable deduce_sat_calls : int;
  mutable deduce_model_prunes : int;
  mutable probes_avoided : int;
  mutable template_hits : int;
  mutable template_misses : int;
  mutable delta_extensions : int;
  mutable rebuilds : int;
}

let acc () =
  {
    entities = 0;
    rounds = 0;
    solver = Sat.Solver.zero_stats;
    solvers_built = 0;
    deduce_probes = 0;
    deduce_sat_calls = 0;
    deduce_model_prunes = 0;
    probes_avoided = 0;
    template_hits = 0;
    template_misses = 0;
    delta_extensions = 0;
    rebuilds = 0;
  }

let add a ~rounds (st : Engine.entity_stats) =
  a.entities <- a.entities + 1;
  a.rounds <- a.rounds + rounds;
  a.solver <- Sat.Solver.add_stats a.solver st.Engine.solver;
  a.solvers_built <- a.solvers_built + st.Engine.solvers_built;
  a.deduce_probes <- a.deduce_probes + st.Engine.deduce_probes;
  a.deduce_sat_calls <- a.deduce_sat_calls + st.Engine.deduce_sat_calls;
  a.deduce_model_prunes <- a.deduce_model_prunes + st.Engine.deduce_model_prunes;
  a.probes_avoided <- a.probes_avoided + st.Engine.probes_avoided;
  a.template_hits <- a.template_hits + st.Engine.template_hits;
  a.template_misses <- a.template_misses + st.Engine.template_misses;
  a.delta_extensions <- a.delta_extensions + st.Engine.delta_extensions;
  a.rebuilds <- a.rebuilds + st.Engine.rebuilds

let phase_ms (st : Engine.entity_stats) =
  let t = st.Engine.times in
  t.Engine.lint_ms +. t.Engine.encode_ms +. t.Engine.saturate_ms +. t.Engine.validity_ms
  +. t.Engine.deduce_ms +. t.Engine.suggest_ms

(* {1 Engine loop: the batch path, one entity at a time} *)

type loop = {
  wall : float;
  results : Engine.result list;
  digests : string list;
  failed : int;
  stats : (Engine.entity_stats * int) list;  (** per entity, with its rounds *)
  spans : Trace.span array;
}

(* [Engine.run_batch] at [jobs = 1] is this loop over one shared cache;
   spelling it out puts a span around each public call. *)
let engine_loop tracer ~config items =
  let cache = Engine.create_cache () in
  let t0 = Trace.now () in
  let per_entity =
    List.mapi
      (fun i (it : Engine.item) ->
        Trace.span tracer ~req:i "entity" (fun () ->
            let s =
              Trace.span tracer "engine.create_session" (fun () ->
                  Engine.create_session ~config ~cache ~label:it.Engine.label it.Engine.spec)
            in
            Trace.span tracer "engine.resolve_session" (fun () ->
                Engine.resolve_session s ~user:it.Engine.user)))
      items
  in
  let wall = Trace.now () -. t0 in
  let digests, failed, stats =
    List.fold_right2
      (fun (it : Engine.item) ((r : Engine.result), st) (ds, f, ss) ->
        ( digest it.Engine.label ~valid:r.Engine.valid ~rounds:r.Engine.rounds
            r.Engine.resolved
          :: ds,
          (if r.Engine.level <> Engine.Exact then f + 1 else f),
          (st, r.Engine.rounds) :: ss ))
      items per_entity ([], 0, [])
  in
  {
    wall;
    results = List.map fst per_entity;
    digests;
    failed;
    stats;
    spans = Trace.spans tracer;
  }

(* {1 Layer replay: an entity's first round, one layer per span} *)

type replay = {
  mutable replayed : int;
  mutable clauses : float;
  mutable vars : float;
  mutable alloc_words : float;
  mutable facts : float;
}

(* Mirrors the engine's first round on a fresh solver: lint, template
   instantiation, saturation, solver load (closure units, freeze,
   simplify), the validity solve, backbone deduction seeded with a
   complete closure, and one suggestion. *)
let replay tracer ~mode specs =
  let r = { replayed = 0; clauses = 0.; vars = 0.; alloc_words = 0.; facts = 0. } in
  let template = ref None in
  List.iteri
    (fun i spec ->
      Trace.span tracer ~req:i "replay" (fun () ->
          let rejected =
            Trace.span tracer "analyze" (fun () ->
                Analyze.has_errors (Analyze.analyze ~errors_only:true spec))
          in
          if not rejected then begin
            r.replayed <- r.replayed + 1;
            let w0 = Gc.minor_words () in
            let enc =
              Trace.span tracer "encode" (fun () ->
                  let tpl =
                    match !template with
                    | Some t when Encode.template_matches t spec -> t
                    | _ ->
                        let t = Encode.template ~mode spec in
                        template := Some t;
                        t
                  in
                  Encode.instantiate tpl spec)
            in
            r.alloc_words <- r.alloc_words +. (Gc.minor_words () -. w0);
            r.clauses <- r.clauses +. float_of_int (Sat.Cnf.nclauses enc.Encode.cnf);
            r.vars <- r.vars +. float_of_int enc.Encode.cnf.Sat.Cnf.nvars;
            let closure = Trace.span tracer "saturate" (fun () -> Saturate.of_encode enc) in
            r.facts <- r.facts +. float_of_int (Saturate.n_facts closure);
            let solver =
              Trace.span tracer "sat.load" (fun () ->
                  let s = Sat.Solver.create () in
                  Sat.Solver.add_cnf s enc.Encode.cnf;
                  Sat.Solver.add_units s (Saturate.unit_lits closure);
                  Sat.Solver.freeze_all s;
                  Sat.Solver.simplify s;
                  s)
            in
            match Trace.span tracer "sat.solve" (fun () -> Sat.Solver.solve solver) with
            | Sat.Solver.Unsat -> ()
            | Sat.Solver.Sat ->
                let static =
                  if Saturate.complete closure then Some (Saturate.fact_vars closure) else None
                in
                let d =
                  Trace.span tracer "deduce" (fun () -> Deduce.backbone ~solver ?static enc)
                in
                ignore
                  (Trace.span tracer "rules.suggest" (fun () ->
                       Rules.suggest ~repair:Rules.Exact_maxsat ~solver d
                         ~known:(Deduce.true_values d)))
          end))
    specs;
  r

(* {1 The per-layer metrics every workload reports} *)

let sum = List.fold_left ( +. ) 0.

let self_ms spans =
  let groups = Trace.self_by_name spans in
  fun name -> 1000. *. sum (Option.value ~default:[] (List.assoc_opt name groups))

let durations spans name =
  Array.fold_left
    (fun acc (s : Trace.span) ->
      if s.Trace.name = name then (s.Trace.stop -. s.Trace.start) :: acc else acc)
    [] spans

(* [loops]: traced engine loops; [path]: the counters of the workload's
   own path (the engine loop for batches, the session store for
   streams); [overhead]: (untraced, traced) walls of the same pass
   without and with spans. Times are milliseconds and counts are per
   entity. *)
let metrics ~replay_spans ~(replay : replay) ~loops ~(path : acc) ~overhead =
  let open Common in
  let per_replayed x = x /. float_of_int (max 1 replay.replayed) in
  let layer = self_ms replay_spans in
  let per_entity x = float_of_int x /. float_of_int (max 1 path.entities) in
  let sv = path.solver in
  let loop_spans = Array.concat (List.map (fun l -> l.spans) loops) in
  let creates = durations loop_spans "engine.create_session"
  and resolves = durations loop_spans "engine.resolve_session" in
  let mean l = sum l /. float_of_int (max 1 (List.length l)) in
  let attributed =
    sum (List.concat_map (fun l -> List.map (fun (st, _) -> phase_ms st) l.stats) loops)
  in
  let engine_ms = 1000. *. (sum creates +. sum resolves) in
  let lookups = path.template_hits + path.template_misses in
  [
    metric "analyze.ms" "ms" (per_replayed (layer "analyze"));
    metric "encode.ms" "ms" (per_replayed (layer "encode"));
    metric "encode.clauses" "count" (per_replayed replay.clauses);
    metric "encode.vars" "count" (per_replayed replay.vars);
    metric "encode.alloc_words" "words" (per_replayed replay.alloc_words);
    metric "encode.template_hit_ratio" "ratio"
      (if lookups = 0 then 0. else float_of_int path.template_hits /. float_of_int lookups);
    metric "saturate.ms" "ms" (per_replayed (layer "saturate"));
    metric "saturate.facts" "count" (per_replayed replay.facts);
    metric "saturate.probes_avoided" "count" (per_entity path.probes_avoided);
    metric "sat.load_ms" "ms" (per_replayed (layer "sat.load"));
    metric "sat.solve_ms" "ms" (per_replayed (layer "sat.solve"));
    metric "sat.propagations" "count" (per_entity sv.Sat.Solver.propagations);
    metric "sat.conflicts" "count" (per_entity sv.Sat.Solver.conflicts);
    metric "sat.simplify_ms" "ms"
      (sv.Sat.Solver.simplify_ms /. float_of_int (max 1 path.entities));
    metric "sat.subsumed" "count" (per_entity sv.Sat.Solver.subsumed);
    metric "sat.vars_substituted" "count" (per_entity sv.Sat.Solver.vars_substituted);
    metric "sat.solvers_built" "count" (per_entity path.solvers_built);
    metric "deduce.ms" "ms" (per_replayed (layer "deduce"));
    metric "deduce.probes" "count" (per_entity path.deduce_probes);
    metric "deduce.sat_calls" "count" (per_entity path.deduce_sat_calls);
    metric "deduce.model_prunes" "count" (per_entity path.deduce_model_prunes);
    metric "rules.suggest_ms" "ms" (per_replayed (layer "rules.suggest"));
    metric ~n:(List.length creates) "engine.create_session_ms" "ms" (1000. *. mean creates);
    metric ~n:(List.length resolves) "engine.resolve_session_ms" "ms" (1000. *. mean resolves);
    metric "engine.rounds" "count" (per_entity path.rounds);
    metric "engine.delta_extensions" "count" (per_entity path.delta_extensions);
    metric "engine.rebuilds" "count" (per_entity path.rebuilds);
    metric "engine.unattributed_share" "ratio"
      (if engine_ms <= 0. then 0. else 1. -. (attributed /. engine_ms));
    metric
      ~per_pass:(List.map (fun (u, t) -> (t /. u) -. 1.) overhead)
      "trace.overhead_share" "ratio"
      ((Stats.median (List.map snd overhead) /. Stats.median (List.map fst overhead)) -. 1.);
  ]

(* Spans of several tracers in one file: ids shifted so they stay unique. *)
let concat_spans arrays =
  let off = ref 0 in
  Array.concat
    (List.map
       (fun a ->
         let base = !off in
         off := base + Array.fold_left (fun m (s : Trace.span) -> max m (s.Trace.id + 1)) 0 a;
         Array.map
           (fun (s : Trace.span) ->
             {
               s with
               Trace.id = s.Trace.id + base;
               parent = (if s.Trace.parent < 0 then -1 else s.Trace.parent + base);
             })
           a)
       arrays)

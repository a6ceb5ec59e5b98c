type stats = {
  sat_calls : int;
  probes : int;
  model_prunes : int;
  seeded : int;
  probes_avoided : int;
  reused_solver : bool;
  built_solver : bool;
  complete : bool;
}

let no_stats = {
  sat_calls = 0;
  probes = 0;
  model_prunes = 0;
  seeded = 0;
  probes_avoided = 0;
  reused_solver = false;
  built_solver = false;
  complete = true;
}

type t = { enc : Encode.t; od : Porder.Strict_order.t array; stats : stats }

let empty_od enc =
  let coding = enc.Encode.coding in
  let schema = Coding.schema coding in
  Array.init (Schema.arity schema) (fun a ->
      Porder.Strict_order.create (Array.length (Coding.universe coding a)))

let add_fact od { Encode.attr; lo; hi } = ignore (Porder.Strict_order.add od.(attr) lo hi)

(* ---- the level-0 trail: unit propagation over Φ(Se) ---- *)

(* [l] is true on [s]'s level-0 trail: fixed by unit propagation over the
   loaded clauses and the tournament blocks' axioms, with no decision *)
let level0 s l =
  match Sat.Solver.value_level0 s (Sat.Lit.var l) with
  | Some b -> b = Sat.Lit.sign l
  | None -> false

(* Φ(Se) loaded into a fresh solver, which propagates every unit at level
   0 as it is added: [None] when that refutes Φ(Se), otherwise the solver,
   whose level-0 trail is then the unit-propagation fixpoint *)
let propagated enc =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s enc.Encode.cnf;
  if Sat.Solver.ok s then Some s else None

(* the facts of the level-0 literals, in variable order. With [reversed],
   a negative Paper-mode unit ¬x_uv, which is no fact, is read as the
   reversed pair v ≺ u: sound when completions are total orders (in Exact
   mode that reading is the literal's own fact) *)
let unit_facts ~reversed enc s =
  let od = empty_od enc in
  for l = 0 to (2 * enc.Encode.cnf.Sat.Cnf.nvars) - 1 do
    if level0 s l then
      match Encode.fact_of_lit enc l with
      | Some f -> add_fact od f
      | None ->
          if reversed then
            Option.iter
              (fun f -> add_fact od { f with Encode.lo = f.Encode.hi; hi = f.Encode.lo })
              (Encode.fact_of_lit enc (Sat.Lit.negate l))
  done;
  od

let deduce_order enc =
  let od =
    match propagated enc with
    | Some s -> unit_facts ~reversed:true enc s
    | None -> empty_od enc
  in
  { enc; od; stats = { no_stats with built_solver = true } }

(* complete = false: the positive units are a strict subset of the
   backbone in general *)
let deduce_units enc =
  Option.map
    (fun s ->
      {
        enc;
        od = unit_facts ~reversed:false enc s;
        stats = { no_stats with built_solver = true; complete = false };
      })
    (propagated enc)

(* ---- shared solver plumbing for the SAT-based deducers ---- *)

let deduction_solver solver enc =
  match solver with
  | Some s -> (s, true)
  | None ->
      let s = Sat.Solver.create () in
      Sat.Solver.add_cnf s enc.Encode.cnf;
      (s, false)

(* ---- NaiveDeduce: one SAT call per fact literal ---- *)

let naive_deduce ?solver ?budget enc =
  let s, reused = deduction_solver solver enc in
  (match budget with Some b -> Sat.Solver.set_budget ~conflicts:b s | None -> ());
  let od = empty_od enc in
  let facts = Encode.fact_table enc in
  let sat_calls = ref 0 in
  let complete = ref true in
  let l = ref 0 in
  while !complete && !l < Array.length facts do
    (match facts.(!l) with
    | None -> ()
    | Some f -> (
        incr sat_calls;
        match Sat.Solver.solve_limited ~assumptions:[ Sat.Lit.negate !l ] s with
        | Sat.Solver.Limited.Unsat -> add_fact od f
        | Sat.Solver.Limited.Sat -> ()
        | Sat.Solver.Limited.Unknown -> complete := false));
    incr l
  done;
  {
    enc;
    od;
    stats =
      {
        sat_calls = !sat_calls;
        probes = !sat_calls;
        model_prunes = 0;
        seeded = 0;
        probes_avoided = 0;
        reused_solver = reused;
        built_solver = not reused;
        complete = !complete;
      };
  }

(* ---- backbone: model-intersection complete deduction ---- *)

(* Computes exactly NaiveDeduce's fact set — the fact literals true in
   every model of Φ(Se) (its backbone; in Paper mode only positive
   literals are facts, in Exact mode both polarities are) — with far
   fewer solver calls:

   - the model of the preceding validity check (still saved on a reused
     session solver) bounds the candidate set: a literal false in any
     model cannot be backbone;
   - the solver's level-0 trail seeds for free: fact literals on it are
     backbone without a probe, and their variables leave the candidate
     set;
   - each remaining candidate l is probed by one assumption solve of
     Φ ∧ ¬l; [Unsat] confirms the fact, and a [Sat] answer's model prunes
     every candidate it falsifies. Before each probe every remaining
     candidate's saved phase is set against it, so the search heads for
     the model that refutes the most of them at once; left to phase
     saving it re-finds the previous model with one variable flipped,
     pruning little more than the probed literal itself.

   A reused solver may hold extra clause layers (learnt clauses, MaxSAT
   selectors/relaxation from {!Maxsat.Exact.solve_groups_on}); all are
   satisfiable extensions of Φ(Se), so probe answers and model
   restrictions agree with Φ(Se) alone. *)
let backbone ?solver ?budget ?static enc =
  let s, reused = deduction_solver solver enc in
  (match budget with Some b -> Sat.Solver.set_budget ~conflicts:b s | None -> ());
  let sat_calls = ref 0 in
  let od = empty_od enc in
  let initial =
    if Sat.Solver.has_model s then Sat.Solver.Limited.Sat
    else begin
      incr sat_calls;
      Sat.Solver.solve_limited s
    end
  in
  match initial with
  | Sat.Solver.Limited.Sat ->
      let facts = Encode.fact_table enc in
      let nlits = Array.length facts in
      let model_true l = Sat.Solver.model_value s (Sat.Lit.var l) = Sat.Lit.sign l in
      (* candidates are the fact literals the current model satisfies: at
         most one per variable *)
      let cand = Array.init nlits (fun l -> facts.(l) <> None && model_true l) in
      let seeded = ref 0 and probes_avoided = ref 0 in
      let adopt l =
        Option.iter (add_fact od) facts.(l);
        cand.(l) <- false
      in
      let seed l =
        adopt l;
        incr seeded
      in
      (match static with
      | Some lits ->
          (* the caller's static saturation proved these level-0: adopt
             them without probes and skip the level-0 read. Sound whenever
             every given literal is backbone; a complete closure already
             holds every fact literal of level 0, and the other level-0
             literals are no facts or false in the initial model, so they
             were never candidates *)
          List.iter seed lits;
          probes_avoided := !seeded
      | None ->
          (* the solver's level-0 trail: every literal on it is backbone
             (the session's extension layers are satisfiable extensions of
             Φ(Se)), and it already holds everything unit propagation over
             Φ derives, so reading it replaces a propagation rebuild *)
          for l = 0 to nlits - 1 do
            if level0 s l then begin
              if facts.(l) <> None then seed l;
              cand.(Sat.Lit.negate l) <- false
            end
          done);
      let probes = ref 0 and model_prunes = ref 0 in
      let complete = ref true in
      let l = ref 0 in
      while !complete && !l < nlits do
        if cand.(!l) then begin
          (* phase-guided probe: ask for a model refuting every remaining
             candidate at once, instead of phase saving's near-copy of the
             previous model with one variable flipped *)
          for u = !l to nlits - 1 do
            if cand.(u) then Sat.Solver.set_phase s (Sat.Lit.negate u)
          done;
          incr probes;
          incr sat_calls;
          match Sat.Solver.solve_limited ~assumptions:[ Sat.Lit.negate !l ] s with
          | Sat.Solver.Limited.Unsat -> adopt !l
          | Sat.Solver.Limited.Sat ->
              (* l is not backbone; neither is any candidate this model
                 refutes — prune them all before the next probe *)
              let l = !l in
              for u = l to nlits - 1 do
                if cand.(u) && not (model_true u) then begin
                  cand.(u) <- false;
                  if u > l then incr model_prunes
                end
              done
          | Sat.Solver.Limited.Unknown ->
              (* budget spent: stop probing. Everything adopted so far is a
                 proven fact (level-0 seed or Unsat probe), so the truncated
                 result is a sound subset of the full backbone. *)
              complete := false
        end;
        incr l
      done;
      {
        enc;
        od;
        stats =
          {
            sat_calls = !sat_calls;
            probes = !probes;
            model_prunes = !model_prunes;
            seeded = !seeded;
            probes_avoided = !probes_avoided;
            reused_solver = reused;
            built_solver = not reused;
            complete = !complete;
          };
      }
  | Sat.Solver.Limited.Unknown ->
      (* budget spent before the first model: nothing is known *)
      {
        enc;
        od;
        stats =
          { no_stats with sat_calls = !sat_calls; reused_solver = reused;
            built_solver = not reused; complete = false };
      }
  | Sat.Solver.Limited.Unsat ->
      (* unsatisfiable specification; callers check validity first *)
      {
        enc;
        od;
        stats = { no_stats with sat_calls = !sat_calls; reused_solver = reused;
                  built_solver = not reused };
      }

(* ---- true values without the backbone ---- *)

type decided = { values : Value.t option array; solves : int; complete : bool }

(* [true_values (backbone enc)] asks, per attribute, whether every model
   puts one value above all others. Only the value the current model
   puts there can qualify (universe = active domain + reserved null), so
   each attribute has at most one candidate, decided as follows:

   - a candidate whose literals all sit on the level-0 trail is proven
     without a solve;
   - one solve with every open candidate literal's phase set against it
     refutes the candidates whose literal it falsifies;
   - the survivors get one query: selector [d_i] with [d_i ∨ ¬l] over
     candidate i's literals, and [¬q ∨ ¬d_1 ∨ …] under the assumption
     [q]. [Unsat] proves them all; a [Sat] model refutes at least one,
     and the query repeats on the rest with fresh selectors.

   Selectors are the solver's only new variables, made only in the last
   step: the first [new_var] on a loaded solver grows its arrays. The
   added clauses are satisfiable extensions (every [d_i] true, [q]
   false), so later solves on the session answer as before. *)
let decide_true_values ?solver ?budget enc =
  let s, _ = deduction_solver solver enc in
  (match budget with Some b -> Sat.Solver.set_budget ~conflicts:b s | None -> ());
  let coding = enc.Encode.coding in
  let values = Array.make (Schema.arity (Coding.schema coding)) None in
  let solves = ref 0 in
  let solve ?assumptions () =
    incr solves;
    Sat.Solver.solve_limited ?assumptions s
  in
  let initial = if Sat.Solver.has_model s then Sat.Solver.Limited.Sat else solve () in
  let complete =
    match initial with
    | Sat.Solver.Limited.Unknown -> false
    | Sat.Solver.Limited.Unsat -> true (* invalid spec: callers check validity first *)
    | Sat.Solver.Limited.Sat ->
        let model_true l = Sat.Solver.model_value s (Sat.Lit.var l) = Sat.Lit.sign l in
        let prove (a, v, _) = values.(a) <- Some (Coding.value coding a v) in
        let refuted (_, _, lits) = not (Array.for_all model_true lits) in
        let guide (_, _, lits) =
          Array.iter (fun l -> Sat.Solver.set_phase s (Sat.Lit.negate l)) lits
        in
        (* candidates, the model's maximum per attribute: a tournament
           scan, then the check that it is above every other value *)
        let open_cands = ref [] in
        Array.iteri
          (fun a _ ->
            let n = Coding.adom_size coding a in
            let lit u v = Coding.lit_of coding ~attr:a u v in
            let best = ref 0 in
            for u = 1 to n - 1 do
              if model_true (lit !best u) then best := u
            done;
            let v = !best in
            let lits = Array.init (n - 1) (fun i -> lit (if i < v then i else i + 1) v) in
            let c = (a, v, lits) in
            if not (refuted c) then
              if Array.for_all (level0 s) lits then prove c else open_cands := c :: !open_cands)
          values;
        (* one solve against every open candidate: [Unsat] proves them
           all, [Sat] refutes those its model falsifies, and the rest go
           to a selector query, with selectors made for that query *)
        let rec settle ~query cands =
          let assumptions =
            if not query then []
            else begin
              let q = Sat.Solver.new_var s in
              let sels =
                List.map
                  (fun (_, _, lits) ->
                    let d = Sat.Solver.new_var s in
                    Sat.Solver.add_clause s
                      (Sat.Lit.pos d :: Array.to_list (Array.map Sat.Lit.negate lits));
                    Sat.Solver.set_phase s (Sat.Lit.neg_of d);
                    Sat.Lit.neg_of d)
                  cands
              in
              Sat.Solver.add_clause s (Sat.Lit.neg_of q :: sels);
              [ Sat.Lit.pos q ]
            end
          in
          List.iter guide cands;
          match solve ~assumptions () with
          | Sat.Solver.Limited.Unknown -> false
          | Sat.Solver.Limited.Unsat ->
              List.iter prove cands;
              true
          | Sat.Solver.Limited.Sat -> (
              match List.filter (fun c -> not (refuted c)) cands with
              | [] -> true
              | rest -> settle ~query:true rest)
        in
        let cands = List.rev !open_cands in
        cands = [] || settle ~query:false cands
  in
  { values; solves = !solves; complete }

let lt d ~attr lo hi = Porder.Strict_order.lt d.od.(attr) lo hi

let n_facts d = Array.fold_left (fun acc o -> acc + Porder.Strict_order.n_pairs o) 0 d.od

let universe_maximal d a = Porder.Strict_order.maximal d.od.(a)

let candidates d a =
  (* V(A) of the paper: active-domain values not yet dominated in Od *)
  let nadom = Coding.adom_size d.enc.Encode.coding a in
  List.filter (fun v -> v < nadom) (universe_maximal d a)

(* [v] is proven above every other value of the universe, which is the
   active domain plus the reserved null ({!Coding.universe}): at most one
   value qualifies in a strict order, and the claim is monotone in the
   fact set, so it is sound for an interrupted deduction too *)
let true_value_id d a =
  let n = Array.length (Coding.universe d.enc.Encode.coding a) in
  let dominating v =
    let ok = ref true in
    for u = 0 to n - 1 do
      if u <> v && not (lt d ~attr:a u v) then ok := false
    done;
    !ok
  in
  match List.filter dominating (universe_maximal d a) with
  | [ v ] -> Some v
  | _ -> None

let true_values d =
  let coding = d.enc.Encode.coding in
  let arity = Schema.arity (Coding.schema coding) in
  Array.init arity (fun a ->
      Option.map (fun id -> Coding.value coding a id) (true_value_id d a))

type outcome = { model : bool array; satisfied : int }

let count_satisfied model soft =
  List.length (List.filter (Sat.Cnf.eval_clause model) soft)

let restrict model n = Array.init n (fun v -> if v < Array.length model then model.(v) else false)

let solve ~(hard : Sat.Cnf.t) ~(soft : Sat.Cnf.clause list) =
  let n0 = hard.Sat.Cnf.nvars in
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s hard;
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> None
  | Sat.Solver.Sat ->
      if soft = [] then Some { model = restrict (Sat.Solver.model s) n0; satisfied = 0 }
      else begin
        (* relax each soft clause *)
        let relax =
          List.map
            (fun c ->
              let r = Sat.Solver.new_var s in
              Sat.Solver.add_clause_a s (Array.append c [| Sat.Lit.pos r |]);
              Sat.Lit.pos r)
            soft
        in
        let outs = Totalizer.encode s relax in
        (match Sat.Solver.solve s with
        | Sat.Solver.Unsat ->
            (* cannot happen: all relaxation variables true satisfies softs *)
            assert false
        | Sat.Solver.Sat -> ());
        let nsoft = List.length soft in
        let best = ref (Sat.Solver.model s) in
        let best_violated = ref (nsoft - count_satisfied !best soft) in
        let continue_search = ref (!best_violated > 0) in
        while !continue_search do
          let k = !best_violated - 1 in
          match Sat.Solver.solve_limited ~assumptions:[ Sat.Lit.negate outs.(k) ] s with
          | Sat.Solver.Limited.Unsat -> continue_search := false
          | Sat.Solver.Limited.Unknown -> continue_search := false
          | Sat.Solver.Limited.Sat ->
              let m = Sat.Solver.model s in
              let v = nsoft - count_satisfied m soft in
              (* assuming ¬outs.(k) forces at most k violations, so progress
                 is guaranteed; guard against non-termination anyway *)
              if v >= !best_violated then continue_search := false
              else begin
                best := m;
                best_violated := v;
                if v = 0 then continue_search := false
              end
        done;
        Some { model = restrict !best n0; satisfied = nsoft - !best_violated }
      end

(* Group MaxSAT layered onto a live solver already holding the hard
   clauses, leaving the solver reusable afterwards. Every clause added —
   selector-guarded group clauses (c ∨ ¬sel), relaxed soft units
   (sel ∨ r), the totalizer over the r's — is a satisfiable extension of
   the solver's clause set (set every sel false and every r true), so
   models restricted to the pre-existing variables are unchanged and
   later phases (validity re-solves, backbone deduction) on the same
   session stay sound; the optimum is enforced per call through
   assumptions only.

   The kept set is extracted by a lexicographic-greedy pass under the
   optimal bound rather than read off the optimal model: which optimal
   subset a plain solve lands on depends on solver history (activity,
   saved phases), and a shared session has plenty — the greedy pass makes
   the answer a function of the groups alone, so incremental and
   from-scratch configurations agree. *)
let solve_groups_on ~solver:s ~(groups : Sat.Cnf.clause list list) =
  let ngroups = List.length groups in
  if ngroups = 0 then (match Sat.Solver.solve_limited s with
    | Sat.Solver.Limited.Unsat -> None
    | Sat.Solver.Limited.Sat -> Some ([], true)
    | Sat.Solver.Limited.Unknown -> Some ([], false))
  else begin
    let sels =
      List.map
        (fun cls ->
          let sv = Sat.Solver.new_var s in
          List.iter
            (fun c -> Sat.Solver.add_clause_a s (Array.append c [| Sat.Lit.neg_of sv |]))
            cls;
          sv)
        groups
    in
    let relax =
      List.map
        (fun sv ->
          let r = Sat.Solver.new_var s in
          Sat.Solver.add_clause s [ Sat.Lit.pos sv; Sat.Lit.pos r ];
          Sat.Lit.pos r)
        sels
    in
    let outs = Totalizer.encode s relax in
    match Sat.Solver.solve_limited s with
    | Sat.Solver.Limited.Unsat -> None
    | Sat.Solver.Limited.Unknown ->
        (* budget spent before any model: keep nothing, avowedly suboptimal *)
        Some ([], false)
    | Sat.Solver.Limited.Sat ->
        let optimal = ref true in
        let sel_arr = Array.of_list sels in
        let violated_in m =
          Array.fold_left (fun n sv -> if m.(sv) then n else n + 1) 0 sel_arr
        in
        let best_violated = ref (violated_in (Sat.Solver.model s)) in
        let continue_search = ref (!best_violated > 0) in
        while !continue_search do
          let k = !best_violated - 1 in
          match Sat.Solver.solve_limited ~assumptions:[ Sat.Lit.negate outs.(k) ] s with
          | Sat.Solver.Limited.Unsat -> continue_search := false
          | Sat.Solver.Limited.Unknown ->
              (* anytime: stop tightening, extract under the incumbent bound *)
              optimal := false;
              continue_search := false
          | Sat.Solver.Limited.Sat ->
              let v = violated_in (Sat.Solver.model s) in
              (* ¬outs.(k) forces at most k violations, so progress is
                 guaranteed; guard against non-termination anyway *)
              if v >= !best_violated then continue_search := false
              else begin
                best_violated := v;
                if v = 0 then continue_search := false
              end
        done;
        let max_kept = ngroups - !best_violated in
        if max_kept = 0 then Some ([], !optimal)
        else if !best_violated = 0 then Some (List.init ngroups Fun.id, !optimal)
        else begin
          let bound = Sat.Lit.negate outs.(!best_violated) in
          let kept = ref [] in
          let n_kept = ref 0 in
          let i = ref 0 in
          while !i < ngroups && !n_kept < max_kept do
            let assumptions =
              bound :: List.rev_map (fun j -> Sat.Lit.pos sel_arr.(j)) (!i :: !kept)
            in
            (match Sat.Solver.solve_limited ~assumptions s with
            | Sat.Solver.Limited.Sat ->
                kept := !i :: !kept;
                incr n_kept
            | Sat.Solver.Limited.Unsat -> ()
            | Sat.Solver.Limited.Unknown ->
                (* stop extending deterministically: remaining groups are
                   dropped rather than probed with no budget left *)
                optimal := false;
                i := ngroups);
            incr i
          done;
          Some (List.rev !kept, !optimal)
        end
  end

let solve_groups ~(hard : Sat.Cnf.t) ~(groups : Sat.Cnf.clause list list) =
  (* selector variable per group: sel → c for each clause c of the group;
     the soft clauses are the unit selectors. *)
  let n0 = hard.Sat.Cnf.nvars in
  let ngroups = List.length groups in
  let nvars = n0 + ngroups in
  let sel i = Sat.Lit.pos (n0 + i) in
  let hard_clauses =
    List.concat
      (List.mapi
         (fun i cls ->
           List.map (fun c -> Array.append c [| Sat.Lit.negate (sel i) |]) cls)
         groups)
  in
  let hard' =
    Sat.Cnf.make ~blocks:hard.Sat.Cnf.blocks ~nvars (Sat.Cnf.clauses hard @ hard_clauses)
  in
  let soft = List.init ngroups (fun i -> [| sel i |]) in
  match solve ~hard:hard' ~soft with
  | None -> None
  | Some { model; satisfied = _ } ->
      (* [model] is restricted to [nvars]; re-extract which groups hold *)
      let holds i = model.(n0 + i) in
      let sat_groups = List.init ngroups (fun i -> i) |> List.filter holds in
      Some (restrict model n0, sat_groups)

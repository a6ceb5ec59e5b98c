(* CDCL solver. Variables are ints; literals use the packed encoding of
   [Lit]. Truth values are represented as ints: 1 = true, -1 = false,
   0 = unassigned, so that the value of a literal is [assigns.(var) * sgn].

   Clause-database layout: unit facts live on the level-0 trail, binary
   clauses live in a dedicated implication layer ([bin], flat per-literal
   vectors of the implied literal), and only clauses of three or more
   literals enter the general watch lists. Learnt clauses carry an LBD
   ("glue") score and are periodically halved by [reduce_db]; [simplify]
   runs pre/inprocessing at decision level 0 (equivalent-literal
   substitution and subsumption, both of which keep every variable
   expressible). *)

type clause = {
  mutable lits : Lit.t array; (* lits.(0) and lits.(1) are the watched pair *)
  learnt : bool;
  mutable activity : float;
  mutable lbd : int; (* distinct decision levels at learn time; <= 2 = glue *)
  mutable deleted : bool;
  mutable sig_ : int; (* subsumption signature; scratch, valid inside simplify *)
}

let dummy_clause =
  { lits = [||]; learnt = false; activity = 0.; lbd = 0; deleted = false; sig_ = 0 }

type result = Sat | Unsat

type t = {
  (* per-variable state *)
  mutable assigns : int array;          (* 1 / -1 / 0 *)
  mutable level : int array;
  mutable reason : clause array;        (* dummy_clause = no reason *)
  mutable binreason : int array;        (* other (false) literal of a binary
                                           reason; -1 = none. Exactly one of
                                           reason/binreason is live per var. *)
  mutable activity : float array;
  mutable polarity : bool array;        (* saved phase *)
  mutable seen : bool array;            (* scratch for analyze *)
  mutable repr : Lit.t array;           (* literal-indexed substitution map from
                                           equivalent-literal classes (binary
                                           implication SCCs); identity when the
                                           literal is its own representative *)
  mutable has_subst : bool;             (* fast path: repr is all-identity *)
  mutable lbd_seen : int array;         (* scratch, indexed by decision level *)
  mutable lbd_ctr : int;
  (* per-literal state *)
  mutable watches : clause Vec.t array; (* indexed by literal; clauses len >= 3 *)
  mutable bin : Lit.t Vec.t array;      (* bin.(p) = implied literals o of the
                                           binary clauses (negate p \/ o) *)
  (* trail *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* clause database *)
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  (* heuristics *)
  mutable order : Idx_heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable nvars : int;
  mutable ok : bool;
  mutable model_valid : bool;
  mutable saved_model : bool array;
  (* learnt-DB reduction schedule *)
  mutable reduce_enabled : bool;
  mutable reduce_interval : int;        (* conflicts between reductions *)
  mutable next_reduce : int;            (* absolute conflict-count target *)
  (* inprocessing schedule: clause load (longs + binary pairs) right after
     the last full simplify pass; -1 = never simplified *)
  mutable simplify_marker : int;
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;                (* clauses ever learnt (incl. binaries) *)
  mutable lbd_sum : float;              (* sum of learn-time LBDs *)
  mutable learnts_kept : int;           (* survivors of the last reduce_db *)
  mutable learnts_deleted : int;
  mutable n_binaries : int;             (* live pairs in the binary layer *)
  mutable subsumed : int;               (* clauses removed by (self-)subsumption *)
  mutable n_subst : int;                (* variables substituted away by
                                           equivalent-literal classes *)
  mutable simplify_ms : float;
  (* resource budgets: absolute counter targets, -1 = no limit. Only
     [solve_limited] consults them; [solve] always runs to completion. *)
  mutable conflict_limit : int;
  mutable propagation_limit : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999
let restart_base = 100
let default_reduce_interval = 2000

let create () =
  let s =
    {
      assigns = [||];
      level = [||];
      reason = [||];
      binreason = [||];
      activity = [||];
      polarity = [||];
      seen = [||];
      repr = [||];
      has_subst = false;
      lbd_seen = [||];
      lbd_ctr = 0;
      watches = [||];
      bin = [||];
      trail = Vec.create ~dummy:0;
      trail_lim = Vec.create ~dummy:0;
      qhead = 0;
      clauses = Vec.create ~dummy:dummy_clause;
      learnts = Vec.create ~dummy:dummy_clause;
      order = Idx_heap.create ~score:(fun _ -> 0.);
      var_inc = 1.0;
      cla_inc = 1.0;
      nvars = 0;
      ok = true;
      model_valid = false;
      saved_model = [||];
      reduce_enabled = true;
      reduce_interval = default_reduce_interval;
      next_reduce = default_reduce_interval;
      simplify_marker = -1;
      conflicts = 0;
      decisions = 0;
      propagations = 0;
      restarts = 0;
      learned = 0;
      lbd_sum = 0.;
      learnts_kept = 0;
      learnts_deleted = 0;
      n_binaries = 0;
      subsumed = 0;
      n_subst = 0;
      simplify_ms = 0.;
      conflict_limit = -1;
      propagation_limit = -1;
    }
  in
  s.order <- Idx_heap.create ~score:(fun v -> s.activity.(v));
  s

let nvars s = s.nvars

let grow_arrays s n =
  let old = Array.length s.assigns in
  if n > old then begin
    let cap = max n (max 16 (2 * old)) in
    let grow a dflt =
      let a' = Array.make cap dflt in
      Array.blit a 0 a' 0 old;
      a'
    in
    s.assigns <- grow s.assigns 0;
    s.level <- grow s.level (-1);
    s.reason <- grow s.reason dummy_clause;
    s.binreason <- grow s.binreason (-1);
    s.activity <- grow s.activity 0.;
    s.polarity <- grow s.polarity false;
    s.seen <- grow s.seen false;
    (* literal-indexed; fresh entries are their own representatives *)
    let oldr = Array.length s.repr in
    s.repr <- Array.init (2 * cap) (fun i -> if i < oldr then s.repr.(i) else i);
    (* indexed by decision level, which can reach nvars *)
    let lbd' = Array.make (cap + 1) 0 in
    Array.blit s.lbd_seen 0 lbd' 0 (Array.length s.lbd_seen);
    s.lbd_seen <- lbd';
    let oldw = Array.length s.watches in
    let w' = Array.make (2 * cap) (Vec.create ~dummy:dummy_clause) in
    Array.blit s.watches 0 w' 0 oldw;
    for i = oldw to (2 * cap) - 1 do
      w'.(i) <- Vec.create ~dummy:dummy_clause
    done;
    s.watches <- w';
    let oldb = Array.length s.bin in
    let b' = Array.make (2 * cap) (Vec.create ~dummy:0) in
    Array.blit s.bin 0 b' 0 oldb;
    for i = oldb to (2 * cap) - 1 do
      b'.(i) <- Vec.create ~dummy:0
    done;
    s.bin <- b'
  end

let new_var s =
  let v = s.nvars in
  grow_arrays s (v + 1);
  s.nvars <- v + 1;
  Idx_heap.insert s.order v;
  v

let ensure_nvars s n =
  while s.nvars < n do
    ignore (new_var s)
  done

(* ---- values ---- *)

let value_var s v = s.assigns.(v)

let value_lit s l =
  let a = s.assigns.(Lit.var l) in
  if Lit.sign l then a else -a

let decision_level s = Vec.size s.trail_lim

(* Map a caller-facing literal onto its equivalence-class representative.
   Identity until the first substitution, and maps are kept fully collapsed
   (no chains), so a single lookup suffices. *)
let subst_lit s l = if s.has_subst then s.repr.(l) else l

(* A no-op: [simplify] never removes a variable, so none needs to be
   frozen against it. Kept so existing callers still build. *)
let freeze_all (_ : t) = ()

(* ---- activity ---- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Idx_heap.update s.order v

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

let clause_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let clause_decay_activity s = s.cla_inc <- s.cla_inc *. clause_decay

(* ---- LBD ---- *)

let compute_lbd s lits =
  s.lbd_ctr <- s.lbd_ctr + 1;
  let ctr = s.lbd_ctr in
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(Lit.var l) in
      if lv > 0 && s.lbd_seen.(lv) <> ctr then begin
        s.lbd_seen.(lv) <- ctr;
        incr n
      end)
    lits;
  !n

(* re-score a learnt clause when it takes part in conflict analysis; LBD
   only ever improves (Glucose's dynamic glue update) *)
let maybe_update_lbd s (c : clause) =
  let lbd = compute_lbd s c.lits in
  if lbd < c.lbd then c.lbd <- lbd

(* ---- assignment ---- *)

let enqueue s l reason =
  assert (value_lit s l = 0);
  let v = Lit.var l in
  s.assigns.(v) <- (if Lit.sign l then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.binreason.(v) <- -1;
  Vec.push s.trail l

(* [l] is implied by the binary clause (l \/ other) with [other] false *)
let enqueue_bin s l other =
  assert (value_lit s l = 0);
  let v = Lit.var l in
  s.assigns.(v) <- (if Lit.sign l then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- dummy_clause;
  s.binreason.(v) <- other;
  Vec.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.assigns.(v) <- 0;
      s.polarity.(v) <- Lit.sign l;
      s.reason.(v) <- dummy_clause;
      s.binreason.(v) <- -1;
      Idx_heap.insert s.order v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* ---- watches / binary layer ---- *)

let attach_clause s c =
  assert (Array.length c.lits >= 2);
  Vec.push s.watches.(Lit.negate c.lits.(0)) c;
  Vec.push s.watches.(Lit.negate c.lits.(1)) c

(* record the binary clause (a \/ b) in the implication layer: enqueueing
   the negation of either literal implies the other *)
let add_binary s a b =
  Vec.push s.bin.(Lit.negate a) b;
  Vec.push s.bin.(Lit.negate b) a;
  s.n_binaries <- s.n_binaries + 1

(* Propagate all enqueued facts; returns the conflicting clause if any.
   For each dequeued literal the binary layer fires first — a flat scan of
   implied literals, no clause records touched — then the long clauses. *)
let propagate s =
  let confl = ref None in
  while !confl = None && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* binary pass: every entry of bin.(p) is implied outright *)
    let bs = s.bin.(p) in
    let nb = Vec.size bs in
    let j = ref 0 in
    while !confl = None && !j < nb do
      let o = Vec.get bs !j in
      (match value_lit s o with
      | 1 -> ()
      | 0 -> enqueue_bin s o (Lit.negate p)
      | _ ->
          (* both literals of (negate p \/ o) are false: materialise the
             pair as a throwaway clause to seed conflict analysis *)
          confl :=
            Some
              {
                lits = [| o; Lit.negate p |];
                learnt = false;
                activity = 0.;
                lbd = 2;
                deleted = false;
                sig_ = 0;
              };
          s.qhead <- Vec.size s.trail);
      incr j
    done;
    if !confl = None then begin
      let ws = s.watches.(p) in
      let i = ref 0 in
      while !i < Vec.size ws do
        let c = Vec.get ws !i in
        if c.deleted then Vec.swap_remove ws !i
        else begin
          let false_lit = Lit.negate p in
          (* make sure the false literal is at position 1 *)
          if c.lits.(0) = false_lit then begin
            c.lits.(0) <- c.lits.(1);
            c.lits.(1) <- false_lit
          end;
          if value_lit s c.lits.(0) = 1 then incr i (* clause already satisfied *)
          else begin
            (* look for a new literal to watch *)
            let n = Array.length c.lits in
            let k = ref 2 in
            while !k < n && value_lit s c.lits.(!k) = -1 do
              incr k
            done;
            if !k < n then begin
              (* found: move it to position 1 and update watch lists *)
              c.lits.(1) <- c.lits.(!k);
              c.lits.(!k) <- false_lit;
              Vec.push s.watches.(Lit.negate c.lits.(1)) c;
              Vec.swap_remove ws !i
            end
            else if value_lit s c.lits.(0) = -1 then begin
              (* conflict *)
              confl := Some c;
              s.qhead <- Vec.size s.trail;
              incr i
            end
            else begin
              (* unit clause: propagate c.lits.(0) *)
              enqueue s c.lits.(0) c;
              incr i
            end
          end
        end
      done
    end
  done;
  !confl

(* ---- clause addition (decision level 0 only) ---- *)

exception Early_unsat

let add_clause_a s lits =
  if s.ok then begin
    assert (decision_level s = 0);
    Array.iter
      (fun l ->
        if Lit.var l >= s.nvars then
          invalid_arg "Solver.add_clause: unallocated variable")
      lits;
    (* substituted literals enter as their class representatives *)
    let lits = Array.map (fun l -> subst_lit s l) lits in
    (* sort, dedup, drop false literals, detect tautology / satisfied *)
    Array.sort compare lits;
    let out = ref [] and n = ref 0 and sat = ref false in
    let prev = ref (-1) in
    Array.iter
      (fun l ->
        if not !sat then begin
          if l = Lit.negate !prev && !prev >= 0 then sat := true (* p ∨ ¬p *)
          else if l <> !prev then begin
            match value_lit s l with
            | 1 -> sat := true
            | -1 when s.level.(Lit.var l) = 0 -> () (* false at level 0: drop *)
            | _ ->
                out := l :: !out;
                incr n;
                prev := l
          end
        end)
      lits;
    if not !sat then begin
      match !out with
      | [] ->
          s.ok <- false;
          raise Early_unsat
      | [ l ] -> (
          enqueue s l dummy_clause;
          match propagate s with
          | Some _ ->
              s.ok <- false;
              raise Early_unsat
          | None -> ())
      | [ x; y ] -> add_binary s x y
      | ls ->
          let c =
            {
              lits = Array.of_list (List.rev ls);
              learnt = false;
              activity = 0.;
              lbd = 0;
              deleted = false;
              sig_ = 0;
            }
          in
          Vec.push s.clauses c;
          attach_clause s c
    end
  end

let add_clause_a s lits = try add_clause_a s lits with Early_unsat -> ()

let add_clause s lits = add_clause_a s (Array.of_list lits)

let add_cnf s (f : Cnf.t) =
  ensure_nvars s f.Cnf.nvars;
  List.iter (fun c -> add_clause_a s c) f.Cnf.clauses

let add_units s lits = List.iter (fun l -> add_clause s [ l ]) lits

(* ---- conflict analysis (first UIP) ---- *)

let analyze s confl =
  let learnt = Vec.create ~dummy:0 in
  Vec.push learnt 0 (* placeholder for the asserting literal *);
  let path_c = ref 0 in
  let p = ref (-1) (* -1 = undefined *) in
  let index = ref (Vec.size s.trail - 1) in
  let visit q =
    let v = Lit.var q in
    if (not s.seen.(v)) && s.level.(v) > 0 then begin
      var_bump s v;
      s.seen.(v) <- true;
      if s.level.(v) >= decision_level s then incr path_c
      else Vec.push learnt q
    end
  in
  (* seed with the conflict clause, then walk the trail expanding reasons *)
  if confl.learnt then begin
    clause_bump s confl;
    maybe_update_lbd s confl
  end;
  Array.iter visit confl.lits;
  let continue_loop = ref true in
  while !continue_loop do
    (* select next literal to expand *)
    while not s.seen.(Lit.var (Vec.get s.trail !index)) do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    let v = Lit.var !p in
    s.seen.(v) <- false;
    decr path_c;
    if !path_c > 0 then begin
      if s.binreason.(v) >= 0 then visit s.binreason.(v)
      else begin
        let c = s.reason.(v) in
        if c.learnt then begin
          clause_bump s c;
          maybe_update_lbd s c
        end;
        for j = 1 to Array.length c.lits - 1 do
          visit c.lits.(j)
        done
      end
    end
    else continue_loop := false
  done;
  Vec.set learnt 0 (Lit.negate !p);
  (* clause minimisation: drop literals implied by the rest via their reason *)
  let keep q =
    let v = Lit.var q in
    if s.binreason.(v) >= 0 then begin
      let w = Lit.var s.binreason.(v) in
      (not s.seen.(w)) && s.level.(w) > 0
    end
    else
      let r = s.reason.(v) in
      if r == dummy_clause then true
      else
        Array.exists
          (fun l ->
            let w = Lit.var l in
            w <> v && (not s.seen.(w)) && s.level.(w) > 0)
          r.lits
  in
  let minimized = Vec.create ~dummy:0 in
  Vec.push minimized (Vec.get learnt 0);
  for i = 1 to Vec.size learnt - 1 do
    let q = Vec.get learnt i in
    if keep q then Vec.push minimized q
  done;
  (* compute backtrack level; move the max-level literal to position 1 *)
  let bt_level = ref 0 in
  if Vec.size minimized > 1 then begin
    let max_i = ref 1 in
    for i = 2 to Vec.size minimized - 1 do
      if s.level.(Lit.var (Vec.get minimized i)) > s.level.(Lit.var (Vec.get minimized !max_i))
      then max_i := i
    done;
    let tmp = Vec.get minimized 1 in
    Vec.set minimized 1 (Vec.get minimized !max_i);
    Vec.set minimized !max_i tmp;
    bt_level := s.level.(Lit.var (Vec.get minimized 1))
  end;
  (* clear seen flags *)
  Vec.iter (fun q -> s.seen.(Lit.var q) <- false) learnt;
  (Array.of_list (Vec.to_list minimized), !bt_level)

(* ---- learnt clause database reduction ---- *)

let locked s c =
  Array.length c.lits > 0
  && s.reason.(Lit.var c.lits.(0)) == c
  && value_lit s c.lits.(0) = 1

(* Halve the learnt database: glue clauses (LBD <= 2) and clauses locked as
   reasons survive unconditionally; the rest go worst-first by LBD, ties
   broken by lower activity. Binary learnts never appear here — they live
   in the binary layer and are kept forever. Deleted clauses leave their
   watch lists lazily during propagation. *)
let reduce_db s =
  let cand = ref [] and ncand = ref 0 in
  Vec.iter
    (fun (c : clause) ->
      if (not c.deleted) && c.lbd > 2 && not (locked s c) then begin
        cand := c :: !cand;
        incr ncand
      end)
    s.learnts;
  let arr = Array.of_list !cand in
  Array.sort
    (fun (a : clause) (b : clause) ->
      if a.lbd <> b.lbd then compare b.lbd a.lbd else compare a.activity b.activity)
    arr;
  let to_delete = !ncand / 2 in
  for i = 0 to to_delete - 1 do
    arr.(i).deleted <- true
  done;
  Vec.filter_in_place (fun (c : clause) -> not c.deleted) s.learnts;
  s.learnts_deleted <- s.learnts_deleted + to_delete;
  s.learnts_kept <- Vec.size s.learnts;
  (* geometric schedule: each reduction buys a 20%-longer reprieve *)
  s.reduce_interval <- s.reduce_interval + (s.reduce_interval / 5);
  s.next_reduce <- s.conflicts + s.reduce_interval

let set_reduce s b = s.reduce_enabled <- b

let set_reduce_interval s n =
  if n < 1 then invalid_arg "Solver.set_reduce_interval";
  s.reduce_interval <- n;
  s.next_reduce <- s.conflicts + n

(* ---- search ---- *)

let luby y x =
  (* Finite subsequences of the Luby sequence: 1,1,2,1,1,2,4,... *)
  let rec go size seq x =
    if size - 1 = x then (seq, x)
    else
      let size' = (size - 1) / 2 in
      go size' (seq - 1) (x mod size')
  in
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let seq, _ = go !size !seq x in
  y ** float_of_int seq

let pick_branch_var s =
  let rec go () =
    if Idx_heap.is_empty s.order then -1
    else
      let v = Idx_heap.pop_max s.order in
      if
        value_var s v = 0
        && ((not s.has_subst) || s.repr.(Lit.pos v) = Lit.pos v)
      then v
      else go ()
  in
  go ()

(* ---- budgets (MiniSat setConfBudget / budgetOff lineage) ---- *)

let set_budget ?conflicts ?propagations s =
  (match conflicts with
  | Some n -> s.conflict_limit <- s.conflicts + max 0 n
  | None -> ());
  match propagations with
  | Some n -> s.propagation_limit <- s.propagations + max 0 n
  | None -> ()

let clear_budget s =
  s.conflict_limit <- -1;
  s.propagation_limit <- -1

let within_budget s =
  (s.conflict_limit < 0 || s.conflicts < s.conflict_limit)
  && (s.propagation_limit < 0 || s.propagations < s.propagation_limit)

let budget_exhausted s = not (within_budget s)

type search_outcome = S_sat | S_unsat_global | S_unsat_assump | S_restart | S_unknown

let record_learnt s lits =
  let n = Array.length lits in
  if n = 1 then enqueue s lits.(0) dummy_clause
  else if n = 2 then begin
    (* learnt binaries go straight to the implication layer and are never
       reduction candidates *)
    add_binary s lits.(0) lits.(1);
    s.learned <- s.learned + 1;
    s.lbd_sum <- s.lbd_sum +. 2.;
    enqueue_bin s lits.(0) lits.(1)
  end
  else begin
    let lbd = compute_lbd s lits in
    let c = { lits; learnt = true; activity = 0.; lbd; deleted = false; sig_ = 0 } in
    s.learned <- s.learned + 1;
    s.lbd_sum <- s.lbd_sum +. float_of_int lbd;
    Vec.push s.learnts c;
    attach_clause s c;
    clause_bump s c;
    enqueue s lits.(0) c
  end

let search s ~respect_budget ~nof_conflicts ~assumptions =
  let conflict_c = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    match propagate s with
    | Some confl ->
        s.conflicts <- s.conflicts + 1;
        incr conflict_c;
        if decision_level s = 0 then outcome := Some S_unsat_global
        else if respect_budget && not (within_budget s) then
          (* budget spent mid-search: the conflict is left unresolved; the
             caller cancels to level 0, keeping the solver reusable *)
          outcome := Some S_unknown
        else begin
          let learnt, bt = analyze s confl in
          cancel_until s bt;
          record_learnt s learnt;
          var_decay_activity s;
          clause_decay_activity s
        end
    | None ->
        if respect_budget && not (within_budget s) then begin
          cancel_until s 0;
          outcome := Some S_unknown
        end
        else if !conflict_c >= nof_conflicts then begin
          cancel_until s 0;
          s.restarts <- s.restarts + 1;
          outcome := Some S_restart
        end
        else begin
          if s.reduce_enabled && s.conflicts >= s.next_reduce then reduce_db s;
          (* place assumptions first, one decision level each *)
          let next = ref (-1) in
          let dl = decision_level s in
          if dl < Array.length assumptions then begin
            let p = assumptions.(dl) in
            match value_lit s p with
            | 1 ->
                (* already satisfied: open a dummy level *)
                Vec.push s.trail_lim (Vec.size s.trail)
            | -1 -> outcome := Some S_unsat_assump
            | _ -> next := p
          end
          else begin
            let v = pick_branch_var s in
            if v = -1 then outcome := Some S_sat
            else begin
              s.decisions <- s.decisions + 1;
              next := Lit.make v s.polarity.(v)
            end
          end;
          (match (!outcome, !next) with
          | None, p when p >= 0 ->
              Vec.push s.trail_lim (Vec.size s.trail);
              enqueue s p dummy_clause
          | _ -> ())
        end
  done;
  match !outcome with Some o -> o | None -> assert false

module Limited = struct
  type t = Sat | Unsat | Unknown
end

(* Extend a model over the substituted variables: each mirrors its class
   representative, which the search assigned (representatives are never
   substituted themselves). *)
let extend_model s =
  if s.has_subst then
    for v = 0 to s.nvars - 1 do
      let r = s.repr.(Lit.pos v) in
      if r <> Lit.pos v then
        s.saved_model.(v) <-
          (if s.saved_model.(Lit.var r) then Lit.sign r else not (Lit.sign r))
    done

let solve_driver ~respect_budget ~assumptions s =
  s.model_valid <- false;
  if not s.ok then Limited.Unsat
  else begin
    cancel_until s 0;
    let assumptions =
      List.map
        (fun l ->
          if Lit.var l >= s.nvars then
            invalid_arg "Solver.solve: assumption over unallocated variable";
          subst_lit s l)
        assumptions
    in
    let assumptions = Array.of_list assumptions in
    let result = ref None in
    let curr_restarts = ref 0 in
    while !result = None do
      let budget =
        int_of_float (luby 2.0 !curr_restarts *. float_of_int restart_base)
      in
      (match search s ~respect_budget ~nof_conflicts:budget ~assumptions with
      | S_sat ->
          s.saved_model <- Array.init s.nvars (fun v -> value_var s v = 1);
          extend_model s;
          s.model_valid <- true;
          result := Some Limited.Sat
      | S_unsat_global ->
          s.ok <- false;
          result := Some Limited.Unsat
      | S_unsat_assump -> result := Some Limited.Unsat
      | S_unknown -> result := Some Limited.Unknown
      | S_restart -> incr curr_restarts);
      ()
    done;
    cancel_until s 0;
    match !result with Some r -> r | None -> assert false
  end

let solve ?(assumptions = []) s =
  match solve_driver ~respect_budget:false ~assumptions s with
  | Limited.Sat -> Sat
  | Limited.Unsat -> Unsat
  | Limited.Unknown -> assert false (* unreachable: budgets not consulted *)

let solve_limited ?(assumptions = []) s = solve_driver ~respect_budget:true ~assumptions s

let model_value s v =
  if not s.model_valid then invalid_arg "Solver.model_value: no model";
  if v < 0 || v >= Array.length s.saved_model then
    invalid_arg "Solver.model_value: bad variable"
  else s.saved_model.(v)

let model s =
  if not s.model_valid then invalid_arg "Solver.model: no model";
  Array.copy s.saved_model

let has_model s = s.model_valid

let value_level0 s v =
  if v < 0 || v >= s.nvars then invalid_arg "Solver.value_level0";
  let l = subst_lit s (Lit.pos v) in
  let w = Lit.var l in
  if s.assigns.(w) <> 0 && s.level.(w) = 0 then
    Some (if Lit.sign l then s.assigns.(w) = 1 else s.assigns.(w) = -1)
  else None

(* the saved phase is per variable, so steer the representative: setting
   [l] true is setting [subst_lit s l] true *)
let set_phase s l =
  if Lit.var l >= s.nvars then invalid_arg "Solver.set_phase: unallocated variable";
  let r = subst_lit s l in
  s.polarity.(Lit.var r) <- Lit.sign r

let ok s = s.ok

(* ---- pre/inprocessing at decision level 0 ---- *)

(* Assign a literal at level 0 outside of propagation (watches may be
   stale while simplify runs, so implications are found by the cleanup
   fixpoint, not by [propagate]). *)
let assign_unit s l =
  match value_lit s l with
  | 1 -> ()
  | -1 -> s.ok <- false
  | _ -> enqueue s l dummy_clause

let clause_sig c =
  let g = ref 0 in
  Array.iter (fun l -> g := !g lor (1 lsl (Lit.var l mod 61))) c.lits;
  c.sig_ <- !g

(* Remove satisfied clauses / binary pairs and strip false literals until
   no new level-0 unit appears. Runs with stale watch lists (rebuilt by the
   caller); long clauses shrunk to two literals migrate to the binary
   layer, to one literal onto the trail. *)
let cleanup_fixpoint s =
  let changed = ref true in
  while s.ok && !changed do
    changed := false;
    (* binary layer: the pair at bin.(p) entry o is (negate p \/ o) *)
    let removed = ref 0 in
    for p = 0 to (2 * s.nvars) - 1 do
      let bs = s.bin.(p) in
      if Vec.size bs > 0 then begin
        let q = Lit.negate p in
        Vec.filter_in_place
          (fun o ->
            if not s.ok then true
            else begin
              (match (value_lit s q, value_lit s o) with
              | -1, -1 -> s.ok <- false
              | -1, 0 ->
                  assign_unit s o;
                  changed := true
              | 0, -1 ->
                  assign_unit s q;
                  changed := true
              | _ -> ());
              if s.ok && (value_lit s q = 1 || value_lit s o = 1) then begin
                incr removed;
                false
              end
              else true
            end)
          bs
      end
    done;
    s.n_binaries <- s.n_binaries - (!removed / 2);
    (* long clauses, original and learnt alike *)
    let clean vec =
      Vec.iter
        (fun (c : clause) ->
          if s.ok && not c.deleted then begin
            if Array.exists (fun l -> value_lit s l = 1) c.lits then c.deleted <- true
            else if Array.exists (fun l -> value_lit s l = -1) c.lits then begin
              let lits' =
                Array.of_list
                  (List.filter (fun l -> value_lit s l = 0) (Array.to_list c.lits))
              in
              match Array.length lits' with
              | 0 -> s.ok <- false
              | 1 ->
                  assign_unit s lits'.(0);
                  c.deleted <- true;
                  changed := true
              | 2 ->
                  add_binary s lits'.(0) lits'.(1);
                  c.deleted <- true
              | _ -> c.lits <- lits'
            end
          end)
        vec
    in
    clean s.clauses;
    clean s.learnts
  done

(* Equivalent-literal substitution (the decompose step of the Lingeling /
   CaDiCaL lineage): strongly connected components of the binary
   implication graph are equivalence classes — every literal in an SCC
   implies every other — so all members collapse onto one representative.
   A class containing both a literal and its negation makes the formula
   unsatisfiable. Substituted variables stay expressible: every API entry
   point maps through [repr]. Returns [true] when at least one new class
   was found. *)
let equiv_pass s =
  let n2 = 2 * s.nvars in
  let index = Array.make n2 (-1) in
  let low = Array.make n2 0 in
  let onstack = Array.make n2 false in
  let comp = Array.make n2 (-1) in
  let stack = Vec.create ~dummy:0 in
  let ncomp = ref 0 in
  let counter = ref 0 in
  (* iterative Tarjan: the work stack holds (node, next successor index) *)
  let work = Vec.create ~dummy:(0, 0) in
  for root = 0 to n2 - 1 do
    if index.(root) < 0 then begin
      Vec.push work (root, 0);
      while Vec.size work > 0 do
        let v, ci = Vec.get work (Vec.size work - 1) in
        if ci = 0 then begin
          index.(v) <- !counter;
          low.(v) <- !counter;
          incr counter;
          Vec.push stack v;
          onstack.(v) <- true
        end;
        let succ = s.bin.(v) in
        if ci < Vec.size succ then begin
          Vec.set work (Vec.size work - 1) (v, ci + 1);
          let w = Vec.get succ ci in
          if index.(w) < 0 then Vec.push work (w, 0)
          else if onstack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          ignore (Vec.pop work);
          if Vec.size work > 0 then begin
            let p, _ = Vec.get work (Vec.size work - 1) in
            low.(p) <- min low.(p) low.(v)
          end;
          if low.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              let w = Vec.pop stack in
              onstack.(w) <- false;
              comp.(w) <- !ncomp;
              if w = v then continue := false
            done;
            incr ncomp
          end
        end
      done
    end
  done;
  (* bucket literals by component and install representatives *)
  let members = Array.make !ncomp [] in
  for l = n2 - 1 downto 0 do
    members.(comp.(l)) <- l :: members.(comp.(l))
  done;
  let found = ref false in
  Array.iter
    (fun ms ->
      match ms with
      | [] | [ _ ] -> ()
      | rep :: rest ->
          (* members are ascending, so the head is the minimum literal; the
             complement class independently picks exactly the negated
             representative (same variable set, opposite signs), keeping
             [repr l] and [repr (negate l)] negations of each other *)
          List.iter
            (fun l ->
              if comp.(l) = comp.(Lit.negate l) then s.ok <- false
              else s.repr.(l) <- rep)
            rest;
          (* each substituted variable sits in exactly one of the two
             complementary classes with the positive representative *)
          if Lit.sign rep then s.n_subst <- s.n_subst + List.length rest;
          found := true)
    members;
  if !found && s.ok then begin
    (* collapse chains left by earlier substitution rounds: a literal that
       already mapped to [r] must follow [r]'s new mapping (one hop — the
       old map was chain-free and the new one maps only live literals) *)
    if s.has_subst then
      for l = 0 to Array.length s.repr - 1 do
        let r = s.repr.(l) in
        if r <> l && r < n2 && s.repr.(r) <> r then s.repr.(l) <- s.repr.(r)
      done;
    s.has_subst <- true
  end;
  !found && s.ok

(* Rewrite the whole database through [repr]: binary pairs and long
   clauses alike. Tautologies vanish (the class's own defining binaries),
   duplicates in the binary layer are deduplicated outright, and clauses
   shrunk to one literal become level-0 facts. Duplicate LONG clauses are
   left for the subsumption pass, which deletes exact copies. Watch lists
   are stale during this pass; the caller rebuilds them. *)
let apply_subst s =
  let pairs = ref [] in
  Array.iteri
    (fun p bs ->
      let a = Lit.negate p in
      Vec.iter (fun o -> if a < o then pairs := (a, o) :: !pairs) bs)
    s.bin;
  Array.iter Vec.clear s.bin;
  s.n_binaries <- 0;
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun (a, b) ->
      let a = s.repr.(a) and b = s.repr.(b) in
      let a, b = if a <= b then (a, b) else (b, a) in
      if a = b then assign_unit s a (* (l ∨ l) collapsed to a fact *)
      else if b = Lit.negate a then () (* tautology *)
      else if not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        add_binary s a b
      end)
    !pairs;
  let rewrite vec =
    Vec.iter
      (fun (c : clause) ->
        if (not c.deleted) && Array.exists (fun l -> s.repr.(l) <> l) c.lits then begin
          let mapped = Array.map (fun l -> s.repr.(l)) c.lits in
          Array.sort compare mapped;
          let out = ref [] and n = ref 0 and taut = ref false in
          let prev = ref (-2) in
          Array.iter
            (fun l ->
              if not !taut then
                if l = Lit.negate !prev && !prev >= 0 then taut := true
                else if l <> !prev then begin
                  out := l :: !out;
                  incr n;
                  prev := l
                end)
            mapped;
          if !taut then c.deleted <- true
          else
            match !out with
            | [] -> s.ok <- false
            | [ l ] ->
                assign_unit s l;
                c.deleted <- true
            | [ x; y ] ->
                let x, y = if x <= y then (x, y) else (y, x) in
                if not (Hashtbl.mem seen (x, y)) then begin
                  Hashtbl.add seen (x, y) ();
                  add_binary s x y
                end;
                c.deleted <- true
            | ls -> c.lits <- Array.of_list (List.rev ls)
        end)
      vec
  in
  rewrite s.clauses;
  rewrite s.learnts

(* Backward subsumption and self-subsuming resolution over the original
   long clauses, using per-variable occurrence lists and 61-bit signatures;
   the binary layer both subsumes and strengthens long clauses. *)
let subsumption_pass s =
  (* transient occurrence lists over the original long clauses and a
     literal-indexed mark array *)
  let occ = Array.init s.nvars (fun _ -> Vec.create ~dummy:dummy_clause) in
  Vec.iter
    (fun (c : clause) ->
      if not c.deleted then Array.iter (fun l -> Vec.push occ.(Lit.var l) c) c.lits)
    s.clauses;
  let mark = Array.make (2 * s.nvars) 0 and stamp = ref 0 in
  let next_stamp () =
    incr stamp;
    !stamp
  in
  (* does c subsume d (return Some None), self-subsume it (Some (Some l):
     negate l can be stripped from d), or neither (None)? *)
  let subsumes (c : clause) (d : clause) =
    let st = next_stamp () in
    Array.iter (fun l -> mark.(l) <- st) d.lits;
    let flip = ref None and failed = ref false in
    Array.iter
      (fun l ->
        if not !failed then
          if mark.(l) = st then ()
          else if mark.(Lit.negate l) = st && !flip = None then flip := Some l
          else failed := true)
      c.lits;
    if !failed then None else Some !flip
  in
  (* strengthen d by dropping literal l; returns false when d left the long
     database (became binary) *)
  let strengthen (d : clause) l =
    d.lits <- Array.of_list (List.filter (fun x -> x <> l) (Array.to_list d.lits));
    if Array.length d.lits = 2 then begin
      add_binary s d.lits.(0) d.lits.(1);
      d.deleted <- true;
      false
    end
    else begin
      clause_sig d;
      true
    end
  in
  let work = Vec.create ~dummy:dummy_clause in
  Vec.iter
    (fun (c : clause) ->
      clause_sig c;
      Vec.push work c)
    s.clauses;
  let wi = ref 0 in
  while !wi < Vec.size work do
    let c = Vec.get work !wi in
    incr wi;
    if not c.deleted then begin
      (* the binary layer vs c: a pair (l \/ o) with both l and o in c
         subsumes it; with l in c and negate o in c it strengthens it *)
      let rescan = ref true in
      while !rescan && not c.deleted do
        rescan := false;
        let st = next_stamp () in
        Array.iter (fun l -> mark.(l) <- st) c.lits;
        (try
           Array.iter
             (fun l ->
               Vec.iter
                 (fun o ->
                   if o <> l && mark.(o) = st then begin
                     c.deleted <- true;
                     s.subsumed <- s.subsumed + 1;
                     raise Exit
                   end
                   else if mark.(Lit.negate o) = st then begin
                     if strengthen c (Lit.negate o) then rescan := true;
                     raise Exit
                   end)
                 s.bin.(Lit.negate l))
             c.lits
         with Exit -> ())
      done;
      if not c.deleted then begin
        (* scan candidates through the occurrence list of c's rarest var *)
        let best = ref (Lit.var c.lits.(0)) in
        Array.iter
          (fun l ->
            let v = Lit.var l in
            if Vec.size occ.(v) < Vec.size occ.(!best) then best := v)
          c.lits;
        Vec.iter
          (fun (d : clause) ->
            if
              d != c && (not d.deleted) && (not c.deleted)
              && Array.length d.lits >= Array.length c.lits
              && c.sig_ land lnot d.sig_ = 0
            then
              match subsumes c d with
              | Some None ->
                  d.deleted <- true;
                  s.subsumed <- s.subsumed + 1
              | Some (Some l) ->
                  (* self-subsuming resolution: d loses (negate l) *)
                  if strengthen d (Lit.negate l) then Vec.push work d
                  else s.subsumed <- s.subsumed + 1
              | None -> ())
          occ.(!best)
      end
    end
  done

let clause_load s = Vec.size s.clauses + s.n_binaries

(* Inprocessing scheduling: a full pass costs O(database) — occurrence
   lists, subsumption scans, a complete watch rebuild — so running it at
   every incremental extension point would dominate sessions that extend
   often and grow little (the daemon's delta workload). A pass runs only
   when the clause load has grown by >= 25% (plus slack) since the last
   one; calls in between are no-ops. *)
let simplify_due s =
  s.simplify_marker < 0
  || clause_load s > s.simplify_marker + (s.simplify_marker / 4) + 16

let simplify s =
  if s.ok && decision_level s = 0 && simplify_due s then begin
    let t0 = Monotonic_clock.now () in
    (match propagate s with Some _ -> s.ok <- false | None -> ());
    if s.ok then begin
      (* level-0 implications are facts; their reasons are never revisited *)
      Vec.iter
        (fun l ->
          let v = Lit.var l in
          s.reason.(v) <- dummy_clause;
          s.binreason.(v) <- -1)
        s.trail;
      cleanup_fixpoint s;
      (* equivalent-literal classes (binary SCCs) collapse onto their
         representatives before the clause-level passes: the rewrite turns
         the classes' defining binaries into tautologies and leaves exact
         duplicate long clauses for the subsumption pass to delete *)
      if s.ok && equiv_pass s then begin
        apply_subst s;
        if s.ok then cleanup_fixpoint s
      end;
      if s.ok then begin
        subsumption_pass s;
        (* consume units discovered by strengthening *)
        if s.ok then cleanup_fixpoint s
      end;
      (* compact the databases and rebuild every watch list: surviving long
         clauses contain only unassigned literals, so any two positions
         are valid watches *)
      Vec.filter_in_place (fun (c : clause) -> not c.deleted) s.clauses;
      Vec.filter_in_place (fun (c : clause) -> not c.deleted) s.learnts;
      Array.iter Vec.clear s.watches;
      if s.ok then begin
        Vec.iter (fun c -> attach_clause s c) s.clauses;
        Vec.iter (fun c -> attach_clause s c) s.learnts;
        (* re-run propagation from scratch against the rebuilt structures *)
        s.qhead <- 0;
        match propagate s with Some _ -> s.ok <- false | None -> ()
      end
    end;
    s.simplify_marker <- clause_load s;
    s.simplify_ms <-
      s.simplify_ms +. (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-6)
  end

(* ---- export ---- *)

let export_cnf s =
  if not s.ok then Cnf.unsafe_make ~nvars:(max s.nvars 1) [ [||] ]
  else begin
    let cls = ref [] in
    (* level-0 facts *)
    Vec.iter
      (fun l -> if s.level.(Lit.var l) = 0 then cls := [| l |] :: !cls)
      s.trail;
    (* one emission per binary pair: the co-literal of bin.(p) is negate p,
       so emit only from the side where it is the smaller literal *)
    Array.iteri
      (fun p bs ->
        let a = Lit.negate p in
        Vec.iter (fun o -> if a < o then cls := [| a; o |] :: !cls) bs)
      s.bin;
    (* surviving original long clauses (learnts are implied; skipped) *)
    Vec.iter
      (fun (c : clause) -> if not c.deleted then cls := Array.copy c.lits :: !cls)
      s.clauses;
    (* substituted variables stay expressible in the export: emit their
       defining equivalences, so the export keeps the input's models *)
    if s.has_subst then
      for v = 0 to s.nvars - 1 do
        let p = Lit.pos v in
        let r = s.repr.(p) in
        if r <> p then begin
          cls := [| Lit.negate p; r |] :: !cls;
          cls := [| p; Lit.negate r |] :: !cls
        end
      done;
    Cnf.unsafe_make ~nvars:s.nvars !cls
  end

(* ---- statistics ---- *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnts : int;
  learned : int;
  lbd_sum : float;
  learnts_kept : int;
  learnts_deleted : int;
  binaries : int;
  subsumed : int;
  vars_substituted : int;
  simplify_ms : float;
}

let stats (s : t) =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    learnts = Vec.size s.learnts;
    learned = s.learned;
    lbd_sum = s.lbd_sum;
    learnts_kept = s.learnts_kept;
    learnts_deleted = s.learnts_deleted;
    binaries = s.n_binaries;
    subsumed = s.subsumed;
    vars_substituted = s.n_subst;
    simplify_ms = s.simplify_ms;
  }

let zero_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnts = 0;
    learned = 0;
    lbd_sum = 0.;
    learnts_kept = 0;
    learnts_deleted = 0;
    binaries = 0;
    subsumed = 0;
    vars_substituted = 0;
    simplify_ms = 0.;
  }

let lbd_avg st = if st.learned = 0 then 0. else st.lbd_sum /. float_of_int st.learned

let add_stats a b =
  {
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    learnts = b.learnts;
    learned = a.learned + b.learned;
    lbd_sum = a.lbd_sum +. b.lbd_sum;
    learnts_kept = b.learnts_kept;
    learnts_deleted = a.learnts_deleted + b.learnts_deleted;
    binaries = b.binaries;
    subsumed = a.subsumed + b.subsumed;
    vars_substituted = a.vars_substituted + b.vars_substituted;
    simplify_ms = a.simplify_ms +. b.simplify_ms;
  }

let diff_stats a b =
  {
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    restarts = a.restarts - b.restarts;
    learnts = a.learnts;
    learned = a.learned - b.learned;
    lbd_sum = a.lbd_sum -. b.lbd_sum;
    learnts_kept = a.learnts_kept;
    learnts_deleted = a.learnts_deleted - b.learnts_deleted;
    binaries = a.binaries;
    subsumed = a.subsumed - b.subsumed;
    vars_substituted = a.vars_substituted - b.vars_substituted;
    simplify_ms = a.simplify_ms -. b.simplify_ms;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "conflicts=%d decisions=%d propagations=%d restarts=%d learnts=%d \
     learnts_kept=%d learnts_deleted=%d lbd_avg=%.2f binaries=%d subsumed=%d \
     vars_substituted=%d simplify_ms=%.1f"
    st.conflicts st.decisions st.propagations st.restarts st.learnts st.learnts_kept
    st.learnts_deleted (lbd_avg st) st.binaries st.subsumed
    st.vars_substituted st.simplify_ms

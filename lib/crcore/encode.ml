type mode = Coding.mode = Paper | Exact

type fact = { attr : int; lo : int; hi : int }

type source = From_order | From_constraint of int | From_cfd of int

type iconstraint = { premise : fact list; concl : fact; source : source }

(* ---- compiled constraint forms ----

   [Instantiation] evaluates every candidate constraint (see the constant
   index below) on every representative tuple pair; resolving attribute
   names to positions once per Σ/Γ (instead of a hashtable lookup per
   predicate per pair) and splitting the single-tuple constant predicates
   out of the pair predicates turns the inner loop into array reads and
   lets whole constraints skip pairs wholesale. *)

type cpred = CPrec of int | CCmp2 of int * Value.op

(* ---- the constant index ----

   A constraint carrying an equality with a constant can only matter to
   an entity that takes that constant, and a Person-style Σ/Γ is hundreds
   of such constraints, each about values few entities take. The index
   files each constraint under one (attribute, constant) pair; an entity
   probes it with its active-domain values and visits only the hits (plus
   the short list of constraints without an equality constant), in
   ascending constraint index, so deduplication keeps the very [source]
   a full scan would. The index only skips constraints that cannot fire:
   every exact test still runs on the candidates.

   Keys follow [Value.equal] ({!Value.Tbl}): [Int 3] meets [Float 3.],
   [0.] meets [-0.], NaN meets nothing. Equal keys are never merged: each
   constraint is its own binding ([add]) and a probe collects every
   binding equal to it ([find_all]). *)
type cindex = int Value.Tbl.t array  (* per attribute: constant -> constraint index *)

let cindex_create arity = Array.init arity (fun _ -> Value.Tbl.create 16)

let cindex_add (idx : cindex) a v k = Value.Tbl.add idx.(a) v k

(* ascending, duplicate-free indices of the constraints filed under
   [value a i] for some attribute [a] and [i < nvals a] *)
let cindex_probe (idx : cindex) ~nvals ~value =
  let hits = ref [] in
  Array.iteri
    (fun a tbl ->
      if Value.Tbl.length tbl > 0 then
        for i = 0 to nvals a - 1 do
          match Value.Tbl.find_all tbl (value a i) with
          | [] -> ()
          | ks -> hits := List.rev_append ks !hits
        done)
    idx;
  List.sort_uniq Int.compare !hits

type cconstraint = {
  c_idx : int;  (* index into Σ *)
  c_positions : int list;  (* sorted positions of every mentioned attribute *)
  c_pos : int;  (* number of [c_positions] among the distinct ones, below [s_npos] *)
  c_t1 : (int * Value.op * Value.t) list;  (* constant predicates on t1 *)
  c_t2 : (int * Value.op * Value.t) list;  (* constant predicates on t2 *)
  c_pair : cpred list;  (* pair predicates, original premise order *)
  c_concl : int;
}

type sigma_c = {
  s_schema : Schema.t;
  s_src : Currency.Constraint_ast.t list;
  s_cs : cconstraint array;  (* by Σ index *)
  s_index : cindex;  (* the constraints with an [Eq] constant predicate *)
  s_always : int list;  (* the others, ascending: visited on every entity *)
  s_npos : int;  (* how many distinct [c_positions] there are *)
}

type cgamma = { g_idx : int; g_lhs : (int * Value.t) list; g_rhs : int * Value.t }

type gamma_c = {
  g_schema : Schema.t;
  g_src : Cfd.Constant_cfd.t list;
  g_cs : cgamma array;  (* by Γ index *)
  g_index : cindex;  (* every CFD that can be relevant, under its first LHS atom *)
}

(* ---- per-shape templates ----

   Everything about an encoding that does not depend on the concrete
   entity: the compiled Σ/Γ with their constant indexes (a function of
   the schema and the interned constraint lists) and, in Paper mode, the
   structural-axiom clause blocks (Exact mode lists no axioms: see
   [order_axioms]). An attribute's block is a pure function of its
   universe size d and its variable offset — the numbering is offset
   arithmetic — so the store is keyed per attribute by (d, offset):
   entities (and Renumbered re-encodes) agreeing on an attribute's size
   and offset share its cubic transitivity block outright, even when
   their size vectors differ elsewhere. Sharing the clause arrays is
   safe: [Sat.Solver.add_clause_a] copies before sorting, and
   [Sat.Cnf.t] is immutable. *)

type structural_block = { sb_clauses : Sat.Lit.t array list; sb_count : int }

module Block_tbl = Hashtbl.Make (struct
  type t = int * int  (* (d, offset) *)

  let equal ((d1, o1) : t) (d2, o2) = d1 = d2 && o1 = o2
  let hash ((d, o) : t) = Hashtbl.hash (d, o)
end)

type template = {
  t_mode : mode;
  t_schema : Schema.t;
  t_sigma_c : sigma_c;
  t_gamma_c : gamma_c;
  t_lock : Mutex.t;  (* guards [t_structural]; build happens outside it *)
  t_structural : structural_block Block_tbl.t;
}

type t = {
  spec : Spec.t;
  coding : Coding.t;
  mode : mode;
  sigma_c : sigma_c;
  gamma_c : gamma_c;
  template : template option;
  n_rows : int;
  sigma_insts : iconstraint list;
  gamma_imps : iconstraint list;
  units : (fact * source) list;
  implications : iconstraint list;
  vetoes : (fact list * source) list;
  cnf : Sat.Cnf.t;
  n_structural : int;
  structural : Sat.Lit.t array list;
}

let lit_of_fact_c coding f = Coding.lit_of coding ~attr:f.attr f.lo f.hi

(* the (attribute, constant) of each [Eq] constant predicate *)
let eq_consts preds =
  List.filter_map (fun (a, op, v) -> if op = Value.Eq then Some (a, v) else None) preds

let compile_sigma schema sigma =
  (* constraint sets routinely hold hundreds of constraints over the same
     few attribute sets (chains instantiated with different constants), so
     each distinct position list gets an id and representatives are
     memoised per id *)
  let pos_ids = Hashtbl.create 16 in
  let pos_id positions =
    match Hashtbl.find_opt pos_ids positions with
    | Some k -> k
    | None ->
        let k = Hashtbl.length pos_ids in
        Hashtbl.add pos_ids positions k;
        k
  in
  let cs =
    List.mapi
      (fun k (c : Currency.Constraint_ast.t) ->
        let t1 = ref [] and t2 = ref [] and pair = ref [] in
        let positions = ref [Schema.index schema c.Currency.Constraint_ast.concl] in
        List.iter
          (fun p ->
            match p with
            | Currency.Constraint_ast.Prec name ->
                let a = Schema.index schema name in
                positions := a :: !positions;
                pair := CPrec a :: !pair
            | Currency.Constraint_ast.Cmp2 (name, op) ->
                let a = Schema.index schema name in
                positions := a :: !positions;
                pair := CCmp2 (a, op) :: !pair
            | Currency.Constraint_ast.Cmp_const (r, name, op, v) -> (
                let a = Schema.index schema name in
                positions := a :: !positions;
                let e = (a, op, v) in
                match r with
                | Currency.Constraint_ast.T1 -> t1 := e :: !t1
                | Currency.Constraint_ast.T2 -> t2 := e :: !t2))
          c.Currency.Constraint_ast.premise;
        (* sorted positions, not name-sorted [Constraint_ast.attrs]:
           which tuples represent a distinct projection is insensitive to
           the order of the projected positions, so any canonical order
           yields the same representatives (and memo hits) *)
        let positions = List.sort_uniq compare !positions in
        {
          c_idx = k;
          c_positions = positions;
          c_pos = pos_id positions;
          c_t1 = List.rev !t1;
          c_t2 = List.rev !t2;
          c_pair = List.rev !pair;
          c_concl = Schema.index schema c.Currency.Constraint_ast.concl;
        })
      sigma
  in
  (* a constraint fires only on a tuple pair whose t1 (t2) satisfies every
     t1 (t2) constant predicate, so one with [ti.A = c] needs c in A's
     active domain: it is filed under (A, c). One with a NaN [Eq]
     constant never fires and is filed nowhere. *)
  let index = cindex_create (Schema.arity schema) in
  let always = ref [] in
  List.iter
    (fun cc ->
      match eq_consts (cc.c_t1 @ cc.c_t2) with
      | [] -> always := cc.c_idx :: !always
      | eqs when List.exists (fun (_, v) -> Value.is_nan v) eqs -> ()
      | (a, v) :: _ -> cindex_add index a v cc.c_idx)
    cs;
  {
    s_schema = schema;
    s_src = sigma;
    s_cs = Array.of_list cs;
    s_index = index;
    s_always = List.rev !always;
    s_npos = Hashtbl.length pos_ids;
  }

let compile_gamma schema gamma =
  let cs =
    List.mapi
      (fun k (c : Cfd.Constant_cfd.t) ->
        let bname, bval = c.Cfd.Constant_cfd.rhs in
        {
          g_idx = k;
          g_lhs =
            List.map (fun (a, v) -> (Schema.index schema a, v)) c.Cfd.Constant_cfd.lhs;
          g_rhs = (Schema.index schema bname, bval);
        })
      gamma
  in
  (* a CFD is relevant only when its first LHS constant occurs; one with a
     NaN LHS constant never is (a pattern matches under [Value.equal]) *)
  let index = cindex_create (Schema.arity schema) in
  List.iter
    (fun g ->
      match g.g_lhs with
      | (a, v) :: _ when not (List.exists (fun (_, v) -> Value.is_nan v) g.g_lhs) ->
          cindex_add index a v g.g_idx
      | _ -> ())
    cs;
  { g_schema = schema; g_src = gamma; g_cs = Array.of_list cs; g_index = index }

(* Reuse a compiled form when the constraint list is the very same value:
   specs share Σ/Γ physically across [Se ⊕ Ot] steps (and callers can
   share across a batch via the [?sigma_c] parameters). A one-slot
   domain-local memo backs up callers that don't pass the compiled form —
   e.g. a naive resolution loop re-encoding the same spec every round —
   without any cross-domain state. *)
let sigma_memo : sigma_c option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let gamma_memo : gamma_c option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sigma_c_for schema sigma arg =
  match arg with
  | Some sc when sc.s_src == sigma && Schema.equal sc.s_schema schema -> sc
  | _ -> (
      let slot = Domain.DLS.get sigma_memo in
      match !slot with
      | Some sc when sc.s_src == sigma && Schema.equal sc.s_schema schema -> sc
      | _ ->
          let sc = compile_sigma schema sigma in
          slot := Some sc;
          sc)

let gamma_c_for schema gamma arg =
  match arg with
  | Some gc when gc.g_src == gamma && Schema.equal gc.g_schema schema -> gc
  | _ -> (
      let slot = Domain.DLS.get gamma_memo in
      match !slot with
      | Some gc when gc.g_src == gamma && Schema.equal gc.g_schema schema -> gc
      | _ ->
          let gc = compile_gamma schema gamma in
          slot := Some gc;
          gc)

let compiled_gamma spec = gamma_c_for (Spec.schema spec) spec.Spec.gamma None

(* the Σ constraints that can fire on [coding]'s entity, ascending *)
let iter_sigma_candidates sigma_c coding f =
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: b' -> if x < y then x :: merge a' b else y :: merge a b'
  in
  let hits =
    cindex_probe sigma_c.s_index ~nvals:(Coding.adom_size coding) ~value:(Coding.value coding)
  in
  List.iter (fun k -> f sigma_c.s_cs.(k)) (merge hits sigma_c.s_always)

(* ---- instantiating currency constraints over distinct projections ----

   Instance constraints depend only on the two tuples' values at the
   attributes a constraint mentions, so we instantiate over pairs of
   distinct projections rather than pairs of tuples: same instances,
   usually far fewer pairs. *)

(* Facts and fact lists in polymorphic [compare]'s order (field by
   field; lexicographic, a shorter prefix first), without its generic
   traversal. *)
let compare_fact f g =
  match Int.compare f.attr g.attr with
  | 0 -> ( match Int.compare f.lo g.lo with 0 -> Int.compare f.hi g.hi | c -> c)
  | c -> c

let rec compare_facts l m =
  match (l, m) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | f :: l', g :: m' -> ( match compare_fact f g with 0 -> compare_facts l' m' | c -> c)

(* Σ instances in a canonical order, independent of which tuple pairs
   produced them: [extend] merges incrementally-found instances into a
   base set and must land on the very list a fresh encode would build. *)
let compare_insts a b =
  match compare_facts a.premise b.premise with 0 -> compare_fact a.concl b.concl | c -> c

let sort_insts l = List.sort compare_insts l

(* ---- the per-entity instantiation stage ----

   [Coding.lower] gives every cell its universe id in the same scan that
   builds the active domains, over the entity's distinct rows
   ({!Entity.distinct_rows}): [cells.(a).(k)] is the id of row [k]'s
   value at attribute [a], read column by column. Tuples equal cell by
   cell ground every constraint identically, so a history that repeats
   its records is instantiated once per distinct record; rows keep the
   tuples' order, so representatives, instance order and [fired] flags
   are those of a scan over every tuple. Everything after the lowering
   is integer compares and array reads. This rests on two facts: value
   ids are assigned by [Value.total_compare], which identifies two values
   exactly when [Value.equal] does (numerically equal Int/Float
   included), so id equality IS value equality over universe members; and
   [Value.eval] is built on [equal]/[compare_opt], so evaluating an
   operator on the universe representative ([Coding.value]) is evaluating
   it on the tuple's own value. Projection representatives keyed on ids
   coincide with the value-keyed ones up to [Value.equal]-classes, which
   is the exact equivalence instance generation factors through — the
   instance set (and the [fired] flags) is unchanged. *)

(* Hashtbl picks a bucket from the hash's low bits, and a refinement key
   [class·d + id] with d a power of two has [id] as its low bits, so an
   identity hash would chain every tuple of a column with concentrated
   ids. A multiplicative mix spreads them; [lsr] keeps it non-negative. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 17
end)

(* packed instance keys (literal lists) under one integer mix per
   literal *)
module Key_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = List.fold_left (fun h x -> (((h * 31) + x) * 0x9E3779B97F4A7C1) lsr 7) 0 l
end)

(* Per-domain scratch, reused across encodes: [Hashtbl.clear] keeps the
   grown bucket array, so steady-state instantiation allocates no fresh
   tables. Never live across calls — membership only, no escape. The
   class table is sized to the entity: one far larger than this entity
   has rows is replaced, so a small stream entity does not clear
   buckets grown for a 4000-row one. *)
type scratch = {
  sc_dedup : unit Key_tbl.t;  (* packed instance keys *)
  mutable sc_cls : int array;  (* projection class of each row *)
  mutable sc_keys : int Int_tbl.t;  (* (class, id) key -> refined class *)
  mutable sc_keys_cap : int;  (* [sc_keys]'s size: created for, or most keys held *)
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sc_dedup = Key_tbl.create 1024;
        sc_cls = [||];
        sc_keys = Int_tbl.create 16;
        sc_keys_cap = 16;
      })

(* the reserved null's id per attribute ({!Coding.build} guarantees one) *)
let null_ids coding =
  let arity = Schema.arity (Coding.schema coding) in
  Array.init arity (fun a -> Coding.vid coding a Value.Null)

(* Split the classes [sc_cls.(0..n-1)] by the id column [col] (ids below
   [d]): two rows stay together iff they shared a class and agree on
   [col]. The key [class·d + id] is exact (ids are below [d]) and small
   (classes are below [n] or a universe size). New classes are numbered
   densely in first-occurrence order; returns their count. *)
let refine sc n col d =
  let cls = sc.sc_cls and keys = sc.sc_keys in
  Int_tbl.clear keys;
  let next = ref 0 in
  for i = 0 to n - 1 do
    let key = (cls.(i) * d) + col.(i) in
    match Int_tbl.find keys key with
    | c -> cls.(i) <- c
    | exception Not_found ->
        Int_tbl.add keys key !next;
        cls.(i) <- !next;
        incr next
  done;
  if !next > sc.sc_keys_cap then sc.sc_keys_cap <- !next;
  !next

(* first-occurrence representative row positions of the distinct
   projections onto [positions], in ascending order: the first position's
   ids are the initial classes, each further position refines them, and
   a class is represented by its first row *)
let projection_reps coding cells positions =
  match positions with
  | [] -> [ 0 ] (* every row projects to (); entities are non-empty *)
  | p :: rest ->
      let n = Array.length cells.(p) in
      let size a = Array.length (Coding.universe coding a) in
      let sc = Domain.DLS.get scratch_key in
      if Array.length sc.sc_cls < n then sc.sc_cls <- Array.make n 0;
      if sc.sc_keys_cap > (4 * n) + 16 then begin
        sc.sc_keys <- Int_tbl.create n;
        sc.sc_keys_cap <- n
      end;
      Array.blit cells.(p) 0 sc.sc_cls 0 n;
      let nclasses = List.fold_left (fun _ q -> refine sc n cells.(q) (size q)) (size p) rest in
      let seen = Bytes.make nclasses '\000' in
      let reps = ref [] in
      for i = 0 to n - 1 do
        let c = sc.sc_cls.(i) in
        if Bytes.get seen c = '\000' then begin
          Bytes.set seen c '\001';
          reps := i :: !reps
        end
      done;
      List.rev !reps

(* representatives memoised per position-list id ({!compile_sigma}) *)
let reps_by_positions sigma_c coding cells =
  let memo = Array.make sigma_c.s_npos None in
  fun cc ->
    match memo.(cc.c_pos) with
    | Some reps -> reps
    | None ->
        let reps = projection_reps coding cells cc.c_positions in
        memo.(cc.c_pos) <- Some reps;
        reps

let sat_consts coding cells i preds =
  List.for_all
    (fun (a, op, cst) -> Value.eval op (Coding.value coding a cells.(a).(i)) cst)
    preds

(* the [Constraint_ast.instantiate] semantics on a compiled constraint whose
   single-tuple constant predicates already held for tuples [t1], [t2]:
   evaluate the pair predicates, collect the residual prec conjuncts as
   coded facts. Returns the packed dedup key ([concl lit :: sorted premise
   lits]) and the instance, or [None] when some conjunct is
   vacuous-making. *)
let inst_compiled coding nulls cc cells t1 t2 =
  let vacuous = ref false in
  let residual = ref [] in
  List.iter
    (fun p ->
      if not !vacuous then
        match p with
        | CPrec a ->
            let i1 = cells.(a).(t1) and i2 = cells.(a).(t2) in
            (* nulls rank lowest: null ≺ v always holds (drop the conjunct),
               v ≺ null never does (the whole constraint is vacuous) *)
            if i2 = nulls.(a) then vacuous := true
            else if i1 = nulls.(a) then ()
            else if i1 = i2 then vacuous := true
            else residual := { attr = a; lo = i1; hi = i2 } :: !residual
        | CCmp2 (a, op) ->
            if
              not
                (Value.eval op
                   (Coding.value coding a cells.(a).(t1))
                   (Coding.value coding a cells.(a).(t2)))
            then vacuous := true)
    cc.c_pair;
  if !vacuous then None
  else
    let a = cc.c_concl in
    let i1 = cells.(a).(t1) and i2 = cells.(a).(t2) in
    (* equal-valued conclusions hold trivially; a null on either side of
       the conclusion carries no value-level currency information (a null
       already ranks lowest; a more-current-but-unknown value constrains
       nothing) *)
    if i1 = i2 || i1 = nulls.(a) || i2 = nulls.(a) then None
    else
      let concl = { attr = a; lo = i1; hi = i2 } in
      let premise = List.sort_uniq compare_fact !residual in
      let key =
        lit_of_fact_c coding concl
        :: List.map (fun f -> lit_of_fact_c coding f) premise
      in
      Some (key, { premise; concl; source = From_constraint cc.c_idx })

(* [cells] are [coding]'s id columns over the entity's rows ({!Coding.lower}) *)
let instantiate_sigma ?fired sigma_c coding cells =
  let nulls = null_ids coding in
  let reps_of = reps_by_positions sigma_c coding cells in
  let out = (Domain.DLS.get scratch_key).sc_dedup in
  Key_tbl.clear out;
  let insts = ref [] in
  iter_sigma_candidates sigma_c coding (fun cc ->
      let reps = reps_of cc in
      let cand1 =
        if cc.c_t1 = [] then reps
        else List.filter (fun i -> sat_consts coding cells i cc.c_t1) reps
      in
      if cand1 <> [] then begin
        let cand2 =
          if cc.c_t2 = [] then reps
          else List.filter (fun i -> sat_consts coding cells i cc.c_t2) reps
        in
        List.iter
          (fun i1 ->
            List.iter
              (fun i2 ->
                if i1 <> i2 then
                  match inst_compiled coding nulls cc cells i1 i2 with
                  | None -> ()
                  | Some (key, inst) ->
                      (* pre-dedup: a constraint "fires" even when another
                         constraint already produced the same ground instance *)
                      (match fired with
                      | Some fd -> fd.(cc.c_idx) <- true
                      | None -> ());
                      if not (Key_tbl.mem out key) then begin
                        Key_tbl.add out key ();
                        insts := inst :: !insts
                      end)
              cand2)
          cand1
      end);
  sort_insts !insts

(* The Σ instances an extension adds: with the value universes unchanged,
   instances over pairs of pre-existing rows are exactly [base_insts],
   so only pairs touching a projection representative introduced by a
   row at position ≥ [n_base] can contribute anything new. On the
   framework's one-fresh-tuple extensions this is O(reps) instantiation
   calls per constraint instead of O(reps²). *)
let instantiate_sigma_delta sigma_c coding cells ~base_insts ~n_base =
  let nulls = null_ids coding in
  let reps_of = reps_by_positions sigma_c coding cells in
  let seen = (Domain.DLS.get scratch_key).sc_dedup in
  Key_tbl.clear seen;
  List.iter
    (fun ic ->
      let key =
        lit_of_fact_c coding ic.concl
        :: List.map (fun f -> lit_of_fact_c coding f) ic.premise
      in
      Key_tbl.replace seen key ())
    base_insts;
  let out = ref [] in
  iter_sigma_candidates sigma_c coding (fun cc ->
      let reps = reps_of cc in
      let news = List.filter (fun i -> i >= n_base) reps in
      if news <> [] then begin
        let try_pair i1 i2 =
          if
            i1 <> i2
            && sat_consts coding cells i1 cc.c_t1
            && sat_consts coding cells i2 cc.c_t2
          then
            match inst_compiled coding nulls cc cells i1 i2 with
            | None -> ()
            | Some (key, inst) ->
                if not (Key_tbl.mem seen key) then begin
                  Key_tbl.replace seen key ();
                  out := inst :: !out
                end
        in
        let olds = List.filter (fun i -> i < n_base) reps in
        List.iter (fun o -> List.iter (fun n -> try_pair o n) news) olds;
        List.iter (fun n -> List.iter (fun r -> try_pair n r) reps) news
      end);
  (* canonical order: the delta clauses a live session receives must not
     depend on hashing or pair-enumeration order *)
  sort_insts !out

(* ---- instantiating constant CFDs ---- *)

let relevant_gamma entity gamma =
  let schema = Entity.schema entity in
  let adoms =
    Array.init (Schema.arity schema) (fun a -> Entity.active_domain entity a)
  in
  List.mapi (fun k c -> (k, c)) gamma
  |> List.filter (fun (_, (c : Cfd.Constant_cfd.t)) ->
         List.for_all
           (fun (aname, v) ->
             let a = Schema.index schema aname in
             List.exists (Value.equal v) adoms.(a))
           c.Cfd.Constant_cfd.lhs)

(* The CFDs relevant to [coding]'s entity, ascending, each with its LHS
   as (attribute, value id) pairs: every LHS pattern constant occurs in
   the active domain. The index yields the CFDs whose first LHS constant
   occurs; the exact test runs on those alone. *)
let relevant_cfds gamma_c coding =
  let adom = Coding.adom_size coding in
  let rec lhs_ids acc = function
    | [] -> Some (List.rev acc)
    | (a, v) :: rest -> (
        match Coding.const_id coding a v with
        | Some id when id < adom a -> lhs_ids ((a, id) :: acc) rest
        | _ -> None)
  in
  List.filter_map
    (fun k ->
      let gc = gamma_c.g_cs.(k) in
      Option.map (fun ids -> (gc, ids)) (lhs_ids [] gc.g_lhs))
    (cindex_probe gamma_c.g_index ~nvals:adom ~value:(Coding.value coding))

let gamma_candidates gamma_c adom =
  List.map
    (fun k -> gamma_c.g_cs.(k))
    (cindex_probe gamma_c.g_index
       ~nvals:(fun a -> Array.length (adom a))
       ~value:(fun a i -> (adom a).(i)))

(* Returns the implication instances and, for CFDs whose RHS constant the
   entity never takes, the vetoed premises (ω_X → ⊥). A CFD whose LHS
   mentions a value outside the active domain is vacuous on this entity
   (its pattern can never be the current tuple) and contributes nothing —
   the compiled-form equivalent of {!relevant_gamma}. Pattern constants
   match under [Value.equal], as in [Cfd.Constant_cfd]: a NaN LHS
   constant makes the CFD dead, a NaN RHS constant a veto. *)
let instantiate_gamma gamma_c coding =
  let out = ref [] in
  let vetoes = ref [] in
  List.iter
    (fun (gc, lhs) ->
      let premise =
        (* ω_X: every other active-domain value sits below the pattern *)
        List.concat_map
          (fun (attr, target) ->
            List.filter_map
              (fun lo -> if lo <> target then Some { attr; lo; hi = target } else None)
              (List.init (Coding.adom_size coding attr) Fun.id))
          lhs
      in
      let battr, bval = gc.g_rhs in
      match Coding.const_id coding battr bval with
      | Some btarget ->
          for b = 0 to Coding.adom_size coding battr - 1 do
            if b <> btarget then
              out :=
                {
                  premise;
                  concl = { attr = battr; lo = b; hi = btarget };
                  source = From_cfd gc.g_idx;
                }
                :: !out
          done
      | None ->
          (* the repair value never occurs: the pattern can never be the
             current tuple, unless the premise is already vacuous *)
          vetoes := (premise, From_cfd gc.g_idx) :: !vetoes)
    (relevant_cfds gamma_c coding);
  (List.rev !out, List.rev !vetoes)

(* ---- units from the currency orders of It and the null-lowest rule ---- *)

let order_units spec coding =
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let push f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      out := (f, From_order) :: !out
    end
  in
  List.iter
    (fun { Spec.attr; lo; hi } ->
      let a = Schema.index schema attr in
      let v1 = Entity.value entity lo a and v2 = Entity.value entity hi a in
      if not (Value.equal v1 v2) then
        push { attr = a; lo = Coding.vid coding a v1; hi = Coding.vid coding a v2 })
    spec.Spec.orders;
  (* a null value is ranked lowest in its attribute's currency order *)
  for a = 0 to Schema.arity schema - 1 do
    let univ = Coding.universe coding a in
    Array.iteri
      (fun i v ->
        if Value.is_null v then
          Array.iteri (fun j w -> if j <> i && not (Value.is_null w) then push { attr = a; lo = i; hi = j }) univ)
      univ
  done;
  List.rev !out

(* Ω(Se) minus the Σ and Γ instantiations: units from the orders of It and
   the premise-free split. [sigma_insts] is the (canonically sorted) Σ
   instance list, computed either from scratch ([encode]) or by merging a
   delta ([extend]); the Γ parts are a function of the value universes
   alone, so [extend] reuses them verbatim whenever the universes are
   unchanged. *)
let assemble_parts spec coding ~sigma_insts ~gamma_imps ~vetoes =
  let units = order_units spec coding in
  let implications = sigma_insts @ gamma_imps in
  (* split premise-free implications into units *)
  let extra_units, implications =
    List.partition (fun ic -> ic.premise = []) implications
  in
  let units = units @ List.map (fun ic -> (ic.concl, ic.source)) extra_units in
  (units, implications, vetoes)

(* an implication instance as a clause: ¬premise₁ ∨ … ∨ conclusion *)
let implication_clause coding ic =
  Array.of_list
    (lit_of_fact_c coding ic.concl
    :: List.map (fun f -> Sat.Lit.negate (lit_of_fact_c coding f)) ic.premise)

(* The clause rendering of the instance part, in reverse push order (kept
   stable so [extend] diffs clause-for-clause against a base encoding). *)
let instance_clauses coding (units, implications, vetoes) =
  let lit f = lit_of_fact_c coding f in
  let clauses = ref [] in
  List.iter (fun (f, _) -> clauses := [| lit f |] :: !clauses) units;
  List.iter (fun ic -> clauses := implication_clause coding ic :: !clauses) implications;
  List.iter
    (fun (premise, _) ->
      clauses := Array.of_list (List.map (fun f -> Sat.Lit.negate (lit f)) premise) :: !clauses)
    vetoes;
  !clauses

(* Paper mode's structural axioms for attribute [a], in reverse push
   order: transitivity over every ordered triple plus asymmetry,
   d(d-1)(d-2) + d(d-1)/2 clauses. A pure function of (d, variable
   offset) — the part [extend] reuses verbatim across [Se ⊕ Ot] steps. *)
let attr_block coding a =
  let clauses = ref [] in
  let count = ref 0 in
  let push c =
    clauses := c :: !clauses;
    incr count
  in
  let d = Array.length (Coding.universe coding a) in
  let nl lo hi = Sat.Lit.negate (Coding.lit_of coding ~attr:a lo hi) in
  (* transitivity *)
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      if j <> i then
        for k = 0 to d - 1 do
          if k <> i && k <> j then push [| nl i j; nl j k; Coding.lit_of coding ~attr:a i k |]
        done
    done
  done;
  (* asymmetry *)
  for i = 0 to d - 1 do
    for j = i + 1 to d - 1 do
      push [| nl i j; nl j i |]
    done
  done;
  { sb_clauses = !clauses; sb_count = !count }

(* block(arity-1) @ … @ block(0), the order of one push pass over the
   attributes in turn: attribute 0's block is the shared physical tail *)
let concat_blocks blocks =
  Array.fold_left
    (fun (clauses, count) b -> (b.sb_clauses @ clauses, count + b.sb_count))
    ([], 0) blocks

let structural_clauses coding =
  concat_blocks
    (Array.init (Schema.arity (Coding.schema coding)) (fun a -> attr_block coding a))

(* The ground-instance part of Φ(Se) without any clause rendering: what a
   purely static analysis (Saturate, Analyze) needs. [p_sigma_fired.(k)]
   records whether constraint k produced any instance before global
   deduplication — distinct constraints can ground to identical instances,
   and "did σ_k fire at all" must not depend on which one won the dedup. *)
type parts = {
  p_coding : Coding.t;
  p_units : (fact * source) list;
  p_implications : iconstraint list;
  p_vetoes : (fact list * source) list;
  p_sigma_fired : bool array;
}

let rows_of spec = function
  | Some rows -> rows
  | None -> Entity.distinct_rows spec.Spec.entity

let parts ?mode ?sigma_c ?gamma_c ?rows spec =
  let schema = Spec.schema spec in
  let sigma_c = sigma_c_for schema spec.Spec.sigma sigma_c in
  let gamma_c = gamma_c_for schema spec.Spec.gamma gamma_c in
  let coding, cells = Coding.lower ?mode ~rows:(rows_of spec rows) spec.Spec.entity in
  let fired = Array.make (List.length spec.Spec.sigma) false in
  let sigma_insts = instantiate_sigma ~fired sigma_c coding cells in
  let gamma_imps, gvetoes = instantiate_gamma gamma_c coding in
  let units, implications, vetoes =
    assemble_parts spec coding ~sigma_insts ~gamma_imps ~vetoes:gvetoes
  in
  {
    p_coding = coding;
    p_units = units;
    p_implications = implications;
    p_vetoes = vetoes;
    p_sigma_fired = fired;
  }

let parts_of_t enc =
  {
    p_coding = enc.coding;
    p_units = enc.units;
    p_implications = enc.implications;
    p_vetoes = enc.vetoes;
    p_sigma_fired = [||];
  }

(* [structural_for tpl coding] is the structural axioms for [coding],
   each attribute's block from the template's (d, offset)-keyed store.
   Misses are built outside the lock; first-in wins (racing builders
   produce equal blocks: a block is a pure function of its key and the
   template's mode). *)
let structural_for tpl coding =
  let arity = Schema.arity (Coding.schema coding) in
  let key a = (Array.length (Coding.universe coding a), Coding.offset coding a) in
  let found =
    Mutex.lock tpl.t_lock;
    let r = Array.init arity (fun a -> Block_tbl.find_opt tpl.t_structural (key a)) in
    Mutex.unlock tpl.t_lock;
    r
  in
  let blocks =
    Array.mapi
      (fun a b -> match b with Some b -> b | None -> attr_block coding a)
      found
  in
  if Array.exists Option.is_none found then begin
    Mutex.lock tpl.t_lock;
    Array.iteri
      (fun a b ->
        if Option.is_none found.(a) then
          match Block_tbl.find_opt tpl.t_structural (key a) with
          | Some existing -> blocks.(a) <- existing
          | None -> Block_tbl.add tpl.t_structural (key a) b)
      blocks;
    Mutex.unlock tpl.t_lock
  end;
  concat_blocks blocks

(* Φ's order axioms as (structural clauses, their count, tournament
   blocks). Paper mode lists them as clauses, from the template's store
   when there is one. Exact mode's literal polarity already orders every
   pair one way or the other, and a tournament is transitive iff it has
   no 3-cycle: each attribute's pairs are one [Sat.Cnf.block], whose
   d(d-1)(d-2)/3 3-cycle exclusions the solver enforces by propagation
   and nobody lists. *)
let order_axioms template coding =
  match Coding.mode coding with
  | Exact ->
      ([], 0, List.init (Schema.arity (Coding.schema coding)) (Coding.block coding))
  | Paper ->
      let structural, n =
        match template with
        | Some tpl -> structural_for tpl coding
        | None -> structural_clauses coding
      in
      (structural, n, [])

let build_t ~mode ~sigma_c ~gamma_c ~template ~rows spec =
  let coding, cells = Coding.lower ~mode ~rows spec.Spec.entity in
  let sigma_insts = instantiate_sigma sigma_c coding cells in
  let gamma_imps, gvetoes = instantiate_gamma gamma_c coding in
  let ((units, implications, vetoes) as parts) =
    assemble_parts spec coding ~sigma_insts ~gamma_imps ~vetoes:gvetoes
  in
  let inst = instance_clauses coding parts in
  let structural, n_structural, blocks = order_axioms template coding in
  (* all literals are in range by construction: facts are coded over the
     very universes the variable space is built from. Instance clauses
     first: the structural block is then a shared physical tail — a
     template-served batch allocates no cons cells for it per entity. *)
  let cnf = Sat.Cnf.unsafe_make ~blocks ~nvars:(Coding.nvars coding) (inst @ structural) in
  {
    spec;
    coding;
    mode;
    sigma_c;
    gamma_c;
    template;
    n_rows = Array.length rows;
    sigma_insts;
    gamma_imps;
    units;
    implications;
    vetoes;
    cnf;
    n_structural;
    structural;
  }

let encode ?(mode = Paper) ?sigma_c ?gamma_c spec =
  let schema = Spec.schema spec in
  let sigma_c = sigma_c_for schema spec.Spec.sigma sigma_c in
  let gamma_c = gamma_c_for schema spec.Spec.gamma gamma_c in
  build_t ~mode ~sigma_c ~gamma_c ~template:None ~rows:(Entity.distinct_rows spec.Spec.entity) spec

let template ?(mode = Paper) spec =
  let schema = Spec.schema spec in
  (* compile against the canonical interned lists, so [template_matches]
     reduces to two physical comparisons whatever spec the template was
     cut from *)
  let sigma, _ = Spec.intern_sigma spec.Spec.sigma in
  let gamma, _ = Spec.intern_gamma spec.Spec.gamma in
  {
    t_mode = mode;
    t_schema = schema;
    (* through the memos: {!compiled_gamma} on a spec of this shape (the
       engine's lint) then reuses the template's very index *)
    t_sigma_c = sigma_c_for schema sigma None;
    t_gamma_c = gamma_c_for schema gamma None;
    t_lock = Mutex.create ();
    t_structural = Block_tbl.create 16;
  }

let template_matches tpl spec =
  Schema.equal tpl.t_schema (Spec.schema spec)
  && fst (Spec.intern_sigma spec.Spec.sigma) == tpl.t_sigma_c.s_src
  && fst (Spec.intern_gamma spec.Spec.gamma) == tpl.t_gamma_c.g_src

let instantiate ?rows tpl spec =
  if template_matches tpl spec then
    build_t ~mode:tpl.t_mode ~sigma_c:tpl.t_sigma_c ~gamma_c:tpl.t_gamma_c
      ~template:(Some tpl) ~rows:(rows_of spec rows) spec
  else
    (* a template for some other shape: fall back to direct compilation
       rather than produce a wrong encoding *)
    encode ~mode:tpl.t_mode spec

(* ---- incremental re-encoding for Se ⊕ Ot extensions ---- *)

let same_universes c1 c2 =
  Schema.equal (Coding.schema c1) (Coding.schema c2)
  &&
  let arity = Schema.arity (Coding.schema c1) in
  let rec attrs_equal a =
    a >= arity
    || (Coding.adom_size c1 a = Coding.adom_size c2 a
       &&
       let u1 = Coding.universe c1 a and u2 = Coding.universe c2 a in
       Array.length u1 = Array.length u2
       && (let rec vals i =
             i >= Array.length u1 || (Value.equal u1.(i) u2.(i) && vals (i + 1))
           in
           vals 0)
       && attrs_equal (a + 1))
  in
  attrs_equal 0

(* c1's universes are per-attribute prefixes of c2's: every old value
   keeps its id, so facts (and hence Σ instances) carry over verbatim.
   One exception is allowed to float: a trailing null in [u1] (the
   reserved slot {!Coding.build} appends when no tuple is null yet) may
   sit at a later id in [u2] — a fresh tuple's genuinely new value
   displaces the reservation. That is safe precisely because no carried-
   over Σ instance can mention a null id: [Constraint_ast.instantiate]
   drops null premise conjuncts and null conclusions outright. *)
let universes_prefix c1 c2 =
  Schema.equal (Coding.schema c1) (Coding.schema c2)
  &&
  let arity = Schema.arity (Coding.schema c1) in
  let rec attrs_ok a =
    a >= arity
    ||
    let u1 = Coding.universe c1 a and u2 = Coding.universe c2 a in
    let n1 = Array.length u1 in
    Array.length u1 <= Array.length u2
    && (let rec vals i =
          i >= n1
          || (i = n1 - 1 && Value.is_null u1.(i))
          || (Value.equal u1.(i) u2.(i) && vals (i + 1))
        in
        vals 0)
    && attrs_ok (a + 1)
  in
  attrs_ok 0

let same_list eq a b = a == b || List.equal eq a b

(* [spec] must be a pure extension of [base.spec]: same Σ and Γ, the old
   tuples a prefix of the new ones (extensions append), the old order
   edges a suffix of the new ones (extensions prepend). This is what
   guarantees Ω(base) ⊆ Ω(spec) clause-for-clause, which delta solving
   needs: a clause that disappeared would leave an incremental solver
   stronger than Φ(Se ⊕ Ot). *)
let pure_extension base_spec spec =
  same_list ( = ) base_spec.Spec.sigma spec.Spec.sigma
  && same_list ( = ) base_spec.Spec.gamma spec.Spec.gamma
  && (let bt = Entity.tuples base_spec.Spec.entity
      and nt = Entity.tuples spec.Spec.entity in
      let rec prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> (x == y || x = y) && prefix a' b'
        | _ :: _, [] -> false
      in
      prefix bt nt)
  &&
  let k = List.length spec.Spec.orders - List.length base_spec.Spec.orders in
  k >= 0
  &&
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  same_list ( = ) (drop k spec.Spec.orders) base_spec.Spec.orders

type extension = Delta of t * Sat.Lit.t array list | Renumbered of t

let extend base spec =
  if not (pure_extension base.spec spec) then None
  else
    let rows = Entity.distinct_rows spec.Spec.entity in
    let coding', cells = Coding.lower ~mode:base.mode ~rows spec.Spec.entity in
    if not (universes_prefix base.coding coding') then None
    else begin
      (* old values keep their per-attribute ids, so the Σ instances of
         the base — the expensive quadratic sweep over projection pairs —
         carry over verbatim; only pairs the new tuples touch are swept *)
      let identical = same_universes base.coding coding' in
      let coding = if identical then base.coding else coding' in
      (* Σ/Γ are unchanged on a pure extension, so the compiled forms
         carry over (they depend only on the schema and the lists) *)
      let sigma_c = base.sigma_c and gamma_c = base.gamma_c in
      (* the rows of the base's tuples come first: tuples were appended,
         and a class's first occurrence among them is its first overall.
         A tuple equal to an earlier one adds no row, and so no delta *)
      let n_old = Entity.size base.spec.Spec.entity in
      let n_base = Array.fold_left (fun k r -> if r < n_old then k + 1 else k) 0 rows in
      let delta_insts =
        instantiate_sigma_delta sigma_c coding cells ~base_insts:base.sigma_insts ~n_base
      in
      let sigma_insts = sort_insts (List.rev_append delta_insts base.sigma_insts) in
      (* the Γ instances are a function of the value universes alone:
         identical universes reuse the base's parts verbatim *)
      let gamma_imps, gvetoes =
        if identical then (base.gamma_imps, base.vetoes) else instantiate_gamma gamma_c coding
      in
      let ((units, implications, vetoes) as parts) =
        assemble_parts spec coding ~sigma_insts ~gamma_imps ~vetoes:gvetoes
      in
      let inst = instance_clauses coding parts in
      if identical then begin
        (* variable numbering unchanged: the structural axioms carry over
           and a live solver only needs the delta clauses — unit clauses
           for fresh facts (new order edges, premise-free new Σ
           instances) plus the new Σ implications. Γ's part is a function
           of the unchanged universes and is identical on both sides, and
           pure extensions only add clauses, so the session stays sound. *)
        let cnf =
          Sat.Cnf.unsafe_make ~blocks:base.cnf.Sat.Cnf.blocks ~nvars:(Coding.nvars coding)
            (base.structural @ inst)
        in
        let base_unit_facts = Hashtbl.create 64 in
        List.iter (fun (f, _) -> Hashtbl.replace base_unit_facts f ()) base.units;
        let delta_units =
          List.filter_map
            (fun (f, _) ->
              if Hashtbl.mem base_unit_facts f then None
              else Some [| lit_of_fact_c coding f |])
            units
        in
        let delta_imps =
          List.filter_map
            (fun ic -> if ic.premise = [] then None else Some (implication_clause coding ic))
            delta_insts
        in
        Some
          (Delta
             ( {
                 spec;
                 coding;
                 mode = base.mode;
                 sigma_c;
                 gamma_c;
                 template = base.template;
                 n_rows = Array.length rows;
                 sigma_insts;
                 gamma_imps;
                 units;
                 implications;
                 vetoes;
                 cnf;
                 n_structural = base.n_structural;
                 structural = base.structural;
               },
               delta_units @ delta_imps ))
      end
      else begin
        (* a universe grew (e.g. the fresh tuple carries a value, or a
           null, the entity never took): variable numbers shift globally,
           so solvers must reload — but the Σ instances still carried
           over; Paper's structural axioms come from the template's
           per-attribute store when there is one (only the attributes
           whose size or offset changed can miss), else are regenerated *)
        let structural, n_structural, blocks = order_axioms base.template coding in
        let cnf = Sat.Cnf.unsafe_make ~blocks ~nvars:(Coding.nvars coding) (inst @ structural) in
        Some
          (Renumbered
             {
               spec;
               coding;
               mode = base.mode;
               sigma_c;
               gamma_c;
               template = base.template;
               n_rows = Array.length rows;
               sigma_insts;
               gamma_imps;
               units;
               implications;
               vetoes;
               cnf;
               n_structural;
               structural;
             })
      end
    end

let lit_of_fact e f = lit_of_fact_c e.coding f

let fact_of_lit e l =
  Option.map (fun (attr, lo, hi) -> { attr; lo; hi }) (Coding.fact_of_lit e.coding l)

(* one pass over each attribute's ordered pairs, each literal written
   once: no per-literal search for its attribute and row *)
let fact_table e =
  let coding = e.coding in
  let facts = Array.make (2 * e.cnf.Sat.Cnf.nvars) None in
  for attr = 0 to Schema.arity (Coding.schema coding) - 1 do
    let d = Array.length (Coding.universe coding attr) in
    for lo = 0 to d - 1 do
      for hi = 0 to d - 1 do
        if lo <> hi then facts.(Coding.lit_of coding ~attr lo hi) <- Some { attr; lo; hi }
      done
    done
  done;
  facts

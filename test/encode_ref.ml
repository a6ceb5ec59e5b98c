(* The record-based encoder the packed one replaced, kept as a reference
   (as [Sat.Unit_prop] is for propagation): Σ grounding into
   [Encode.iconstraint] records deduplicated through a polymorphic
   table, the canonical order by a list sort, Γ, the order units and the
   clause rendering as lists, Paper's structural axioms clause by clause.
   It shares with [Encode] only the lowering ([Coding.lower]), the
   relevant-CFD test and the literal numbering; it compiles Σ itself,
   visits every constraint instead of the constant index's candidates,
   and finds projection representatives with a table of id lists. *)

module E = Crcore.Encode
module C = Crcore.Coding

type cpred = CPrec of int | CCmp2 of int * Value.op

type compiled = {
  idx : int;
  positions : int list;
  t1 : (int * Value.op * Value.t) list;
  t2 : (int * Value.op * Value.t) list;
  pair : cpred list;
  concl : int;
}

let compile schema sigma =
  List.mapi
    (fun idx (c : Currency.Constraint_ast.t) ->
      let t1 = ref [] and t2 = ref [] and pair = ref [] in
      let concl = Schema.index schema c.Currency.Constraint_ast.concl in
      let positions = ref [ concl ] in
      List.iter
        (function
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
              match r with
              | Currency.Constraint_ast.T1 -> t1 := (a, op, v) :: !t1
              | Currency.Constraint_ast.T2 -> t2 := (a, op, v) :: !t2))
        c.Currency.Constraint_ast.premise;
      {
        idx;
        positions = List.sort_uniq compare !positions;
        t1 = List.rev !t1;
        t2 = List.rev !t2;
        pair = List.rev !pair;
        concl;
      })
    sigma

(* the first row of each distinct projection onto [positions], ascending *)
let reps cells n positions =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun i ->
      let key = List.map (fun a -> cells.(a).(i)) positions in
      (not (Hashtbl.mem seen key))
      &&
      (Hashtbl.add seen key ();
       true))
    (List.init n Fun.id)

let null_ids coding =
  Array.init (Schema.arity (C.schema coding)) (fun a -> C.vid coding a Value.Null)

let sat_consts coding cells i preds =
  List.for_all (fun (a, op, cst) -> Value.eval op (C.value coding a cells.(a).(i)) cst) preds

let inst coding nulls cc cells t1 t2 =
  let vacuous = ref false and residual = ref [] in
  List.iter
    (fun p ->
      if not !vacuous then
        match p with
        | CPrec a ->
            let i1 = cells.(a).(t1) and i2 = cells.(a).(t2) in
            if i2 = nulls.(a) then vacuous := true
            else if i1 = nulls.(a) then ()
            else if i1 = i2 then vacuous := true
            else residual := { E.attr = a; lo = i1; hi = i2 } :: !residual
        | CCmp2 (a, op) ->
            if
              not
                (Value.eval op (C.value coding a cells.(a).(t1)) (C.value coding a cells.(a).(t2)))
            then vacuous := true)
    cc.pair;
  let a = cc.concl in
  let i1 = cells.(a).(t1) and i2 = cells.(a).(t2) in
  if !vacuous || i1 = i2 || i1 = nulls.(a) || i2 = nulls.(a) then None
  else
    Some
      {
        E.premise = List.sort_uniq compare !residual;
        concl = { E.attr = a; lo = i1; hi = i2 };
        source = E.From_constraint cc.idx;
      }

let key (ic : E.iconstraint) = (ic.E.concl, ic.E.premise)

let sort_insts l =
  List.sort
    (fun (a : E.iconstraint) (b : E.iconstraint) ->
      compare (a.E.premise, a.E.concl) (b.E.premise, b.E.concl))
    l

let n_rows cells = if Array.length cells = 0 then 0 else Array.length cells.(0)

(* the Σ instances and, per constraint, whether it grounded before
   deduplication *)
let instantiate_sigma spec coding cells =
  let nulls = null_ids coding in
  let fired = Array.make (List.length spec.Crcore.Spec.sigma) false in
  let seen = Hashtbl.create 64 and out = ref [] in
  List.iter
    (fun cc ->
      let reps = reps cells (n_rows cells) cc.positions in
      let cand1 = List.filter (fun i -> sat_consts coding cells i cc.t1) reps in
      let cand2 = List.filter (fun i -> sat_consts coding cells i cc.t2) reps in
      List.iter
        (fun i1 ->
          List.iter
            (fun i2 ->
              if i1 <> i2 then
                match inst coding nulls cc cells i1 i2 with
                | None -> ()
                | Some ic ->
                    fired.(cc.idx) <- true;
                    if not (Hashtbl.mem seen (key ic)) then begin
                      Hashtbl.add seen (key ic) ();
                      out := ic :: !out
                    end)
            cand2)
        cand1)
    (compile (Crcore.Spec.schema spec) spec.Crcore.Spec.sigma);
  (sort_insts !out, fired)

(* the instances over pairs touching a row at or after [n_base] that
   [base] lacks, sorted *)
let instantiate_sigma_delta spec coding cells ~base ~n_base =
  let nulls = null_ids coding in
  let seen = Hashtbl.create 64 and out = ref [] in
  List.iter (fun ic -> Hashtbl.replace seen (key ic) ()) base;
  List.iter
    (fun cc ->
      let reps = reps cells (n_rows cells) cc.positions in
      let news = List.filter (fun i -> i >= n_base) reps in
      let olds = List.filter (fun i -> i < n_base) reps in
      let try_pair i1 i2 =
        if i1 <> i2 && sat_consts coding cells i1 cc.t1 && sat_consts coding cells i2 cc.t2 then
          match inst coding nulls cc cells i1 i2 with
          | Some ic when not (Hashtbl.mem seen (key ic)) ->
              Hashtbl.replace seen (key ic) ();
              out := ic :: !out
          | _ -> ()
      in
      List.iter (fun o -> List.iter (fun n -> try_pair o n) news) olds;
      List.iter (fun n -> List.iter (fun r -> try_pair n r) reps) news)
    (compile (Crcore.Spec.schema spec) spec.Crcore.Spec.sigma);
  sort_insts !out

let instantiate_gamma spec coding =
  let out = ref [] and vetoes = ref [] in
  List.iter
    (fun ((gc : E.cgamma), lhs) ->
      let premise =
        List.concat_map
          (fun (attr, target) ->
            List.filter_map
              (fun lo -> if lo <> target then Some { E.attr; lo; hi = target } else None)
              (List.init (C.adom_size coding attr) Fun.id))
          lhs
      in
      let battr, bval = gc.E.g_rhs in
      match C.const_id coding battr bval with
      | Some btarget ->
          for b = 0 to C.adom_size coding battr - 1 do
            if b <> btarget then
              out :=
                { E.premise; concl = { E.attr = battr; lo = b; hi = btarget }; source = E.From_cfd gc.E.g_idx }
                :: !out
          done
      | None -> vetoes := (premise, E.From_cfd gc.E.g_idx) :: !vetoes)
    (E.relevant_cfds (E.compiled_gamma spec) coding);
  (List.rev !out, List.rev !vetoes)

let order_units spec coding =
  let schema = Crcore.Spec.schema spec and entity = spec.Crcore.Spec.entity in
  let seen = Hashtbl.create 64 and out = ref [] in
  let push f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      out := (f, E.From_order) :: !out
    end
  in
  List.iter
    (fun { Crcore.Spec.attr; lo; hi } ->
      let a = Schema.index schema attr in
      let v1 = Entity.value entity lo a and v2 = Entity.value entity hi a in
      if not (Value.equal v1 v2) then push { E.attr = a; lo = C.vid coding a v1; hi = C.vid coding a v2 })
    spec.Crcore.Spec.orders;
  for a = 0 to Schema.arity schema - 1 do
    let univ = C.universe coding a in
    Array.iteri
      (fun i v ->
        if Value.is_null v then
          Array.iteri
            (fun j w -> if j <> i && not (Value.is_null w) then push { E.attr = a; lo = i; hi = j })
            univ)
      univ
  done;
  List.rev !out

type omega = {
  sigma : E.iconstraint list;
  gamma : E.iconstraint list;
  units : (E.fact * E.source) list;
  implications : E.iconstraint list;
  vetoes : (E.fact list * E.source) list;
}

let assemble spec coding ~sigma ~gamma ~vetoes =
  let free, imps = List.partition (fun (ic : E.iconstraint) -> ic.E.premise = []) (sigma @ gamma) in
  {
    sigma;
    gamma;
    units = order_units spec coding @ List.map (fun (ic : E.iconstraint) -> (ic.E.concl, ic.E.source)) free;
    implications = imps;
    vetoes;
  }

let lit coding (f : E.fact) = C.lit_of coding ~attr:f.E.attr f.E.lo f.E.hi

let implication_clause coding (ic : E.iconstraint) =
  Array.of_list (lit coding ic.E.concl :: List.map (fun f -> Sat.Lit.negate (lit coding f)) ic.E.premise)

(* in reverse push order: vetoes, implications, units, each last first *)
let instance_clauses coding o =
  let clauses = ref [] in
  List.iter (fun (f, _) -> clauses := [| lit coding f |] :: !clauses) o.units;
  List.iter (fun ic -> clauses := implication_clause coding ic :: !clauses) o.implications;
  List.iter
    (fun (premise, _) ->
      clauses := Array.of_list (List.map (fun f -> Sat.Lit.negate (lit coding f)) premise) :: !clauses)
    o.vetoes;
  !clauses

(* Paper's transitivity and asymmetry clauses of every attribute, the
   last attribute's first, each in reverse push order; none in Exact *)
let structural coding =
  match C.mode coding with
  | C.Exact -> []
  | C.Paper ->
      let clauses = ref [] in
      for a = 0 to Schema.arity (C.schema coding) - 1 do
        let d = Array.length (C.universe coding a) in
        let l lo hi = C.lit_of coding ~attr:a lo hi in
        let nl lo hi = Sat.Lit.negate (l lo hi) in
        for i = 0 to d - 1 do
          for j = 0 to d - 1 do
            if j <> i then
              for k = 0 to d - 1 do
                if k <> i && k <> j then clauses := [| nl i j; nl j k; l i k |] :: !clauses
              done
          done
        done;
        for i = 0 to d - 1 do
          for j = i + 1 to d - 1 do
            clauses := [| nl i j; nl j i |] :: !clauses
          done
        done
      done;
      !clauses

(* A fresh encoding: Ω(Se), the Σ firing flags and Φ(Se)'s clause list. *)
let encode ~mode spec =
  let coding, cells =
    C.lower ~mode ~rows:(Entity.distinct_rows spec.Crcore.Spec.entity) spec.Crcore.Spec.entity
  in
  let sigma, fired = instantiate_sigma spec coding cells in
  let gamma, vetoes = instantiate_gamma spec coding in
  let o = assemble spec coding ~sigma ~gamma ~vetoes in
  (o, fired, instance_clauses coding o @ structural coding)

(* [extend base_omega base spec]: the old incremental path on a pure
   extension whose universes are a prefix of the base's, as
   [`Delta (omega, clauses, delta)] or [`Renumbered (omega, clauses)],
   [None] otherwise. *)
let extend (base_o : omega) (base : E.t) spec =
  let rows = Entity.distinct_rows spec.Crcore.Spec.entity in
  let coding, cells = C.lower ~mode:base.E.mode ~rows spec.Crcore.Spec.entity in
  let n_old = Entity.size base.E.spec.Crcore.Spec.entity in
  let n_base = Array.fold_left (fun k r -> if r < n_old then k + 1 else k) 0 rows in
  let same_univ =
    List.for_all
      (fun a ->
        let u = C.universe coding a and v = C.universe base.E.coding a in
        C.adom_size coding a = C.adom_size base.E.coding a
        && Array.length u = Array.length v
        && Array.for_all2 Value.equal u v)
      (List.init (Schema.arity (C.schema coding)) Fun.id)
  in
  let delta = instantiate_sigma_delta spec coding cells ~base:base_o.sigma ~n_base in
  let sigma = sort_insts (List.rev_append delta base_o.sigma) in
  let gamma, vetoes =
    if same_univ then (base_o.gamma, base_o.vetoes) else instantiate_gamma spec coding
  in
  let o = assemble spec coding ~sigma ~gamma ~vetoes in
  let inst = instance_clauses coding o in
  if same_univ then begin
    let base_units = Hashtbl.create 64 in
    List.iter (fun (f, _) -> Hashtbl.replace base_units f ()) base_o.units;
    let delta_units =
      List.filter_map
        (fun (f, _) -> if Hashtbl.mem base_units f then None else Some [| lit coding f |])
        o.units
    in
    let delta_imps =
      List.filter_map
        (fun (ic : E.iconstraint) -> if ic.E.premise = [] then None else Some (implication_clause coding ic))
        delta
    in
    `Delta (o, structural coding @ inst, delta_units @ delta_imps)
  end
  else `Renumbered (o, inst @ structural coding)

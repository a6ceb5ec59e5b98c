type severity = Error | Warning | Info

type subject =
  | Whole
  | Attr of string
  | Order_edge of Spec.order_edge
  | Sigma of int
  | Gamma of int

type diagnostic = {
  code : string;
  severity : severity;
  subject : subject;
  message : string;
  span : Currency.Parser.span option;
}

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"
let pp_severity ppf s = Format.pp_print_string ppf (severity_to_string s)

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let max_severity ds =
  List.fold_left
    (fun acc d ->
      match acc with
      | Some s when severity_rank s <= severity_rank d.severity -> acc
      | _ -> Some d.severity)
    None ds

let pp_subject spec ppf = function
  | Whole -> Format.pp_print_string ppf "specification"
  | Attr a -> Format.fprintf ppf "attribute %S" a
  | Order_edge { Spec.attr; lo; hi } -> Format.fprintf ppf "order edge %s: %d -> %d" attr lo hi
  | Sigma k -> (
      match List.nth_opt spec.Spec.sigma k with
      | Some c -> Format.fprintf ppf "Σ#%d '%a'" k Currency.Constraint_ast.pp c
      | None -> Format.fprintf ppf "Σ#%d" k)
  | Gamma k -> (
      match List.nth_opt spec.Spec.gamma k with
      | Some c -> Format.fprintf ppf "Γ#%d '%a'" k Cfd.Constant_cfd.pp c
      | None -> Format.fprintf ppf "Γ#%d" k)

let pp_diagnostic spec ppf d =
  Format.fprintf ppf "%s %a: %s (%a)" d.code pp_severity d.severity d.message
    (pp_subject spec) d.subject;
  match d.span with
  | Some sp -> Format.fprintf ppf " [%a]" Currency.Parser.pp_span sp
  | None -> ()

(* ---- the analysis ---- *)

(* A value-currency fact over active-domain value ids; the alias keeps
   record literals compatible with {!Encode.fact}, so edge facts feed
   straight into {!Saturate.derives}. *)
type fact = Encode.fact = { attr : int; lo : int; hi : int }

let emit_to diags ?span code severity subject message =
  diags := { code; severity; subject; message; span } :: !diags

let group_by key n item =
  let groups = Hashtbl.create 16 in
  for k = 0 to n - 1 do
    let key = key (item k) in
    match Hashtbl.find_opt groups key with
    | Some r -> r := k :: !r
    | None -> Hashtbl.add groups key (ref [ k ])
  done;
  Hashtbl.iter (fun _ r -> r := List.rev !r) groups;
  fun k -> !(Hashtbl.find groups (key (item k)))

(* The checks that need no ground instance nor {!Coding.t} — E001, E003,
   E004 and, unless [errors_only], the Γ warnings sharing their loops —
   pushed onto [diags]. Returns the per-attribute E001 flags and the set
   of CFDs already reported as errors, which the closure checks filter
   on. Active domains are scanned over the entity's distinct [rows]. *)
let cheap_checks ~errors_only ~diags ~rows spec =
  let emit = emit_to diags in
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  let arity = Schema.arity schema in
  (* only the attributes the Γ index probes, a candidate CFD or an
     explicit edge mentions need their active domain *)
  let adom = Array.init arity (fun a -> lazy (fst (Entity.active_domain_ids ~rows entity a))) in
  let in_adom a v = Array.exists (Value.equal v) (Lazy.force adom.(a)) in

  (* E001: a cyclic explicit order admits no completion — every completion
     totally orders the attribute's values (Section II-A). Nodes are the
     [Value.total_compare] classes {!Coding.vid} numbers; an edge whose
     tuples agree on the attribute is reflexive and dropped (W005). *)
  let node a v =
    Option.get (Array.find_index (fun w -> Value.total_compare v w = 0) (Lazy.force adom.(a)))
  in
  let graphs =
    Array.map (fun d -> lazy (Porder.Digraph.create (Array.length (Lazy.force d)))) adom
  in
  List.iter
    (fun { Spec.attr; lo; hi } ->
      let a = Schema.index schema attr in
      let v1 = Entity.value entity lo a and v2 = Entity.value entity hi a in
      if not (Value.equal v1 v2) then
        Porder.Digraph.add_edge (Lazy.force graphs.(a)) (node a v1) (node a v2))
    spec.Spec.orders;
  let e001 =
    Array.map (fun g -> Lazy.is_val g && Porder.Digraph.has_cycle (Lazy.force g)) graphs
  in
  Array.iteri
    (fun a cyclic ->
      if cyclic then
        emit "E001" Error (Attr (Schema.name schema a))
          (Printf.sprintf "explicit currency order on %S is cyclic at the value level"
             (Schema.name schema a)))
    e001;

  (* ---- Γ: relevance, forcing, conflicts, subsumption ----

     The constant index of the compiled Γ yields the CFDs whose first LHS
     constant the entity takes; relevance (every LHS constant occurs) is
     tested on those alone, so an entity pays for the CFDs it can fire,
     not for |Γ|. *)
  let gc = Encode.compiled_gamma spec in
  let relevant =
    List.filter
      (fun (c : Encode.cgamma) -> List.for_all (fun (a, v) -> in_adom a v) c.Encode.g_lhs)
      (Encode.gamma_candidates gc (fun a -> Lazy.force adom.(a)))
  in
  (* forced: every completion's current tuple matches the LHS pattern,
     because each pattern attribute takes a single value in the entity *)
  let lhs_forced (c : Encode.cgamma) =
    List.for_all
      (fun (a, v) ->
        let d = Lazy.force adom.(a) in
        Array.length d = 1 && Value.equal d.(0) v)
      c.Encode.g_lhs
  in
  let rhs_in_adom (c : Encode.cgamma) =
    let b, bval = c.Encode.g_rhs in
    in_adom b bval
  in
  (* the forced flag is reused by every pairwise check below: compute it
     once per relevant CFD, not once per CFD pair *)
  let relevant = List.map (fun c -> (c, lhs_forced c)) relevant in
  let gamma_error = Hashtbl.create 16 in
  (* W001: the dead CFDs, the complement of the relevant ones — listed
     one by one, so only a full report walks Γ *)
  if not errors_only then begin
    let n = List.length spec.Spec.gamma in
    let rec dead k rel =
      if k < n then
        match rel with
        | ((c : Encode.cgamma), _) :: rel' when c.Encode.g_idx = k -> dead (k + 1) rel'
        | _ ->
            emit "W001" Warning (Gamma k)
              "dead CFD: an LHS pattern constant never occurs in the entity, so the CFD can \
               never fire";
            dead (k + 1) rel
    in
    dead 0 relevant
  end;
  List.iter
    (fun ((c : Encode.cgamma), forced) ->
      let k = c.Encode.g_idx in
      if not (rhs_in_adom c) then
        if forced then begin
          Hashtbl.replace gamma_error k ();
          emit "E004" Error (Gamma k)
            "the LHS pattern is forced (singleton active domains) but the RHS constant never \
             occurs in the entity: no completion's current tuple can satisfy this CFD"
        end
        else if not errors_only then
          emit "W002" Warning (Gamma k)
            "veto CFD: the RHS constant never occurs in the entity, so the CFD is violated \
             whenever its LHS pattern is most current")
    relevant;
  (* E003 / W006: contradictory RHS over unifiable LHS patterns. Only CFDs
     writing the same RHS attribute can conflict: pair up per attribute. *)
  let lhs_unifiable (c1 : Encode.cgamma) (c2 : Encode.cgamma) =
    List.for_all
      (fun (a1, v1) ->
        match List.assoc_opt a1 c2.Encode.g_lhs with
        | Some v2 -> Value.equal v1 v2
        | None -> true)
      c1.Encode.g_lhs
  in
  (* only relevant CFDs can conflict (forced implies relevant), so pair up
     per RHS attribute over the relevant ones alone — on a single entity
     most of a large Γ is dead and never enters the quadratic part *)
  let rhs_groups = Hashtbl.create 16 in
  List.iter
    (fun (((c : Encode.cgamma), _) as cf) ->
      let b = Schema.name schema (fst c.Encode.g_rhs) in
      match Hashtbl.find_opt rhs_groups b with
      | Some r -> r := cf :: !r
      | None -> Hashtbl.add rhs_groups b (ref [ cf ]))
    relevant;
  Hashtbl.iter
    (fun b1 group ->
      let group = List.rev !group in
      List.iter
        (fun ((c2 : Encode.cgamma), forced2) ->
          let k2 = c2.Encode.g_idx in
          List.iter
            (fun ((c1 : Encode.cgamma), forced1) ->
              let k1 = c1.Encode.g_idx in
              if k1 < k2 then begin
                let _, v1 = c1.Encode.g_rhs and _, v2 = c2.Encode.g_rhs in
                if not (Value.equal v1 v2) then
                  if forced1 && forced2 then begin
                    Hashtbl.replace gamma_error k2 ();
                    emit "E003" Error (Gamma k2)
                      (Printf.sprintf
                         "conflicts with Γ#%d: both LHS patterns are forced (singleton active \
                          domains) yet they demand different current values for %S"
                         k1 b1)
                  end
                  else if (not errors_only) && lhs_unifiable c1 c2 then
                    emit "W006" Warning (Gamma k2)
                      (Printf.sprintf
                         "may conflict with Γ#%d: unifiable LHS patterns over the entity's \
                          values but contradictory constants for %S"
                         k1 b1)
              end)
            group)
        group)
    rhs_groups;
  (e001, gamma_error)

(* errors first, then by code (stably); [errors_only] reports list each
   (code, subject) once, e.g. one CFD conflicting with several forced peers *)
let report ~errors_only ds =
  let ds =
    if errors_only then begin
      let seen = Hashtbl.create 16 in
      List.filter
        (fun d ->
          let key = (d.code, d.subject) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        ds
    end
    else ds
  in
  List.stable_sort
    (fun d1 d2 ->
      match compare (severity_rank d1.severity) (severity_rank d2.severity) with
      | 0 -> compare d1.code d2.code
      | c -> c)
    ds

let analyze ?(errors_only = false) ?(sigma_spans = [||]) spec =
  let schema = Spec.schema spec in
  let diags = ref [] in
  let emit = emit_to diags in
  let span_of k = if k < Array.length sigma_spans then sigma_spans.(k) else None in
  let rows = Entity.distinct_rows spec.Spec.entity in
  let e001, gamma_error = cheap_checks ~errors_only ~diags ~rows spec in
  let gamma_a = Array.of_list spec.Spec.gamma in
  (* I002: subsumed CFDs (duplicates included); only CFDs with the exact
     same RHS pattern qualify, so pair up within RHS-pattern groups. *)
  if not errors_only then begin
    let gamma_rhs_pat_group =
      group_by
        (fun (c : Cfd.Constant_cfd.t) ->
          (fst c.Cfd.Constant_cfd.rhs, Value.to_string (snd c.Cfd.Constant_cfd.rhs)))
        (Array.length gamma_a)
        (Array.get gamma_a)
    in
    Array.iteri
      (fun k2 (c2 : Cfd.Constant_cfd.t) ->
        let subsumed_by k1 =
          k1 <> k2
          &&
          let c1 = gamma_a.(k1) in
          List.for_all
            (fun (a, v) ->
              match List.assoc_opt a c2.Cfd.Constant_cfd.lhs with
              | Some v' -> Value.equal v v'
              | None -> false)
            c1.Cfd.Constant_cfd.lhs
          && (List.length c1.Cfd.Constant_cfd.lhs < List.length c2.Cfd.Constant_cfd.lhs
             || k1 < k2)
        in
        match List.find_opt subsumed_by (gamma_rhs_pat_group k2) with
        | Some k1 ->
            emit "I002" Info (Gamma k2)
              (Printf.sprintf "subsumed by Γ#%d: same RHS pattern from a sub-pattern LHS" k1)
        | None -> ())
      gamma_a
  end;

  (* fast-fail for [errors_only]: once a cheap check (a cyclic
     explicit order, a forced CFD conflict) has proven the specification
     unsatisfiable, skip the expensive Σ instantiation and ground-closure
     work — [has_errors] is already decided *)
  if not (errors_only && !diags <> []) then begin
    (* ---- Σ/Γ ground instances, shared with the encoding and the
       saturation engine: {!Encode.parts} instantiates exactly what
       {!Encode.encode} would (same projection-representative sweep, same
       null handling), so every diagnostic below reasons about the very
       instances Φ(Se) is built from. *)
    let parts = Encode.parts ~rows spec in
    let coding = parts.Encode.p_coding in

    (* ---- explicit order edges, at the value level ---- *)
    (* (edge, value-level fact option): [None] when the edge's tuples agree
       on the attribute — the encoding drops such an edge (W005) *)
    let edge_facts =
      List.map
        (fun ({ Spec.attr; lo; hi } as e) ->
          let a = Schema.index schema attr in
          let v1 = Entity.value spec.Spec.entity lo a
          and v2 = Entity.value spec.Spec.entity hi a in
          if Value.equal v1 v2 then (e, None)
          else (e, Some { attr = a; lo = Coding.vid coding a v1; hi = Coding.vid coding a v2 }))
        spec.Spec.orders
    in
    (* W004/W005/I003: duplicate, reflexive-after-closure and transitively
       implied order edges *)
    let dup_edges = Hashtbl.create 16 in
    let i003_edges = Hashtbl.create 16 in
    if not errors_only then begin
      let seen_edges = Hashtbl.create 16 in
      List.iteri
        (fun i ((e, f) : Spec.order_edge * fact option) ->
          if Hashtbl.mem seen_edges e then begin
            Hashtbl.replace dup_edges i ();
            emit "W004" Warning (Order_edge e)
              (Printf.sprintf "order edge %s: %d -> %d is listed more than once" e.Spec.attr
                 e.Spec.lo e.Spec.hi)
          end
          else Hashtbl.add seen_edges e ();
          match f with
          | None ->
              emit "W005" Warning (Order_edge e)
                (Printf.sprintf
                   "tuples %d and %d hold equal values on %S; the edge is reflexive at the \
                    value level and the encoding drops it"
                   e.Spec.lo e.Spec.hi e.Spec.attr)
          | Some _ -> ())
        edge_facts;
      let edge_facts_a = Array.of_list edge_facts in
      Array.iteri
        (fun i (e, f) ->
          match f with
          | Some f when (not e001.(f.attr)) && not (Hashtbl.mem dup_edges i) ->
              (* sized by the coding universe, which also holds the
                 reserved null (see {!Coding.build}) *)
              let g = Porder.Digraph.create (Array.length (Coding.universe coding f.attr)) in
              Array.iteri
                (fun j (_, f') ->
                  match f' with
                  | Some f' when f'.attr = f.attr && j <> i && (f' <> f || j < i) ->
                      Porder.Digraph.add_edge g f'.lo f'.hi
                  | _ -> ())
                edge_facts_a;
              if Porder.Digraph.has_edge (Porder.Digraph.transitive_closure g) f.lo f.hi then begin
                Hashtbl.replace i003_edges i ();
                emit "I003" Info (Order_edge e)
                  (Printf.sprintf
                     "order edge %s: %d -> %d is implied by the transitive closure of the \
                      other explicit edges"
                     e.Spec.attr e.Spec.lo e.Spec.hi)
              end
          | _ -> ())
        edge_facts_a
    end;

    (* W003: a constraint no tuple pair can instantiate never influences
       this entity — its premise is unsatisfiable over the entity's values,
       or its conclusion always relates equal values. The flags are
       pre-deduplication, so a constraint shadowed by an identical
       instance of another still counts as firing. *)
    if not errors_only then
      Array.iteri
        (fun k fires ->
          if not fires then
            emit "W003" Warning ?span:(span_of k) (Sigma k)
              "vacuous on this entity: no ordered tuple pair yields an instance")
        parts.Encode.p_sigma_fired;

    (* I001: subsumed Σ-constraints (duplicates included). Only constraints
       with the same conclusion can subsume each other, so pair up within
       conclusion groups rather than over the full quadratic Σ × Σ. *)
    let sigma_a = Array.of_list spec.Spec.sigma in
    let pred_subset p1 p2 = List.for_all (fun x -> List.mem x p2) p1 in
    if not errors_only then begin
      let sigma_group =
        group_by
          (fun (c : Currency.Constraint_ast.t) -> c.Currency.Constraint_ast.concl)
          (Array.length sigma_a)
          (Array.get sigma_a)
      in
      (* canonical premise (sorted, duplicate conjuncts dropped): set-equal
         premises are exact-equal canonical lists, so duplicate constraints
         fall out of one hash lookup, and a proper sub-conjunction is always
         strictly shorter — the scan skips same-or-longer premises *)
      let sigma_canon =
        Array.map
          (fun (c : Currency.Constraint_ast.t) ->
            List.sort_uniq compare c.Currency.Constraint_ast.premise)
          sigma_a
      in
      let first_canon = Hashtbl.create (Array.length sigma_a) in
      Array.iteri
        (fun k (c : Currency.Constraint_ast.t) ->
          let key = (sigma_canon.(k), c.Currency.Constraint_ast.concl) in
          if not (Hashtbl.mem first_canon key) then Hashtbl.add first_canon key k)
        sigma_a;
      let sigma_len = Array.map List.length sigma_canon in
      let min_group_len =
        (* shortest canonical premise per conclusion group: a constraint can
           only be properly subsumed when its group holds a shorter one *)
        let m = Hashtbl.create 16 in
        Array.iteri
          (fun k (c : Currency.Constraint_ast.t) ->
            let key = c.Currency.Constraint_ast.concl in
            match Hashtbl.find_opt m key with
            | Some l when l <= sigma_len.(k) -> ()
            | _ -> Hashtbl.replace m key sigma_len.(k))
          sigma_a;
        fun (c : Currency.Constraint_ast.t) -> Hashtbl.find m c.Currency.Constraint_ast.concl
      in
      Array.iteri
        (fun k2 (c2 : Currency.Constraint_ast.t) ->
          let p2 = sigma_canon.(k2) in
          let n2 = sigma_len.(k2) in
          let dup =
            match Hashtbl.find_opt first_canon (p2, c2.Currency.Constraint_ast.concl) with
            | Some k1 when k1 < k2 -> Some k1
            | _ -> None
          in
          let subsumed_by k1 = k1 <> k2 && sigma_len.(k1) < n2 && pred_subset sigma_canon.(k1) p2 in
          match
            (match dup with
            | Some _ -> dup
            | None ->
                if min_group_len c2 < n2 then List.find_opt subsumed_by (sigma_group k2) else None)
          with
          | Some k1 ->
              emit "I001" Info ?span:(span_of k2) (Sigma k2)
                (Printf.sprintf "subsumed by Σ#%d: same conclusion from a sub-conjunction premise" k1)
          | None -> ())
        sigma_a
    end;

    (* ---- E002 / E005: the saturation fixpoint ----

       {!Saturate} closes the units of Ω(Se) (explicit edges,
       null-is-lowest, premise-free instances) under modus ponens on the
       Σ/Γ implication instances and transitivity. A derived cycle
       violates asymmetry+transitivity; a fired veto (a CFD whose RHS
       constant the entity never takes, with its "LHS is most current"
       premise derived) violates the veto clause — either way Φ(Se) is
       unsatisfiable. The engine rejects on the same fixpoint, computed
       over its own encoding, so lint and engine agree by construction. *)
    let cl =
      Saturate.of_parts ~mode:Encode.Paper ~plan:(Saturate.plan_for spec.Spec.sigma)
        parts
    in
    Array.iteri
      (fun a cyclic ->
        if cyclic && not e001.(a) then
          emit "E002" Error (Attr (Schema.name schema a))
            (Printf.sprintf
               "the ground closure of Σ/Γ instances and explicit edges derives a cyclic currency \
                order on %S"
               (Schema.name schema a)))
      (Saturate.cyclic_attrs cl);
    List.iter
      (fun (src, _steps) ->
        match src with
        | Encode.From_cfd k when not (Hashtbl.mem gamma_error k) ->
            Hashtbl.replace gamma_error k ();
            emit "E002" Error (Gamma k)
              "the ground closure forces this CFD's LHS pattern to be most current, but its RHS \
               constant never occurs in the entity"
        | _ -> ())
      (Saturate.fired_vetoes cl);

    (* E005: the refutation rendered as a checkable derivation — the
       static unsatisfiability proof behind the E002s above, printed as a
       certificate ({!Saturate.verify}-checkable) for the whole spec *)
    if not errors_only then begin
      (match Saturate.refutation_certificate cl with
      | Some cert ->
          emit "E005" Error Whole
            (Format.asprintf
               "the specification is unsatisfiable by static derivation:@;<1 2>@[<v>%a@]"
               (Saturate.pp_cert spec) cert)
      | None -> ());

      (* a refuted spec derives everything, so the redundancy diagnostics
         below would be pure noise — only run them on consistent closures *)
      if Saturate.refutation cl = None then begin
        (* W007: a Σ-constraint whose every ground instance is derivable
           from the closure of the *other* constraints (its premises
           assumed): dropping it changes no certain fact. Bounded: the
           hypothetical closures are polynomial but not free. *)
        let insts_of = Hashtbl.create 16 in
        let add_inst k inst =
          match Hashtbl.find_opt insts_of k with
          | Some r -> r := inst :: !r
          | None -> Hashtbl.add insts_of k (ref [ inst ])
        in
        List.iter
          (fun ((f : fact), src) ->
            match src with Encode.From_constraint k -> add_inst k ([], f) | _ -> ())
          parts.Encode.p_units;
        List.iter
          (fun (ic : Encode.iconstraint) ->
            match ic.Encode.source with
            | Encode.From_constraint k -> add_inst k (ic.Encode.premise, ic.Encode.concl)
            | _ -> ())
          parts.Encode.p_implications;
        let budget = ref 512 in
        List.iteri
          (fun k _c ->
            match Hashtbl.find_opt insts_of k with
            | Some insts when !budget >= List.length !insts ->
                budget := !budget - List.length !insts;
                let covered =
                  List.for_all
                    (fun (premise, concl) ->
                      Saturate.derives ~mode:Encode.Paper
                        ~drop_source:(fun s -> s = Encode.From_constraint k)
                        ~assume:premise parts concl)
                    !insts
                in
                if covered then
                  emit "W007" Warning ?span:(span_of k) (Sigma k)
                    "subsumed on this entity: every ground instance is derivable from the \
                     closure of the other constraints and the explicit orders"
            | _ -> ())
          spec.Spec.sigma;

        (* I004: an explicit order edge the static closure derives without
           it — redundant input, beyond what I003's explicit-edge
           transitivity already reports *)
        let budget = ref 128 in
        List.iteri
          (fun i ((e : Spec.order_edge), f) ->
            match f with
            | Some f
              when !budget > 0
                   && (not e001.(f.attr))
                   && (not (Hashtbl.mem dup_edges i))
                   && not (Hashtbl.mem i003_edges i) ->
                decr budget;
                if
                  Saturate.derives ~mode:Encode.Paper
                    ~drop_unit:(fun f' src -> src = Encode.From_order && f' = f)
                    parts f
                then
                  emit "I004" Info (Order_edge e)
                    (Printf.sprintf
                       "order edge %s: %d -> %d is derivable from Σ/Γ and the remaining \
                        units: the static closure is unchanged without it"
                       e.Spec.attr e.Spec.lo e.Spec.hi)
            | _ -> ())
          edge_facts
      end
    end
  end;

  report ~errors_only (List.rev !diags)

let cheap_errors ?rows spec =
  let rows = match rows with Some r -> r | None -> Entity.distinct_rows spec.Spec.entity in
  let diags = ref [] in
  ignore (cheap_checks ~errors_only:true ~diags ~rows spec);
  report ~errors_only:true (List.rev !diags)

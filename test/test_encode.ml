(* The variable coding and the Ω(Se)/Φ(Se) encoding of Section V-A. *)

module E = Crcore.Encode

let test_coding_universes () =
  let spec = Fixtures.edith_spec () in
  let enc = E.encode spec in
  let coding = enc.E.coding in
  let schema = Fixtures.schema in
  let a_city = Schema.index schema "city" in
  let univ = Crcore.Coding.universe coding a_city in
  (* adom(city) = NY, SFC, LA plus the reserved null; CFD constants add
     nothing new *)
  Alcotest.(check int) "city universe" 4 (Array.length univ);
  Alcotest.(check int) "city adom prefix" 4 (Crcore.Coding.adom_size coding a_city);
  Alcotest.(check bool) "reserved null sits last in the adom prefix" true
    (Value.is_null univ.(3));
  let a_kids = Schema.index schema "kids" in
  (* kids already takes null: no extra slot is reserved *)
  Alcotest.(check int) "kids universe includes null" 3
    (Array.length (Crcore.Coding.universe coding a_kids));
  let a_name = Schema.index schema "name" in
  Alcotest.(check int) "single-value attr plus reserved null" 2
    (Array.length (Crcore.Coding.universe coding a_name))

(* facts and literals round-trip through the numbering: every ordered
   pair of distinct universe values has its own literal, in both modes;
   Paper gives each its own positive variable, Exact gives the two
   orientations of a pair the two polarities of one variable *)
let test_coding_bijection () =
  let spec = Fixtures.edith_spec () in
  List.iter
    (fun mode ->
      let enc = E.encode ~mode spec in
      let coding = enc.E.coding in
      let n = Crcore.Coding.nvars coding in
      Alcotest.(check bool) "positive vars" true (n > 0);
      let seen = Hashtbl.create 64 in
      let arity = Schema.arity (Crcore.Coding.schema coding) in
      for attr = 0 to arity - 1 do
        let d = Array.length (Crcore.Coding.universe coding attr) in
        for lo = 0 to d - 1 do
          for hi = 0 to d - 1 do
            if lo <> hi then begin
              let l = Crcore.Coding.lit_of coding ~attr lo hi in
              Alcotest.(check bool) "in range" true (Sat.Lit.var l < n);
              Alcotest.(check bool) "injective" false (Hashtbl.mem seen l);
              Hashtbl.add seen l ();
              Alcotest.(check (option (triple int int int)))
                "fact_of_lit (lit_of f) = f" (Some (attr, lo, hi))
                (Crcore.Coding.fact_of_lit coding l);
              (match mode with
              | E.Paper -> Alcotest.(check bool) "positive" true (Sat.Lit.sign l)
              | E.Exact ->
                  Alcotest.(check int) "reverse is the negation" (Sat.Lit.negate l)
                    (Crcore.Coding.lit_of coding ~attr hi lo))
            end
          done
        done
      done;
      (* every variable is used: Paper by its positive literal alone,
         Exact by both polarities *)
      let per_var = match mode with E.Paper -> 1 | E.Exact -> 2 in
      Alcotest.(check int) "onto" (per_var * n) (Hashtbl.length seen);
      if mode = E.Paper then
        for v = 0 to n - 1 do
          Alcotest.(check bool) "negative Paper literal is no fact" true
            (Crcore.Coding.fact_of_lit coding (Sat.Lit.neg_of v) = None)
        done)
    [ E.Paper; E.Exact ]

let test_coding_foreign_constant () =
  (* a CFD RHS constant the entity never takes cannot become a current
     value: the universe stays the active domain and the CFD's premise is
     vetoed *)
  let schema = Schema.make [ "x"; "y" ] in
  let e =
    Entity.make schema
      [
        Tuple.make schema [ Value.Str "a"; Value.Str "p" ];
        Tuple.make schema [ Value.Str "b"; Value.Str "q" ];
      ]
  in
  let gamma = [ Cfd.Constant_cfd.make [ ("x", Value.Str "a") ] ("y", Value.Str "REPAIR") ] in
  let spec = Crcore.Spec.make e ~orders:[] ~sigma:[] ~gamma in
  let enc = E.encode spec in
  let univ_y = Crcore.Coding.universe enc.E.coding 1 in
  Alcotest.(check int) "y universe = adom + reserved null" 3 (Array.length univ_y);
  Alcotest.(check int) "one veto" 1 (List.length (E.vetoes enc));
  (* the veto forbids a being most current in x: its premise holds the
     facts "b < a" and "null < a" *)
  (match E.vetoes enc with
  | [ (([ _; _ ] as fs), E.From_cfd 0) ] ->
      List.iter (fun f -> Alcotest.(check int) "veto attr" 0 f.E.attr) fs
  | _ -> Alcotest.fail "unexpected veto shape");
  (* and the specification remains valid: completions put b on top *)
  Alcotest.(check bool) "still valid" true (Crcore.Validity.check enc);
  (* whereas with no alternative value for x it becomes invalid *)
  let e1 = Entity.make schema [ Tuple.make schema [ Value.Str "a"; Value.Str "p" ] ] in
  let spec1 = Crcore.Spec.make e1 ~orders:[] ~sigma:[] ~gamma in
  Alcotest.(check bool) "forced firing invalid" false (Crcore.Validity.is_valid spec1)

let test_units_from_orders () =
  (* explicit currency order edges become unit facts *)
  let spec = Fixtures.george_spec () in
  let spec = Crcore.Spec.add_order_edges spec [ { Crcore.Spec.attr = "status"; lo = 2; hi = 1 } ] in
  let enc = E.encode spec in
  let from_order = List.filter (fun (_, s) -> s = E.From_order) (E.units enc) in
  Alcotest.(check bool) "order unit present" true
    (List.exists
       (fun (f, _) ->
         let a, lo, hi = (f.E.attr, f.E.lo, f.E.hi) in
         Schema.name Fixtures.schema a = "status"
         && Value.to_string (Crcore.Coding.value enc.E.coding a lo) = "unemployed"
         && Value.to_string (Crcore.Coding.value enc.E.coding a hi) = "retired")
       from_order)

let test_null_lowest_units () =
  let spec = Fixtures.edith_spec () in
  let enc = E.encode spec in
  let a_kids = Schema.index Fixtures.schema "kids" in
  (* null must be a unit below both 0 and 3 *)
  let null_units =
    List.filter
      (fun (f, s) ->
        s = E.From_order && f.E.attr = a_kids
        && Value.is_null (Crcore.Coding.value enc.E.coding a_kids f.E.lo))
      (E.units enc)
  in
  Alcotest.(check int) "null below both kid values" 2 (List.length null_units)

let test_premise_free_instances_are_units () =
  (* ϕ1 on (r1, r2) instantiates to a premise-free instance: a unit *)
  let spec = Fixtures.edith_spec () in
  let enc = E.encode spec in
  let a = Schema.index Fixtures.schema "status" in
  Alcotest.(check bool) "working<retired unit" true
    (List.exists
       (fun (f, s) ->
         (match s with E.From_constraint _ -> true | _ -> false)
         && f.E.attr = a
         && Value.to_string (Crcore.Coding.value enc.E.coding a f.E.lo) = "working"
         && Value.to_string (Crcore.Coding.value enc.E.coding a f.E.hi) = "retired")
       (E.units enc))

let test_implications_shape () =
  let spec = Fixtures.george_spec () in
  let enc = E.encode spec in
  (* ϕ5 instances on George have exactly one premise (the status fact) *)
  let phi5_instances =
    List.filter
      (fun ic ->
        match ic.E.source with
        | E.From_constraint k -> k = 4 (* index of prec(status)->prec(job) *)
        | _ -> false)
      (E.implications enc)
  in
  Alcotest.(check bool) "phi5 instantiated" true (List.length phi5_instances > 0);
  List.iter
    (fun ic -> Alcotest.(check int) "single premise" 1 (List.length ic.E.premise))
    phi5_instances

let test_cfd_encoding () =
  let spec = Fixtures.edith_spec () in
  let enc = E.encode spec in
  let cfd_imps =
    List.filter (fun ic -> match ic.E.source with E.From_cfd _ -> true | _ -> false) (E.implications enc)
  in
  (* each CFD: one implication per other adom-prefix city value — the two
     other cities plus the reserved null (3 each) *)
  Alcotest.(check int) "cfd implication count" 6 (List.length cfd_imps);
  List.iter
    (fun ic ->
      (* premise: the other AC values (incl. the reserved null) below the
         pattern's AC *)
      Alcotest.(check int) "cfd premise size" 3 (List.length ic.E.premise))
    cfd_imps

let test_relevant_gamma () =
  let schema = Schema.make [ "x"; "y" ] in
  let e =
    Entity.make schema
      [ Tuple.make schema [ Value.Str "a"; Value.Str "p" ];
        Tuple.make schema [ Value.Str "b"; Value.Str "q" ] ]
  in
  let g1 = Cfd.Constant_cfd.make [ ("x", Value.Str "a") ] ("y", Value.Str "p") in
  let g2 = Cfd.Constant_cfd.make [ ("x", Value.Str "ZZZ") ] ("y", Value.Str "p") in
  let rel = E.relevant_gamma e [ g1; g2 ] in
  Alcotest.(check (list int)) "only firing cfd kept" [ 0 ] (List.map fst rel)

let test_structural_axioms_counts () =
  (* for universe sizes d, Paper: transitivity d(d-1)(d-2) plus asymmetry
     d(d-1)/2 clauses over d(d-1) variables; Exact: no clause, one
     tournament block over d(d-1)/2 variables, whose expansion is two
     3-cycle exclusions per triple, d(d-1)(d-2)/3 — here d = 4: three
     values plus the reserved null *)
  let schema = Schema.make [ "x" ] in
  let mk v = Tuple.make schema [ Value.Str v ] in
  let e = Entity.make schema [ mk "a"; mk "b"; mk "c" ] in
  let spec = Crcore.Spec.make e ~orders:[] ~sigma:[] ~gamma:[] in
  let paper = E.encode ~mode:E.Paper spec in
  let exact = E.encode ~mode:E.Exact spec in
  Alcotest.(check int) "paper structural" ((4 * 3 * 2) + 6) paper.E.n_structural;
  Alcotest.(check int) "exact structural clauses" 0 exact.E.n_structural;
  Alcotest.(check bool) "exact blocks" true
    (exact.E.cnf.Sat.Cnf.blocks = [ { Sat.Cnf.first = 0; d = 4 } ]);
  Alcotest.(check int) "exact expansion d(d-1)(d-2)/3"
    (Sat.Cnf.nclauses exact.E.cnf + (4 * 3 * 2 / 3))
    (Sat.Cnf.nclauses (Sat.Cnf.expand exact.E.cnf));
  Alcotest.(check int) "paper nvars d(d-1)" 12 paper.E.cnf.Sat.Cnf.nvars;
  Alcotest.(check int) "exact nvars d(d-1)/2" 6 exact.E.cnf.Sat.Cnf.nvars

(* The reserved-null slot at work: a fresh tuple carrying only known
   values and nulls keeps every universe — and hence the variable
   numbering — unchanged, so [extend] serves a [Delta]; a genuinely new
   value still renumbers, with the trailing reserved null floating to a
   later id rather than breaking the prefix condition. *)
let test_extend_null_is_delta () =
  let schema = Schema.make [ "x"; "y" ] in
  let e =
    Entity.make schema
      [
        Tuple.make schema [ Value.Str "a"; Value.Str "p" ];
        Tuple.make schema [ Value.Str "b"; Value.Str "q" ];
      ]
  in
  let spec = Crcore.Spec.make e ~orders:[] ~sigma:[] ~gamma:[] in
  let enc = E.encode spec in
  let null_spec =
    Crcore.Spec.extend_with_tuple spec
      (Tuple.make schema [ Value.Str "a"; Value.Null ])
      ~current_attrs:[ "x" ]
  in
  (match E.extend enc null_spec with
  | Some (E.Delta (enc', _)) ->
      Alcotest.(check int) "numbering unchanged" (Crcore.Coding.nvars enc.E.coding)
        (Crcore.Coding.nvars enc'.E.coding)
  | Some (E.Renumbered _) -> Alcotest.fail "null-only extension renumbered"
  | None -> Alcotest.fail "null-only extension rejected");
  let fresh_spec =
    Crcore.Spec.extend_with_tuple spec
      (Tuple.make schema [ Value.Str "c"; Value.Str "p" ])
      ~current_attrs:[ "x" ]
  in
  match E.extend enc fresh_spec with
  | Some (E.Renumbered enc') ->
      let u = Crcore.Coding.universe enc'.E.coding 0 in
      Alcotest.(check int) "x universe grew" 4 (Array.length u);
      Alcotest.(check bool) "null floated behind the new value" true
        (Value.is_null u.(3) && Value.equal u.(2) (Value.Str "c"))
  | Some (E.Delta _) -> Alcotest.fail "new-value extension took the delta path"
  | None -> Alcotest.fail "new-value extension rejected"

let test_var_fact_roundtrip () =
  List.iter
    (fun mode ->
      let enc = E.encode ~mode (Fixtures.george_spec ()) in
      List.iter
        (fun (f, _) ->
          let l = E.lit_of_fact enc f in
          Alcotest.(check bool) "fact round trip" true (E.fact_of_lit enc l = Some f))
        (E.units enc))
    [ E.Paper; E.Exact ]

let prop_fact_table =
  QCheck.Test.make ~count:200 ~name:"fact_table == fact_of_lit per literal (both modes)"
    Fixtures.qcheck_spec (fun spec ->
      List.for_all
        (fun mode ->
          let enc = E.encode ~mode spec in
          E.fact_table enc = Array.init (2 * enc.E.cnf.Sat.Cnf.nvars) (E.fact_of_lit enc))
        [ E.Paper; E.Exact ])

(* the universe is the active domain plus the reserved null, whatever
   constants Γ mentions: the candidate rule of
   [Deduce.decide_true_values] ranges over it *)
let prop_universe_is_adom =
  QCheck.Test.make ~count:200 ~name:"universe length == adom_size on every attribute (both modes)"
    Fixtures.qcheck_spec (fun spec ->
      List.for_all
        (fun mode ->
          let coding = (E.encode ~mode spec).E.coding in
          List.for_all
            (fun a ->
              let univ = Crcore.Coding.universe coding a in
              Array.length univ = Crcore.Coding.adom_size coding a
              && Array.exists Value.is_null univ)
            (List.init (Schema.arity (Crcore.Spec.schema spec)) Fun.id))
        [ E.Paper; E.Exact ])

let prop_cnf_well_formed =
  QCheck.Test.make ~count:200 ~name:"encoded CNF is well-formed in both modes" Fixtures.qcheck_spec
    (fun spec ->
      List.for_all
        (fun mode ->
          let enc = E.encode ~mode spec in
          let n = enc.E.cnf.Sat.Cnf.nvars in
          n = Crcore.Coding.nvars enc.E.coding
          && List.for_all
               (fun c -> Array.for_all (fun l -> Sat.Lit.var l < n) c)
               (Sat.Cnf.clauses enc.E.cnf)
          && List.for_all
               (fun b -> b.Sat.Cnf.first + Sat.Cnf.block_nvars b.Sat.Cnf.d <= n)
               enc.E.cnf.Sat.Cnf.blocks)
        [ E.Paper; E.Exact ])

(* The template contract: the two-stage pipeline (compile the spec's
   shape once, stamp the entity in) yields exactly the encoding the
   one-stage [encode] builds — same universes, numbering, clauses and
   instance lists, in the same order — so the engine may serve any
   same-shape entity from a template without changing a single answer.
   Universes compare with [compare], under which a NaN equals itself. *)
let same_encoding (a : E.t) (b : E.t) =
  a.E.cnf.Sat.Cnf.nvars = b.E.cnf.Sat.Cnf.nvars
  && Sat.Cnf.clauses a.E.cnf = Sat.Cnf.clauses b.E.cnf
  && a.E.cnf.Sat.Cnf.blocks = b.E.cnf.Sat.Cnf.blocks
  && E.units a = E.units b
  && E.implications a = E.implications b
  && E.sigma_insts a = E.sigma_insts b
  && E.gamma_imps a = E.gamma_imps b
  && E.vetoes a = E.vetoes b
  && a.E.n_structural = b.E.n_structural
  &&
  let arity = Schema.arity (Crcore.Coding.schema a.E.coding) in
  List.for_all
    (fun at ->
      compare (Crcore.Coding.universe a.E.coding at) (Crcore.Coding.universe b.E.coding at) = 0)
    (List.init arity Fun.id)

let prop_template_instantiate_bit_identical =
  QCheck.Test.make ~count:500
    ~name:"template + instantiate bit-identical to direct encode (both modes)"
    Fixtures.qcheck_spec
    (fun spec ->
      List.for_all
        (fun mode ->
          let direct = E.encode ~mode spec in
          let tpl = E.template ~mode spec in
          let staged = E.instantiate tpl spec in
          E.template_matches tpl spec && same_encoding direct staged)
        [ E.Paper; E.Exact ])

(* The Exact layout against the one it replaced: the old double-allocated
   Exact CNF was the Paper encoding plus a totality clause x_uv ∨ x_vu per
   pair, over Paper's numbering. Rebuilt here, it must agree with the
   one-variable-per-pair encoding on validity and on the complete fact
   set [naive_deduce] reads off each. *)
let prop_exact_equals_paper_plus_totality =
  QCheck.Test.make ~count:150 ~name:"exact mode = paper + totality"
    Fixtures.qcheck_spec (fun spec ->
      let p = E.encode ~mode:E.Paper spec in
      let coding = p.E.coding in
      let totality = ref [] in
      for attr = 0 to Schema.arity (Crcore.Coding.schema coding) - 1 do
        let d = Array.length (Crcore.Coding.universe coding attr) in
        for u = 0 to d - 1 do
          for v = u + 1 to d - 1 do
            totality :=
              [| Crcore.Coding.lit_of coding ~attr u v; Crcore.Coding.lit_of coding ~attr v u |]
              :: !totality
          done
        done
      done;
      let old =
        {
          p with
          E.cnf =
            Sat.Cnf.make ~blocks:p.E.cnf.Sat.Cnf.blocks ~nvars:p.E.cnf.Sat.Cnf.nvars
              (Sat.Cnf.clauses p.E.cnf @ !totality);
        }
      in
      let e = E.encode ~mode:E.Exact spec in
      let valid = Crcore.Validity.check e in
      valid = Crcore.Validity.check old
      && ((not valid)
         ||
         let pairs d =
           Array.map (fun o -> List.sort compare (Porder.Strict_order.pairs o)) d.Crcore.Deduce.od
         in
         pairs (Crcore.Deduce.naive_deduce e) = pairs (Crcore.Deduce.naive_deduce old)))

(* ---- one-pass lowering ---- *)

(* Cells that hash or compare awkwardly: Int/Float pairs that are equal,
   both zeros, several NaNs per column, nulls. *)
let awkward_values =
  [|
    Value.Str "x"; Value.Str "y"; Value.Int 0; Value.Int 1; Value.Float 1.0;
    Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan; Value.Float 2.5;
    Value.Null;
  |]

(* an entity over [a0..a(k-1)], a mode, and a list of position sets to
   project on *)
let qcheck_awkward_entity =
  let open QCheck.Gen in
  let value = map (fun i -> awkward_values.(i)) (int_bound (Array.length awkward_values - 1)) in
  let gen =
    int_range 1 4 >>= fun arity ->
    let name a = "a" ^ string_of_int a in
    let schema = Schema.make (List.init arity name) in
    list_size (int_range 1 30) (list_repeat arity value) >>= fun rows ->
    let subset =
      map
        (fun bits -> List.filter (fun a -> bits land (1 lsl a) <> 0) (List.init arity Fun.id))
        (int_range 1 ((1 lsl arity) - 1))
    in
    list_size (int_range 1 4) subset >>= fun subsets ->
    map
      (fun exact ->
        ( Entity.make schema (List.map (Tuple.make schema) rows),
          (if exact then E.Exact else E.Paper),
          List.init arity Fun.id :: subsets ))
      bool
  in
  QCheck.make ~print:(fun (e, _, _) -> Format.asprintf "%a" Entity.pp e) gen

(* Every cell id of [Coding.lower] is the map lookup [Coding.vid] makes
   on its row's first tuple — NaN cells included, which the map sends to
   the universe's last NaN — and the numbering is unchanged: one universe
   entry per NaN occurrence, and the universe is the active domain. The
   integer-keyed representatives equal those keyed on id lists, both
   over the distinct rows. *)
let prop_lowering_matches_vid =
  QCheck.Test.make ~count:1000 ~name:"lowered cell ids == Coding.vid; int-keyed reps == list-keyed"
    qcheck_awkward_entity (fun (entity, mode, position_sets) ->
      let rows = Entity.distinct_rows entity in
      let coding, cells = Crcore.Coding.lower ~mode ~rows entity in
      let tuples = Entity.tuples entity in
      let row_tuples = Array.to_list (Array.map (Entity.tuple entity) rows) in
      let arity = Schema.arity (Entity.schema entity) in
      let attrs = List.init arity Fun.id in
      let vid t a = Crcore.Coding.vid coding a (Tuple.get t a) in
      let ids_ok =
        List.for_all
          (fun a ->
            Array.length cells.(a) = Array.length rows
            && List.for_all Fun.id (List.mapi (fun k t -> cells.(a).(k) = vid t a) row_tuples))
          attrs
      in
      let nans_kept =
        List.for_all
          (fun a ->
            let adom = Crcore.Coding.universe coding a in
            Array.length adom = Crcore.Coding.adom_size coding a
            && List.length (List.filter (fun t -> Value.is_nan (Tuple.get t a)) tuples)
            = Array.fold_left (fun n v -> if Value.is_nan v then n + 1 else n) 0 adom)
          attrs
      in
      let pairs d = match mode with E.Paper -> d * (d - 1) | E.Exact -> d * (d - 1) / 2 in
      let nvars_ok =
        Crcore.Coding.nvars coding
        = List.fold_left (fun acc a -> acc + pairs (Array.length (Crcore.Coding.universe coding a))) 0 attrs
        && Crcore.Coding.nvars coding = Crcore.Coding.nvars (Crcore.Coding.build ~mode entity)
      in
      let reference positions =
        let seen = Hashtbl.create 16 in
        List.concat
          (List.mapi
             (fun k t ->
               let key = List.map (vid t) positions in
               if Hashtbl.mem seen key then []
               else begin
                 Hashtbl.add seen key ();
                 [ k ]
               end)
             row_tuples)
      in
      let reps_ok =
        List.for_all (fun ps -> E.projection_reps coding cells ps = reference ps) position_sets
      in
      ids_ok && nans_kept && nvars_ok && reps_ok)

(* Refinement keys [class·d + id] on a 4096-tuple entity where d is a
   power of two: a constant column (universe {c, null}, d = 2) and a
   column of 1023 values plus null (d = 1024) whose ids are concentrated
   on one value, each refining the classes of a distinct column. With
   buckets chosen from the keys' unmixed low bits, the constant column
   uses half the buckets and the skewed column's keys share a handful
   (one chain holds 1537 of the 4096); the table's chains stay short. *)
let test_refine_keys_spread () =
  let n = 4096 in
  let schema = Schema.make [ "key"; "const"; "skewed" ] in
  let row i =
    Tuple.make schema
      [ Value.Str ("k" ^ string_of_int i); Value.Str "c"; Value.Int (if i < 1023 then i else 0) ]
  in
  let entity = Entity.make schema (List.init n row) in
  let rows = Entity.distinct_rows entity in
  Alcotest.(check int) "every tuple is a row" n (Array.length rows);
  let coding, cells = Crcore.Coding.lower ~mode:E.Exact ~rows entity in
  let size a = Array.length (Crcore.Coding.universe coding a) in
  Alcotest.(check (list int)) "universe sizes" [ n + 1; 2; 1024 ] [ size 0; size 1; size 2 ];
  List.iter
    (fun q ->
      let keys = E.Int_tbl.create 16 in
      Array.iteri (fun i c -> E.Int_tbl.replace keys ((c * size q) + cells.(q).(i)) i) cells.(0);
      let st = E.Int_tbl.stats keys in
      Alcotest.(check int) "one key per tuple" n st.Hashtbl.num_bindings;
      if st.Hashtbl.max_bucket_length > 16 then
        Alcotest.failf "column %d: a bucket holds %d of %d keys" q st.Hashtbl.max_bucket_length n;
      Alcotest.(check (list int)) "reps" (List.init n Fun.id) (E.projection_reps coding cells [ 0; q ]))
    [ 1; 2 ];
  Alcotest.(check (list int)) "skewed reps" (List.init 1023 Fun.id) (E.projection_reps coding cells [ 1; 2 ])

(* ---- the constant index ---- *)

(* Constraints that cannot fire on a [Fixtures.random_spec] entity: each
   carries an equality with a constant its attribute never takes — an
   absent string, NaN, an [Int]/[Float] twin pair — next to constants the
   entity may take, so the index files some of them under a value the
   entity has and the exact tests must still reject them. *)
let absent = [ Value.Str "zz"; Value.Float Float.nan; Value.Int 7; Value.Float 7.0; Value.Str "a9" ]

let padding st (spec : Crcore.Spec.t) =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let attrs = Schema.attr_names Fixtures.small_schema in
  let other a = pick (List.filter (( <> ) a) attrs) in
  let tref () = if Random.State.bool st then Currency.Constraint_ast.T1 else Currency.Constraint_ast.T2 in
  let dead_pred a = Currency.Constraint_ast.Cmp_const (tref (), a, Value.Eq, pick absent) in
  let live_pred a = Currency.Constraint_ast.Cmp_const (tref (), a, Value.Eq, pick (Fixtures.pool a)) in
  let sigma =
    List.init (1 + Random.State.int st 4) (fun _ ->
        let a = pick attrs and b = pick attrs in
        let premise =
          match Random.State.int st 3 with
          | 0 -> [ dead_pred a ]
          | 1 -> [ live_pred b; dead_pred a ]
          | _ -> [ Currency.Constraint_ast.Prec b; dead_pred a; live_pred a ]
        in
        Currency.Constraint_ast.make premise (pick attrs))
  in
  let gamma =
    List.init (1 + Random.State.int st 4) (fun _ ->
        let a = pick attrs in
        let b = other a in
        let c = pick (List.filter (fun x -> x <> a && x <> b) attrs) in
        let lhs =
          if Random.State.bool st then [ (a, pick absent) ]
          else [ (a, pick absent); (b, pick (Fixtures.pool b)) ]
        in
        Cfd.Constant_cfd.make lhs (c, pick (Fixtures.pool c @ absent)))
  in
  Crcore.Spec.make spec.Crcore.Spec.entity ~orders:spec.Crcore.Spec.orders
    ~sigma:(spec.Crcore.Spec.sigma @ sigma) ~gamma:(spec.Crcore.Spec.gamma @ gamma)

let prop_index_padding_invisible =
  QCheck.Test.make ~count:300 ~name:"constraints that cannot fire change nothing (index)"
    Fixtures.qcheck_spec (fun spec ->
      let st = Random.State.make [| Crcore.Spec.size spec; List.length spec.Crcore.Spec.sigma |] in
      let padded = padding st spec in
      let n_sigma = List.length spec.Crcore.Spec.sigma
      and n_gamma = List.length spec.Crcore.Spec.gamma in
      let user =
        match Crcore.Reference.analyze spec with
        | Some { Crcore.Reference.valid = true; true_tuple = Some t; _ } ->
            Crcore.Framework.oracle (Tuple.of_array (Crcore.Spec.schema spec) t)
        | _ -> Crcore.Framework.silent
      in
      let same_mode mode =
        let e0 = E.encode ~mode spec and e1 = E.encode ~mode padded in
        let config = { Crcore.Engine.default_config with mode } in
        let r0, _ = Crcore.Engine.resolve ~config ~user spec
        and r1, _ = Crcore.Engine.resolve ~config ~user padded in
        let suggestions e =
          if not (Crcore.Validity.check e) then None
          else
            let d = Crcore.Deduce.deduce_order e in
            Some (Crcore.Rules.suggest d ~known:(Crcore.Deduce.true_values d))
        in
        same_encoding e0 e1 && r0 = r1 && suggestions e0 = suggestions e1
      in
      let padded_subject (d : Crcore.Analyze.diagnostic) =
        match d.Crcore.Analyze.subject with
        | Crcore.Analyze.Sigma k -> k >= n_sigma
        | Crcore.Analyze.Gamma k -> k >= n_gamma
        | _ -> false
      in
      let full0 = Crcore.Analyze.analyze spec and full1 = Crcore.Analyze.analyze padded in
      let w001 =
        List.filter_map
          (fun (d : Crcore.Analyze.diagnostic) ->
            match d.Crcore.Analyze.subject with
            | Crcore.Analyze.Gamma k when d.Crcore.Analyze.code = "W001" && k >= n_gamma -> Some k
            | _ -> None)
          full1
      in
      same_mode E.Paper && same_mode E.Exact
      && Crcore.Analyze.analyze ~errors_only:true spec
         = Crcore.Analyze.analyze ~errors_only:true padded
      && List.filter (fun d -> not (padded_subject d)) full1 = full0
      && w001 = List.init (List.length padded.Crcore.Spec.gamma - n_gamma) (fun i -> n_gamma + i))

(* Σ over mixed-kind cells: constant predicates (=, ≠, <, ≥) and pair
   predicates with constants from the cells' own pool, NaN and null
   included; CFDs of one or two LHS atoms from the same pool. *)
let qcheck_mixed_spec =
  let open QCheck.Gen in
  let value = map (fun i -> awkward_values.(i)) (int_bound (Array.length awkward_values - 1)) in
  let const = map (fun i -> awkward_values.(i)) (int_bound (Array.length awkward_values - 2)) in
  let gen =
    int_range 2 4 >>= fun arity ->
    let name a = "a" ^ string_of_int a in
    let schema = Schema.make (List.init arity name) in
    let attr = map name (int_bound (arity - 1)) in
    let pred =
      attr >>= fun a ->
      int_bound 3 >>= fun kind ->
      match kind with
      | 0 -> return (Currency.Constraint_ast.Prec a)
      | 1 -> map (fun op -> Currency.Constraint_ast.Cmp2 (a, op)) (oneofl [ Value.Lt; Value.Neq ])
      | _ ->
          map3
            (fun t op c ->
              Currency.Constraint_ast.Cmp_const
                ((if t then Currency.Constraint_ast.T1 else Currency.Constraint_ast.T2), a, op, c))
            bool
            (oneofl [ Value.Eq; Value.Eq; Value.Neq; Value.Lt; Value.Geq ])
            value
    in
    let constr = map2 Currency.Constraint_ast.make (list_size (int_bound 3) pred) attr in
    let cfd =
      int_bound (arity - 1) >>= fun l ->
      int_bound (arity - 2) >>= fun r ->
      let r = if r >= l then r + 1 else r in
      let others = List.filter (fun a -> a <> l && a <> r) (List.init arity Fun.id) in
      map3
        (fun cl cr extra ->
          let lhs =
            match (others, extra) with
            | o :: _, Some c -> [ (name l, cl); (name o, c) ]
            | _ -> [ (name l, cl) ]
          in
          Cfd.Constant_cfd.make lhs (name r, cr))
        const const (opt const)
    in
    list_size (int_range 1 10) (list_repeat arity value) >>= fun rows ->
    list_size (int_bound 6) constr >>= fun sigma ->
    list_size (int_bound 4) cfd >>= fun gamma ->
    map
      (fun exact ->
        ( Crcore.Spec.make (Entity.make schema (List.map (Tuple.make schema) rows)) ~orders:[] ~sigma
            ~gamma,
          if exact then E.Exact else E.Paper ))
      bool
  in
  QCheck.make ~print:(fun (spec, _) -> Format.asprintf "%a" Crcore.Spec.pp spec) gen

(* The Σ instances of [Constraint_ast.instantiate] over every ordered
   tuple pair and every constraint, the lowest index keeping an instance
   several produce, in the encoding's canonical order. Facts are read as
   cell ids, and all NaN cells share one id ({!Coding.lower}), so a pair
   of NaN cells relates equal ids, which the encoding reads as equal
   values. *)
let scan_sigma_insts spec coding =
  let schema = Crcore.Spec.schema spec in
  let fact (name, v1, v2) =
    let attr = Schema.index schema name in
    { E.attr; lo = Crcore.Coding.vid coding attr v1; hi = Crcore.Coding.vid coding attr v2 }
  in
  let tuples = Entity.tuples spec.Crcore.Spec.entity in
  let seen = Hashtbl.create 16 in
  let scan = ref [] in
  List.iteri
    (fun k c ->
      List.iter
        (fun s1 ->
          List.iter
            (fun s2 ->
              if s1 != s2 then
                match Currency.Constraint_ast.instantiate c s1 s2 with
                | None -> ()
                | Some i ->
                    let premise = List.sort_uniq compare (List.map fact i.Currency.Constraint_ast.prec_premises) in
                    let concl = fact i.Currency.Constraint_ast.conclusion in
                    let degenerate f = f.E.lo = f.E.hi in
                    if not (degenerate concl || List.exists degenerate premise || Hashtbl.mem seen (concl, premise))
                    then begin
                      Hashtbl.add seen (concl, premise) ();
                      scan := { E.premise; concl; source = E.From_constraint k } :: !scan
                    end)
            tuples)
        tuples)
    spec.Crcore.Spec.sigma;
  let by_key a b =
    match compare a.E.premise b.E.premise with 0 -> compare a.E.concl b.E.concl | c -> c
  in
  List.sort by_key !scan

(* The index against a full scan: the Σ instances are
   {!scan_sigma_insts}'; the relevant CFDs are {!E.relevant_gamma}'s. *)
let prop_index_equals_scan =
  QCheck.Test.make ~count:1000 ~name:"indexed instantiation == full scan (mixed kinds, NaN)"
    qcheck_mixed_spec (fun (spec, mode) ->
      let enc = E.encode ~mode spec in
      let coding = enc.E.coding in
      let relevant = List.map (fun ((g : E.cgamma), _) -> g.E.g_idx) (E.relevant_cfds (E.compiled_gamma spec) coding) in
      scan_sigma_insts spec coding = E.sigma_insts enc
      && relevant = List.map fst (E.relevant_gamma spec.Crcore.Spec.entity spec.Crcore.Spec.gamma))

(* The typed instance order is polymorphic [compare]'s: on the mixed
   specs, in both modes, [sigma_insts] is strictly ascending under
   [compare] on [(premise, concl)], and every premise is
   [List.sort_uniq compare] of itself. A typed comparator that drifts
   from [compare] fails here before it can change a CNF. *)
let prop_sigma_order_is_compare =
  QCheck.Test.make ~count:1000 ~name:"sigma_insts ordered by polymorphic compare (both modes)"
    qcheck_mixed_spec (fun (spec, _) ->
      List.for_all
        (fun mode ->
          let insts = E.sigma_insts (E.encode ~mode spec) in
          let key (i : E.iconstraint) = (i.E.premise, i.E.concl) in
          let rec ascending = function
            | a :: (b :: _ as rest) -> compare (key a) (key b) < 0 && ascending rest
            | _ -> true
          in
          ascending insts
          && List.for_all (fun (i : E.iconstraint) -> List.sort_uniq compare i.E.premise = i.E.premise) insts)
        [ E.Paper; E.Exact ])

(* ---- the packed encoder against the record-based reference ---- *)

(* Ω(Se) read back from the packed form is the reference's, record for
   record and in order *)
let same_omega (e : E.t) (o : Encode_ref.omega) =
  E.sigma_insts e = o.Encode_ref.sigma
  && E.gamma_imps e = o.Encode_ref.gamma
  && E.units e = o.Encode_ref.units
  && E.implications e = o.Encode_ref.implications
  && E.vetoes e = o.Encode_ref.vetoes
  && (E.parts_of_t e).E.p_units = o.Encode_ref.units

(* Packed grounding against {!Encode_ref}, both modes: the same instance
   sequence (facts and sources), the same [fired] flags and the same
   clause sequence, on the mixed specs and the paper-style ones. *)
let prop_packed_equals_reference =
  QCheck.Test.make ~count:1000 ~name:"packed encode == record-based reference (both modes)"
    (QCheck.pair qcheck_mixed_spec Fixtures.qcheck_spec) (fun ((mixed, _), small) ->
      List.for_all
        (fun spec ->
          List.for_all
            (fun mode ->
              let enc = E.encode ~mode spec in
              let o, fired, clauses = Encode_ref.encode ~mode spec in
              same_omega enc o
              && (E.parts ~mode spec).E.p_sigma_fired = fired
              && Sat.Cnf.clauses enc.E.cnf = clauses)
            [ E.Paper; E.Exact ])
        [ mixed; small ])

(* A mixed spec, its mode and two extension steps: each appends a tuple
   whose cells are copied from existing tuples (or null), so most steps
   keep the universes, with an optional order edge onto it. *)
let qcheck_extension =
  let open QCheck.Gen in
  let step spec =
    let entity = spec.Crcore.Spec.entity in
    let schema = Entity.schema entity and n = Entity.size entity in
    list_repeat (Schema.arity schema) (int_bound n) >>= fun picks ->
    opt (pair (int_bound (Schema.arity schema - 1)) (int_bound (n - 1))) >|= fun edge ->
    let t =
      Tuple.make schema
        (List.mapi (fun a k -> if k = n then Value.Null else Entity.value entity k a) picks)
    in
    let orders =
      match edge with
      | None -> []
      | Some (a, lo) -> [ { Crcore.Spec.attr = Schema.name schema a; lo; hi = n } ]
    in
    Crcore.Spec.extend spec ~tuples:[ t ] ~orders
  in
  let gen =
    QCheck.gen qcheck_mixed_spec >>= fun (spec, mode) ->
    step spec >>= fun s1 ->
    step s1 >|= fun s2 -> (spec, mode, [ s1; s2 ])
  in
  QCheck.make
    ~print:(fun (_, _, steps) -> Format.asprintf "%a" Crcore.Spec.pp (List.nth steps 1))
    gen

(* [Encode.extend] against the reference's incremental path, step by
   step: the same kind of extension, the same Ω(Se), the same clause
   sequence of the extended Φ and, for a [Delta], the same delta clauses
   in the same order (the merged Σ instances included). *)
let prop_extend_packed_equals_reference =
  QCheck.Test.make ~count:1000 ~name:"packed extend == record-based reference (Delta and Renumbered)"
    qcheck_extension (fun (spec, mode, steps) ->
      let rec go enc o = function
        | [] -> true
        | s :: rest -> (
            match (E.extend enc s, lazy (Encode_ref.extend o enc s)) with
            | None, _ -> true
            | Some (E.Delta (e, delta)), (lazy (`Delta (o', clauses, delta'))) ->
                same_omega e o' && Sat.Cnf.clauses e.E.cnf = clauses && delta = delta' && go e o' rest
            | Some (E.Renumbered e), (lazy (`Renumbered (o', clauses))) ->
                same_omega e o' && Sat.Cnf.clauses e.E.cnf = clauses && go e o' rest
            | Some _, _ -> false)
      in
      let o, _, _ = Encode_ref.encode ~mode spec in
      go (E.encode ~mode spec) o steps)

(* ---- distinct rows ---- *)

(* A value [Value.equal] to [v] under another representation: [Int]s
   and integral [Float]s swap kinds, the two zeros swap signs; a NaN
   (equal to nothing) and the rest stay as they are. *)
let twin = function
  | Value.Int i -> Value.Float (float_of_int i)
  | Value.Float f when f = 0. -> Value.Float (-.f)
  | Value.Float f when Float.is_integer f -> Value.Int (int_of_float f)
  | v -> v

(* [qcheck_mixed_spec] with repeated records: copies of random tuples,
   each cell possibly replaced by its {!twin}, inserted at random
   positions after their original *)
let qcheck_repeated_spec =
  let open QCheck.Gen in
  let gen =
    QCheck.gen qcheck_mixed_spec >>= fun (spec, mode) ->
    let entity = spec.Crcore.Spec.entity in
    let schema = Entity.schema entity in
    let n = Entity.size entity in
    list_size (int_range 1 8)
      (triple (int_bound (n - 1)) (list_repeat (Schema.arity schema) bool) (int_bound 1000))
    >|= fun copies ->
    let tuples =
      List.fold_left
        (fun tuples (src, twins, at) ->
          let copy =
            Tuple.make schema
              (List.mapi
                 (fun a v -> if List.nth twins a then twin v else v)
                 (Tuple.values (List.nth tuples src)))
          in
          let at = src + 1 + (at mod (List.length tuples - src)) in
          List.filteri (fun i _ -> i < at) tuples @ (copy :: List.filteri (fun i _ -> i >= at) tuples))
        (Entity.tuples entity) copies
    in
    ({ spec with Crcore.Spec.entity = Entity.make schema tuples }, mode)
  in
  QCheck.make ~print:(fun (spec, _) -> Format.asprintf "%a" Crcore.Spec.pp spec) gen

(* The rows are the first occurrences, ascending: every tuple outside
   them equals an earlier row cell by cell, and no two mergeable rows are
   equal. *)
let rows_are_first_occurrences entity rows =
  let same i j =
    List.for_all2 Value.equal
      (Tuple.values (Entity.tuple entity i))
      (Tuple.values (Entity.tuple entity j))
  in
  let rows_l = Array.to_list rows in
  List.sort_uniq compare rows_l = rows_l
  && List.for_all
       (fun i -> List.mem i rows_l || List.exists (fun r -> r < i && same r i) rows_l)
       (List.init (Entity.size entity) Fun.id)
  && List.for_all (fun r -> not (List.exists (fun r' -> r' < r && same r' r) rows_l)) rows_l

(* Universes by the lowering a scan over every tuple makes: the values of
   each column in first-occurrence order (a NaN occurrence each), then
   the reserved null. The encoder lowers with no CFD constants. *)
let tuple_level_universes entity =
  Array.init (Schema.arity (Entity.schema entity)) (fun a ->
      let adom =
        List.fold_left
          (fun adom t ->
            let v = Tuple.get t a in
            if List.exists (Value.equal v) adom then adom else adom @ [ v ])
          [] (Entity.tuples entity)
      in
      Array.of_list (if List.exists Value.is_null adom then adom else adom @ [ Value.Null ]))

(* Lowering each distinct row once changes no output: against the
   tuple-level lowering (every tuple a row, as [~rows] permits) and the
   references above, the CNF (clauses and blocks), universes, Σ instances
   and [fired] flags are the same, in both modes, on entities repeating
   records under twin representations. *)
let prop_rows_equal_tuple_level =
  QCheck.Test.make ~count:500 ~name:"distinct-row encoding == tuple-level reference"
    qcheck_repeated_spec (fun (spec, _) ->
      let entity = spec.Crcore.Spec.entity in
      let rows = Entity.distinct_rows entity in
      let every = Array.init (Entity.size entity) Fun.id in
      rows_are_first_occurrences entity rows
      && List.for_all
           (fun mode ->
             let tpl = E.template ~mode spec in
             let enc = E.instantiate tpl spec in
             let ref_enc = E.instantiate ~rows:every tpl spec in
             let universes = tuple_level_universes entity in
             enc.E.n_rows = Array.length rows
             && same_encoding enc ref_enc
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun a u -> compare u (Crcore.Coding.universe enc.E.coding a) = 0)
                     universes)
             && scan_sigma_insts spec enc.E.coding = E.sigma_insts enc
             && (E.parts ~mode spec).E.p_sigma_fired
                = (E.parts ~mode ~rows:every spec).E.p_sigma_fired)
           [ E.Paper; E.Exact ])

(* Beyond 2^53 [float_of_int] rounds, but [Value.equal] stays exact:
   [Float 2^60] equals [Int 2^60] and not [Int (2^60 + 1)]. So each of
   the three numbers keeps a row of its own, tuple 3 repeats tuple 1,
   and the row encoding is the encoding of every tuple. *)
let test_big_numbers_keep_rows () =
  let schema = Schema.make [ "a"; "b" ] in
  let big = 1 lsl 60 in
  let row a b = Tuple.make schema [ a; Value.Str b ] in
  let entity =
    Entity.make schema
      [
        row (Value.Int (big + 1)) "p";
        row (Value.Float (float_of_int big)) "q";
        row (Value.Int big) "r";
        row (Value.Float (float_of_int big)) "q";
      ]
  in
  let sigma = [ Currency.Parser.parse_exn "prec(a) -> prec(b)" ] in
  let spec = Crcore.Spec.make entity ~orders:[] ~sigma ~gamma:[] in
  Alcotest.(check (list int)) "one row per distinct number" [ 0; 1; 2 ]
    (Array.to_list (Entity.distinct_rows entity));
  let tpl = E.template spec in
  Alcotest.(check bool) "the tuple-level encoding" true
    (same_encoding (E.instantiate tpl spec) (E.instantiate ~rows:[| 0; 1; 2; 3 |] tpl spec))

(* An appended record equal to an earlier one adds no row: the extension
   is a [Delta] with nothing to add to a live solver. *)
let test_extend_repeats_is_empty_delta () =
  let spec = Fixtures.edith_spec () in
  let base = E.encode spec in
  let t0 = Entity.tuple spec.Crcore.Spec.entity 0 and t2 = Entity.tuple spec.Crcore.Spec.entity 2 in
  (* t0's kids cell as the float twin of its int *)
  let t0' = Tuple.set t0 (Schema.index Fixtures.schema "kids") (Value.Float 0.) in
  let spec' = Crcore.Spec.extend spec ~tuples:[ t2; t0' ] ~orders:[] in
  match E.extend base spec' with
  | Some (E.Delta (enc, delta)) ->
      Alcotest.(check int) "no delta clause" 0 (List.length delta);
      Alcotest.(check int) "no new row" base.E.n_rows enc.E.n_rows;
      Alcotest.(check bool) "same Σ instances" true (E.sigma_insts enc = E.sigma_insts base)
  | Some (E.Renumbered _) -> Alcotest.fail "repeated records renumbered"
  | None -> Alcotest.fail "repeated records rejected"

(* Two deltas in a row over an entity that already repeats a record (4
   tuples, 3 rows): each appended record is a new row of known values
   with Σ instances of its own, and the second delta must take the first
   one's rows as old — the row count of the encoding it extends, not its
   tuple count nor the first base's. The result is a fresh encode's. *)
let test_extend_twice_equals_fresh () =
  let open Fixtures in
  let spec0 = edith_spec () in
  let spec = Crcore.Spec.extend spec0 ~tuples:[ Entity.tuple spec0.Crcore.Spec.entity 0 ] ~orders:[] in
  let r1 = tup [ "Edith Shain"; "retired"; "nurse"; "3"; "SFC"; "415"; "94924"; "Dogtown" ] in
  let r2 = tup [ "Edith Shain"; "deceased"; "nurse"; "null"; "LA"; "213"; "90058"; "Vermont" ] in
  List.iter
    (fun mode ->
      let delta enc spec =
        match E.extend enc spec with
        | Some (E.Delta (enc', clauses)) ->
            Alcotest.(check bool) "Σ delta" true (clauses <> []);
            enc'
        | _ -> Alcotest.fail "a record of known values must extend by a delta"
      in
      let base = E.encode ~mode spec in
      Alcotest.(check int) "base rows" 3 base.E.n_rows;
      let spec1 = Crcore.Spec.extend spec ~tuples:[ r1 ] ~orders:[] in
      let spec2 = Crcore.Spec.extend spec1 ~tuples:[ r2 ] ~orders:[] in
      let enc2 = delta (delta base spec1) spec2 in
      let fresh = E.encode ~mode spec2 in
      Alcotest.(check int) "rows" 5 enc2.E.n_rows;
      Alcotest.(check bool) "Σ instances" true (E.sigma_insts enc2 = E.sigma_insts fresh);
      Alcotest.(check bool) "same encoding up to clause order" true
        (let sorted (e : E.t) =
           let cnf = e.E.cnf in
           {
             e with
             E.cnf =
               Sat.Cnf.make ~blocks:cnf.Sat.Cnf.blocks ~nvars:cnf.Sat.Cnf.nvars
                 (List.sort compare (Sat.Cnf.clauses cnf));
           }
         in
         same_encoding (sorted enc2) (sorted fresh)))
    [ E.Paper; E.Exact ]

(* The per-attribute structural store: in Paper mode two entities whose
   size vectors differ only in the last attribute share every other
   attribute's clause arena, physically. Exact mode lists no structural
   clause: each attribute is one tournament block, equal across the two
   entities except for the last attribute's size. *)
let test_blocks_shared_per_attribute () =
  let schema = Schema.make [ "x"; "y"; "z" ] in
  let entity zs =
    Entity.make schema
      (List.mapi
         (fun i z ->
           Tuple.make schema [ Value.Str (if i = 0 then "a" else "b"); Value.Str "p"; Value.Str z ])
         zs)
  in
  let spec zs = Crcore.Spec.make (entity zs) ~orders:[] ~sigma:[] ~gamma:[] in
  List.iter
    (fun mode ->
      let s1 = spec [ "u"; "v" ] and s2 = spec [ "u"; "v"; "w" ] in
      let tpl = E.template ~mode s1 in
      let e1 = E.instantiate tpl s1 and e2 = E.instantiate tpl s2 in
      (match mode with
      | E.Paper ->
          let block d = (d * (d - 1) * (d - 2)) + (d * (d - 1) / 2) in
          (* z's universe: its values plus the reserved null *)
          (match (e1.E.structural, e2.E.structural) with
          | z1 :: rest1, z2 :: rest2 ->
              Alcotest.(check int) "z block, 3 values" (block 3) (Sat.Cnf.arena_length z1);
              Alcotest.(check int) "z block, 4 values" (block 4) (Sat.Cnf.arena_length z2);
              Alcotest.(check bool) "x and y blocks non-empty" true
                (rest1 <> [] && List.for_all (fun a -> Sat.Cnf.arena_length a > 0) rest1);
              Alcotest.(check int) "same length" (List.length rest1) (List.length rest2);
              Alcotest.(check bool) "x and y clause arenas shared" true
                (List.for_all2 ( == ) rest1 rest2)
          | _ -> Alcotest.fail "no structural arena")
      | E.Exact ->
          (* x: a, b, null (3 pairs); y: p, null (1 pair); z: its values
             plus null *)
          let blocks dz = List.map (fun (first, d) -> { Sat.Cnf.first; d }) [ (0, 3); (3, 2); (4, dz) ] in
          Alcotest.(check bool) "no structural clause" true
            (e1.E.structural = [] && e2.E.structural = [] && e2.E.n_structural = 0);
          Alcotest.(check bool) "block lists" true
            (e1.E.cnf.Sat.Cnf.blocks = blocks 3 && e2.E.cnf.Sat.Cnf.blocks = blocks 4);
          Alcotest.(check int) "expansion d(d-1)(d-2)/3 per block"
            (Sat.Cnf.nclauses e2.E.cnf + 2 + 0 + 8)
            (Sat.Cnf.nclauses (Sat.Cnf.expand e2.E.cnf)));
      Alcotest.(check bool) "same as a direct encode" true
        (same_encoding e2 (E.encode ~mode s2)))
    [ E.Paper; E.Exact ]

let () =
  Alcotest.run "encode"
    [
      ( "coding",
        [
          Alcotest.test_case "universes" `Quick test_coding_universes;
          Alcotest.test_case "var bijection" `Quick test_coding_bijection;
          Alcotest.test_case "foreign CFD constant" `Quick test_coding_foreign_constant;
          Alcotest.test_case "refine keys spread" `Quick test_refine_keys_spread;
        ] );
      ( "omega",
        [
          Alcotest.test_case "order units" `Quick test_units_from_orders;
          Alcotest.test_case "null lowest" `Quick test_null_lowest_units;
          Alcotest.test_case "premise-free instances" `Quick test_premise_free_instances_are_units;
          Alcotest.test_case "implication shape" `Quick test_implications_shape;
          Alcotest.test_case "cfd encoding" `Quick test_cfd_encoding;
          Alcotest.test_case "relevant_gamma" `Quick test_relevant_gamma;
          Alcotest.test_case "structural axiom counts" `Quick test_structural_axioms_counts;
          Alcotest.test_case "null extension stays delta" `Quick test_extend_null_is_delta;
          Alcotest.test_case "repeated records extend by an empty delta" `Quick
            test_extend_repeats_is_empty_delta;
          Alcotest.test_case "two deltas == fresh encode" `Quick test_extend_twice_equals_fresh;
          Alcotest.test_case "numbers beyond 2^53 keep their rows" `Quick test_big_numbers_keep_rows;
          Alcotest.test_case "fact/var round trip" `Quick test_var_fact_roundtrip;
          Alcotest.test_case "structural blocks shared per attribute" `Quick
            test_blocks_shared_per_attribute;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cnf_well_formed;
            prop_fact_table;
            prop_universe_is_adom;
            prop_exact_equals_paper_plus_totality;
            prop_template_instantiate_bit_identical;
            prop_lowering_matches_vid;
            prop_index_padding_invisible;
            prop_index_equals_scan;
            prop_sigma_order_is_compare;
            prop_rows_equal_tuple_level;
            prop_packed_equals_reference;
            prop_extend_packed_equals_reference;
          ] );
    ]

(* Shared fixtures: the paper's running example (Figs. 2 and 3) and a
   random-specification generator for the differential property tests. *)

let schema =
  Schema.make [ "name"; "status"; "job"; "kids"; "city"; "AC"; "zip"; "county" ]

let tup l = Tuple.make schema (List.map Value.of_string l)

let edith_entity =
  Entity.make schema
    [
      tup [ "Edith Shain"; "working"; "nurse"; "0"; "NY"; "212"; "10036"; "Manhattan" ];
      tup [ "Edith Shain"; "retired"; "n/a"; "3"; "SFC"; "415"; "94924"; "Dogtown" ];
      tup [ "Edith Shain"; "deceased"; "n/a"; "null"; "LA"; "213"; "90058"; "Vermont" ];
    ]

let george_entity =
  Entity.make schema
    [
      tup [ "George"; "working"; "sailor"; "0"; "Newport"; "401"; "02840"; "Rhode Island" ];
      tup [ "George"; "retired"; "veteran"; "2"; "NY"; "212"; "12404"; "Accord" ];
      tup [ "George"; "unemployed"; "n/a"; "2"; "Chicago"; "312"; "60653"; "Bronzeville" ];
    ]

let sigma =
  List.map Currency.Parser.parse_exn
    [
      {|t1[status] = "working" & t2[status] = "retired" -> prec(status)|};
      {|t1[status] = "retired" & t2[status] = "deceased" -> prec(status)|};
      {|t1[job] = "sailor" & t2[job] = "veteran" -> prec(job)|};
      {|t1[kids] < t2[kids] -> prec(kids)|};
      {|prec(status) -> prec(job)|};
      {|prec(status) -> prec(AC)|};
      {|prec(status) -> prec(zip)|};
      {|prec(city) & prec(zip) -> prec(county)|};
    ]

let gamma =
  List.map Cfd.Constant_cfd.parse_exn
    [ {|AC = 213 -> city = "LA"|}; {|AC = 212 -> city = "NY"|} ]

let edith_spec () = Crcore.Spec.make edith_entity ~orders:[] ~sigma ~gamma
let george_spec () = Crcore.Spec.make george_entity ~orders:[] ~sigma ~gamma

let edith_truth =
  tup [ "Edith Shain"; "deceased"; "n/a"; "3"; "LA"; "213"; "90058"; "Vermont" ]

let george_truth = tup [ "George"; "retired"; "veteran"; "2"; "NY"; "212"; "12404"; "Accord" ]

(* ---- random small specifications for differential testing ---- *)

let small_schema = Schema.make [ "a"; "b"; "c" ]

let pool attr = List.map (fun i -> Value.Str (Printf.sprintf "%s%d" attr i)) [ 0; 1; 2 ]

(* A random specification over 3 string attributes with 3-value pools:
   random tuples, random (possibly inconsistent) order edges, random
   currency constraints and CFDs drawn from the pools. Small enough for
   the exhaustive reference semantics. *)
let random_spec st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let attrs = Schema.attr_names small_schema in
  let n_tuples = 2 + Random.State.int st 2 in
  let tuples =
    List.init n_tuples (fun _ ->
        Tuple.make small_schema (List.map (fun a -> pick (pool a)) attrs))
  in
  let entity = Entity.make small_schema tuples in
  let orders =
    List.init (Random.State.int st 3) (fun _ ->
        {
          Crcore.Spec.attr = pick attrs;
          lo = Random.State.int st n_tuples;
          hi = Random.State.int st n_tuples;
        })
    |> List.filter (fun e -> e.Crcore.Spec.lo <> e.Crcore.Spec.hi)
  in
  let random_constraint () =
    let concl = pick attrs in
    let n_preds = Random.State.int st 3 in
    let premise =
      List.init n_preds (fun _ ->
          let a = pick attrs in
          match Random.State.int st 3 with
          | 0 -> Currency.Constraint_ast.Prec a
          | 1 ->
              Currency.Constraint_ast.Cmp_const
                ( (if Random.State.bool st then Currency.Constraint_ast.T1
                   else Currency.Constraint_ast.T2),
                  a,
                  (if Random.State.bool st then Value.Eq else Value.Neq),
                  pick (pool a) )
          | _ -> Currency.Constraint_ast.Cmp2 (a, if Random.State.bool st then Value.Lt else Value.Neq))
    in
    Currency.Constraint_ast.make premise concl
  in
  let sigma = List.init (Random.State.int st 4) (fun _ -> random_constraint ()) in
  let random_cfd () =
    let rec distinct () =
      let x = pick attrs and y = pick attrs in
      if x = y then distinct () else (x, y)
    in
    let x, y = distinct () in
    Cfd.Constant_cfd.make [ (x, pick (pool x)) ] (y, pick (pool y))
  in
  let gamma = List.init (Random.State.int st 3) (fun _ -> random_cfd ()) in
  Crcore.Spec.make entity ~orders ~sigma ~gamma

let qcheck_spec =
  QCheck.make
    ~print:(fun spec -> Format.asprintf "%a" Crcore.Spec.pp spec)
    QCheck.Gen.(int_bound 1_000_000 >|= fun seed -> random_spec (Random.State.make [| seed |]))

(* ---- the reference the engine is tested against ---- *)

(* A user who answers with the true tuple the enumerator finds, or never
   answers when it finds none. A pure closure: safe on any domain. *)
let reference_user spec =
  match Crcore.Reference.analyze spec with
  | Some { Crcore.Reference.valid = true; true_tuple = Some t; _ } ->
      Crcore.Framework.oracle (Tuple.of_array (Crcore.Spec.schema spec) t)
  | _ -> Crcore.Framework.silent

(* An engine result answers as a Framework.resolve outcome: the same
   resolved values, validity, rounds and per-round counts. *)
let same_answer (o : Crcore.Framework.outcome) (r : Crcore.Engine.result) =
  o.Crcore.Framework.resolved = r.Crcore.Engine.resolved
  && o.Crcore.Framework.valid = r.Crcore.Engine.valid
  && o.Crcore.Framework.rounds = r.Crcore.Engine.rounds
  && o.Crcore.Framework.per_round_known = r.Crcore.Engine.per_round_known

(* Every item of a batch answers as Framework.resolve on that item; a
   captured error never does. *)
let batch_matches_framework (items : Crcore.Engine.item list)
    (results : Crcore.Engine.item_result list) =
  List.length items = List.length results
  && List.for_all2
       (fun (it : Crcore.Engine.item) (ir : Crcore.Engine.item_result) ->
         match ir.Crcore.Engine.outcome with
         | Ok r ->
             same_answer
               (Crcore.Framework.resolve ~user:it.Crcore.Engine.user it.Crcore.Engine.spec)
               r
         | Error _ -> false)
       items results

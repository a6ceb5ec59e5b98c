type strategy = Random | Favoured | Max | Min | First | Last_update_wins | Accept_local

let strategy_to_string = function
  | Random -> "random"
  | Favoured -> "favoured"
  | Max -> "max"
  | Min -> "min"
  | First -> "first"
  | Last_update_wins -> "last_update_wins"
  | Accept_local -> "accept_local"

let strategy_of_string = function
  | "random" -> Some Random
  | "favoured" -> Some Favoured
  | "max" -> Some Max
  | "min" -> Some Min
  | "first" -> Some First
  | "last_update_wins" | "lww" -> Some Last_update_wins
  | "accept_local" | "local" -> Some Accept_local
  | _ -> None

let comparison_only (c : Currency.Constraint_ast.t) =
  List.for_all
    (function Currency.Constraint_ast.Prec _ -> false | _ -> true)
    c.Currency.Constraint_ast.premise

(* value-level facts derivable from comparison-only constraints alone *)
let favoured_order spec =
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  let coding = Coding.build entity in
  let orders =
    Array.init (Schema.arity schema) (fun a ->
        Porder.Strict_order.create (Array.length (Coding.universe coding a)))
  in
  (* null-lowest, matching the encoding's unit clauses: neither a genuine
     nor a reserved null (see {!Coding.build}) can be favoured while the
     attribute has any other value *)
  for a = 0 to Schema.arity schema - 1 do
    let univ = Coding.universe coding a in
    Array.iteri
      (fun i v ->
        if Value.is_null v then
          Array.iteri
            (fun j w ->
              if j <> i && not (Value.is_null w) then
                ignore (Porder.Strict_order.add orders.(a) i j))
            univ)
      univ
  done;
  let tuples = Entity.tuples entity in
  List.iter
    (fun c ->
      if comparison_only c then
        List.iter
          (fun s1 ->
            List.iter
              (fun s2 ->
                if not (s1 == s2) then
                  match Currency.Constraint_ast.instantiate c s1 s2 with
                  | Some { Currency.Constraint_ast.prec_premises = []; conclusion = (name, v1, v2) } ->
                      let a = Schema.index schema name in
                      ignore
                        (Porder.Strict_order.add orders.(a) (Coding.vid coding a v1)
                           (Coding.vid coding a v2))
                  | _ -> ())
              tuples)
          tuples)
    spec.Spec.sigma;
  (coding, orders)

let run ?(seed = 17) ?(strategy = Favoured) spec =
  let rng = Random.State.make [| seed |] in
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  let arity = Schema.arity schema in
  match strategy with
  | Favoured ->
      let coding, orders = favoured_order spec in
      Array.init arity (fun a ->
          let maximal = Porder.Strict_order.maximal orders.(a) in
          (* restrict to values that actually occur *)
          let nadom = Coding.adom_size coding a in
          let occurring = List.filter (fun v -> v < nadom) maximal in
          (* the reserved null is part of the adom prefix but never a
             sensible pick: fall back to it only when nothing else exists *)
          let non_null =
            List.filter (fun v -> not (Value.is_null (Coding.value coding a v)))
          in
          let pool =
            match non_null occurring with
            | [] -> (
                match non_null (List.init nadom Fun.id) with
                | [] -> List.init nadom Fun.id
                | l -> l)
            | l -> l
          in
          Coding.value coding a (List.nth pool (Random.State.int rng (List.length pool))))
  | Random ->
      Array.init arity (fun a ->
          let adom = Entity.active_domain entity a in
          List.nth adom (Random.State.int rng (List.length adom)))
  | Max ->
      Array.init arity (fun a ->
          List.fold_left
            (fun acc v -> if Value.total_compare v acc > 0 then v else acc)
            Value.Null
            (Entity.active_domain entity a))
  | Min ->
      Array.init arity (fun a ->
          match Entity.active_domain entity a with
          | [] -> Value.Null
          | v :: rest ->
              List.fold_left (fun acc w -> if Value.total_compare w acc < 0 then w else acc) v rest)
  | First -> Array.init arity (fun a -> Entity.value entity 0 a)
  | Last_update_wins ->
      (* tuple order is arrival order: per attribute, the newest non-null
         occurrence wins (falling back to null when the column is empty) *)
      let newest_first = List.rev (Entity.tuples entity) in
      Array.init arity (fun a ->
          match
            List.find_opt (fun t -> not (Value.is_null (Tuple.get t a))) newest_first
          with
          | Some t -> Tuple.get t a
          | None -> Value.Null)
  | Accept_local ->
      (* the first-arrived (local) tuple wins; nulls fall through to the
         next arrival, as a replica would fill columns it never wrote *)
      let oldest_first = Entity.tuples entity in
      Array.init arity (fun a ->
          match
            List.find_opt (fun t -> not (Value.is_null (Tuple.get t a))) oldest_first
          with
          | Some t -> Tuple.get t a
          | None -> Value.Null)

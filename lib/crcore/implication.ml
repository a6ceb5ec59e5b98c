type vfact = { attr : string; lo : Value.t; hi : Value.t }

type answer = Implied | Not_implied | Invalid_spec | Unknown_value

let pp_answer ppf a =
  Format.pp_print_string ppf
    (match a with
    | Implied -> "implied"
    | Not_implied -> "not implied"
    | Invalid_spec -> "invalid specification"
    | Unknown_value -> "unknown value")

let holds_enc enc solver f =
  let coding = enc.Encode.coding in
  let schema = Coding.schema coding in
  match Schema.index_opt schema f.attr with
  | None -> Unknown_value
  | Some a -> (
      match (Coding.vid_opt coding a f.lo, Coding.vid_opt coding a f.hi) with
      | Some lo, Some hi when lo <> hi -> (
          let x = Coding.lit_of coding ~attr:a lo hi in
          match Sat.Solver.solve ~assumptions:[ Sat.Lit.negate x ] solver with
          | Sat.Solver.Unsat ->
              (* ¬x contradicts Φ; distinguish "implied" from "Φ unsat" *)
              if Sat.Solver.ok solver then Implied else Invalid_spec
          | Sat.Solver.Sat -> Not_implied)
      | Some _, Some _ -> Not_implied (* v ≺ v never holds *)
      | _ -> Unknown_value)

let solver_of enc =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s enc.Encode.cnf;
  s

let holds ?mode spec f =
  let enc = Encode.encode ?mode spec in
  let s = solver_of enc in
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> Invalid_spec
  | Sat.Solver.Sat -> holds_enc enc s f

let implied_order ?mode spec facts =
  let enc = Encode.encode ?mode spec in
  let s = solver_of enc in
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> Invalid_spec
  | Sat.Solver.Sat ->
      let rec go = function
        | [] -> Implied
        | f :: rest -> (
            match holds_enc enc s f with Implied -> go rest | other -> other)
      in
      go facts

let order_edges_facts spec edges =
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  List.filter_map
    (fun { Spec.attr; lo; hi } ->
      let a = Schema.index schema attr in
      let v1 = Entity.value entity lo a and v2 = Entity.value entity hi a in
      if Value.equal v1 v2 then None else Some { attr; lo = v1; hi = v2 })
    edges

type rule = { x : (int * int) list; b : int; bval : int }

type suggestion = {
  attrs : int list;
  candidates : (int * Value.t list) list;
  derivable : int list;
  clique_size : int;
  repaired_clique_size : int;
  clique_optimal : bool;
  repair_optimal : bool;
}

type repair = Exact_maxsat | Walksat

(* ---- TrueDer ---- *)

let known_vid coding known a =
  match known.(a) with None -> None | Some v -> Coding.vid_opt coding a v

(* A premise fact (a, lo, hi) supports a rule when assuming [hi] as the
   true value of [a] makes the fact hold: [lo] must be an active-domain
   value (so it is dominated by the maximum) and [hi] must still be a
   plausible true value of [a]. *)
let fact_usable coding candidates known (f : Encode.fact) =
  f.Encode.lo < Coding.adom_size coding f.Encode.attr
  &&
  match known_vid coding known f.Encode.attr with
  | Some v -> v = f.Encode.hi
  | None -> List.mem f.Encode.hi candidates.(f.Encode.attr)

(* only CFDs relevant to the entity can yield a rule: the constant index
   finds them, and their LHS ids come with them *)
let rules_from_cfds d ~known candidates =
  let enc = d.Deduce.enc in
  let coding = enc.Encode.coding in
  List.filter_map
    (fun ((c : Encode.cgamma), lhs) ->
      let b, bval = c.Encode.g_rhs in
      if known.(b) <> None then None
      else
        match Coding.const_id coding b bval with
        | None -> None
        | Some bid when not (List.mem bid candidates.(b)) -> None
        | Some bid ->
            let rec build acc = function
              | [] -> Some { x = List.sort compare acc; b; bval = bid }
              | (a, vid) :: rest -> (
                  match known_vid coding known a with
                  | Some w -> if w = vid then build acc rest else None
                  | None ->
                      if List.mem vid candidates.(a) then build ((a, vid) :: acc) rest
                      else None)
            in
            build [] lhs)
    (Encode.relevant_cfds enc.Encode.gamma_c coding)

let rules_from_constraints d ~known candidates =
  let enc = d.Deduce.enc in
  let coding = enc.Encode.coding in
  let arity = Schema.arity (Coding.schema coding) in
  (* pool: (B, lo, hi) -> instance constraints with that conclusion *)
  let pool = Hashtbl.create 256 in
  List.iter
    (fun (ic : Encode.iconstraint) ->
      match ic.Encode.source with
      | Encode.From_constraint _ ->
          let f = ic.Encode.concl in
          let key = (f.Encode.attr, f.Encode.lo, f.Encode.hi) in
          Hashtbl.add pool key ic
      | _ -> ())
    (Encode.implications enc);
  let rules = ref [] in
  for b = 0 to arity - 1 do
    if known.(b) = None then
      List.iter
        (fun bid ->
          (* cover U(B,b): every other candidate must be derivably below *)
          let uncovered = List.filter (fun v -> v <> bid) candidates.(b) in
          let assignments = Hashtbl.create 8 in
          let compatible (f : Encode.fact) =
            fact_usable coding candidates known f
            && (f.Encode.attr <> b || f.Encode.hi = bid)
            &&
            match Hashtbl.find_opt assignments f.Encode.attr with
            | Some w -> w = f.Encode.hi
            | None -> true
          in
          let commit (f : Encode.fact) =
            if f.Encode.attr <> b then Hashtbl.replace assignments f.Encode.attr f.Encode.hi
          in
          let cover bi =
            (* already below b in Od counts as covered *)
            Deduce.lt d ~attr:b bi bid
            ||
            let phis = Hashtbl.find_all pool (b, bi, bid) in
            match
              List.find_opt (fun ic -> List.for_all compatible ic.Encode.premise) phis
            with
            | Some ic ->
                List.iter commit ic.Encode.premise;
                true
            | None -> false
          in
          if List.for_all cover uncovered then begin
            let x =
              Hashtbl.fold (fun a v acc -> (a, v) :: acc) assignments []
              |> List.sort compare
            in
            rules := { x; b; bval = bid } :: !rules
          end)
        candidates.(b)
  done;
  List.rev !rules

let derive_rules d ~known =
  let coding = d.Deduce.enc.Encode.coding in
  let arity = Schema.arity (Coding.schema coding) in
  let candidates = Array.init arity (fun a -> Deduce.candidates d a) in
  let all = rules_from_cfds d ~known candidates @ rules_from_constraints d ~known candidates in
  (* drop premise-free duplicates and exact duplicates *)
  List.sort_uniq compare all

(* ---- CompGraph ---- *)

let rule_map r = List.sort compare ((r.b, r.bval) :: r.x)

let maps_agree m1 m2 =
  (* both sorted by attribute *)
  let rec go l1 l2 =
    match (l1, l2) with
    | [], _ | _, [] -> true
    | (a1, v1) :: r1, (a2, v2) :: r2 ->
        if a1 < a2 then go r1 l2
        else if a2 < a1 then go l1 r2
        else v1 = v2 && go r1 r2
  in
  go m1 m2

let compatibility_graph rules =
  let arr = Array.of_list rules in
  let n = Array.length arr in
  let maps = Array.map rule_map arr in
  let g = Clique.Ugraph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if arr.(i).b <> arr.(j).b && maps_agree maps.(i) maps.(j) then
        Clique.Ugraph.add_edge g i j
    done
  done;
  g

(* ---- GetSug ---- *)

(* The clique embeds assumed true values; a node's assumption group is the
   set of unit clauses saying its values dominate their active domains. *)
let node_group coding (r : rule) =
  List.concat_map
    (fun (a, v) ->
      List.filter_map
        (fun u ->
          if u <> v then
            Some [| Coding.lit_of coding ~attr:a u v |]
          else None)
        (List.init (Coding.adom_size coding a) Fun.id))
    ((r.b, r.bval) :: r.x)

(* Returns the indices (into [clique_rules]) of the nodes kept after
   conflict repair: all of them when the embedded values are jointly
   consistent with Φ(Se), otherwise a maximum consistent subset found by
   group MaxSAT (or WalkSAT local search). *)
let repair_clique ?solver repair enc clique_rules =
  let coding = enc.Encode.coding in
  let groups = List.map (node_group coding) clique_rules in
  let s =
    (* an incremental session solver already holding Φ(Se) skips the
       clause reload; assumption solving leaves it reusable afterwards *)
    match solver with
    | Some s -> s
    | None ->
        let s = Sat.Solver.create () in
        Sat.Solver.add_cnf s enc.Encode.cnf;
        s
  in
  let assumptions = List.map (fun c -> c.(0)) (List.concat groups) in
  if clique_rules = [] then ([], true)
  else
    match Sat.Solver.solve_limited ~assumptions s with
    | Sat.Solver.Limited.Sat -> (List.mapi (fun i _ -> i) clique_rules, true)
    | Sat.Solver.Limited.Unknown ->
        (* conflict budget spent before the consistency of the embedded
           values could be confirmed: keep nothing rather than guess — the
           engine's ladder then stops the interaction round anyway *)
        ([], false)
    | Sat.Solver.Limited.Unsat -> (
        match repair with
        | Exact_maxsat -> (
            (* layer the relaxation/totalizer onto [s] itself — the
               session when one was passed, the local solver otherwise:
               no CNF reload, the added clauses are satisfiable
               extensions (the session stays sound for later
               validity/deduce solves), and the lex-first kept subset is
               deterministic whichever solver served the call *)
            match Maxsat.Exact.solve_groups_on ~solver:s ~groups with
            | Some (kept, optimal) -> (kept, optimal)
            | None -> ([], true))
        | Walksat -> (
            match Maxsat.Walksat.solve ~hard:enc.Encode.cnf ~soft:(List.concat groups) () with
            | None -> ([], false)
            | Some { Maxsat.Walksat.model; _ } ->
                ( List.mapi (fun i g -> (i, g)) groups
                  |> List.filter (fun (_, g) ->
                         List.for_all (fun c -> Sat.Cnf.eval_clause model c) g)
                  |> List.map fst,
                  (* local search: no optimality certificate *)
                  false )))

let suggest ?(repair = Exact_maxsat) ?(clique_threshold = 400) ?solver d ~known =
  let enc = d.Deduce.enc in
  let coding = enc.Encode.coding in
  let arity = Schema.arity (Coding.schema coding) in
  let rules = derive_rules d ~known in
  let g = compatibility_graph rules in
  let clique_r = Clique.Maxclique.find_r ~exact_threshold:clique_threshold g in
  let clique_ids = clique_r.Clique.Maxclique.clique in
  let arr = Array.of_list rules in
  let clique_rules = List.map (fun i -> arr.(i)) clique_ids in
  let kept, repair_optimal = repair_clique ?solver repair enc clique_rules in
  let kept_rules = List.map (fun i -> List.nth clique_rules i) kept in
  let derivable = List.sort_uniq compare (List.map (fun r -> r.b) kept_rules) in
  let unknown =
    List.filter (fun a -> known.(a) = None) (List.init arity Fun.id)
  in
  let asked =
    match List.filter (fun a -> not (List.mem a derivable)) unknown with
    | [] -> unknown (* degenerate: fall back to asking everything unknown *)
    | l -> l
  in
  let cand_values a =
    List.map (Coding.value coding a) (Deduce.candidates d a)
  in
  {
    attrs = asked;
    candidates = List.map (fun a -> (a, cand_values a)) asked;
    derivable;
    clique_size = List.length clique_rules;
    repaired_clique_size = List.length kept_rules;
    clique_optimal = clique_r.Clique.Maxclique.optimal;
    repair_optimal;
  }

let pp_rule d ppf r =
  let coding = d.Deduce.enc.Encode.coding in
  let schema = Coding.schema coding in
  let pp_bind ppf (a, v) =
    Format.fprintf ppf "%s = %a" (Schema.name schema a) Value.pp (Coding.value coding a v)
  in
  Format.fprintf ppf "(%a) -> %a"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_bind)
    r.x pp_bind (r.b, r.bval)

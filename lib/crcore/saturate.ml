(* Static currency deduction by saturation (see saturate.mli for the
   soundness/completeness argument). Every rule is the unit-propagation
   reflection of a clause family of Φ(Se), so the closure is pointwise a
   subset of the positive backbone; in Paper mode with no refutation the
   closure-as-assignment is itself a model, making the closure exactly
   the backbone. *)

type fact = Encode.fact = { attr : int; lo : int; hi : int }

type rule =
  | Axiom of Encode.source
  | Implication of Encode.source
  | Trans
  | Total of int
  | Assumed

type step = { fact : fact; rule : rule; premises : int list }

type refutation =
  | Cycle of { attr : int; lo : int; hi : int; s1 : int; s2 : int }
  | Veto of { gamma : int; steps : int list }

type t = {
  t_mode : Encode.mode;
  t_coding : Coding.t;
  steps : step array;  (** derivation log; premises index earlier steps *)
  index : (fact, int) Hashtbl.t;
  t_cyclic : bool array;
  t_fired : (Encode.source * int list) list;
  t_refutation : refutation option;
  t_complete : bool;
}

(* ---- template firing plan ----

   A dependency-stratified order over Σ: constraints concluding an
   attribute fire before constraints whose premises mention it, so most
   implications see their premises already derived on first contact.
   Purely a work-order heuristic — the fixpoint is order-independent —
   and a pure function of the Σ ASTs, memoised per physical Σ list and
   so shared across every entity of a batch holding the same template. *)

let compute_plan sigma =
  let arr = Array.of_list sigma in
  let n = Array.length arr in
  let concl k = arr.(k).Currency.Constraint_ast.concl in
  let prems k =
    List.filter_map
      (function Currency.Constraint_ast.Prec a -> Some a | _ -> None)
      arr.(k).Currency.Constraint_ast.premise
  in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  for k1 = 0 to n - 1 do
    for k2 = 0 to n - 1 do
      if k1 <> k2 && List.mem (concl k1) (prems k2) then begin
        succs.(k1) <- k2 :: succs.(k1);
        indeg.(k2) <- indeg.(k2) + 1
      end
    done
  done;
  let rank = Array.make n (-1) in
  let placed = ref 0 in
  while !placed < n do
    (* lowest-index ready constraint; on a dependency cycle, the
       lowest-index unplaced one — deterministic either way *)
    let pick = ref (-1) in
    for k = n - 1 downto 0 do
      if rank.(k) < 0 && indeg.(k) = 0 then pick := k
    done;
    if !pick < 0 then
      for k = n - 1 downto 0 do
        if rank.(k) < 0 then pick := k
      done;
    let k = !pick in
    rank.(k) <- !placed;
    incr placed;
    indeg.(k) <- min_int;
    List.iter
      (fun k2 -> if rank.(k2) >= 0 then () else indeg.(k2) <- indeg.(k2) - 1)
      succs.(k)
  done;
  rank

let plan_memo : (Currency.Constraint_ast.t list * int array) option ref Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> ref None)

let plan_hits : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let plan_misses : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let plan_for sigma =
  let slot = Domain.DLS.get plan_memo in
  match !slot with
  | Some (src, plan) when src == sigma ->
      incr (Domain.DLS.get plan_hits);
      plan
  | _ ->
      let plan = compute_plan sigma in
      incr (Domain.DLS.get plan_misses);
      slot := Some (sigma, plan);
      plan

let template_stats () =
  (!(Domain.DLS.get plan_hits), !(Domain.DLS.get plan_misses))

(* ---- the fixpoint ---- *)

(* Per-domain scratch for the tables that never escape a [saturate] call
   (the fact index does — it is part of the result — so it stays fresh).
   [Hashtbl.clear] keeps the grown bucket arrays, so a session re-chasing
   after every delta extension stops paying the table setup each time. *)
type scratch = {
  sc_succ : (int * int, (int * int) list ref) Hashtbl.t;
  sc_pred : (int * int, (int * int) list ref) Hashtbl.t;
  sc_watch : (fact, (int * int) list ref) Hashtbl.t;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sc_succ = Hashtbl.create 64;
        sc_pred = Hashtbl.create 64;
        sc_watch = Hashtbl.create 256;
      })

let saturate ~mode ?plan ~certain ~assume (parts : Encode.parts) =
  let coding = parts.Encode.p_coding in
  let arity = Schema.arity (Coding.schema coding) in
  let index = Hashtbl.create 256 in
  let steps = ref [] and n_steps = ref 0 in
  let cyclic = Array.make arity false in
  let refut = ref None in
  let queue = Queue.create () in
  (* closure facts sharing an endpoint, with their step ids: the
     semi-naive transitive join registers each fact once and joins each
     pair of chainable facts exactly once (when the later of the two is
     processed against the earlier's registration) *)
  let sc = Domain.DLS.get scratch_key in
  let succ = sc.sc_succ and pred = sc.sc_pred in
  Hashtbl.clear succ;
  Hashtbl.clear pred;
  let adj tbl key =
    match Hashtbl.find_opt tbl key with Some l -> !l | None -> []
  in
  let adj_add tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add tbl key (ref [ v ])
  in
  let imps = Array.of_list parts.Encode.p_implications in
  let imps =
    match plan with
    | None -> imps
    | Some rank ->
        let n_sigma = Array.length rank in
        let r (ic : Encode.iconstraint) =
          match ic.Encode.source with
          | Encode.From_constraint k when k < n_sigma -> rank.(k)
          | Encode.From_constraint _ | Encode.From_order -> n_sigma
          | Encode.From_cfd k -> n_sigma + 1 + k
        in
        let tagged = Array.map (fun ic -> (r ic, ic)) imps in
        Array.stable_sort (fun (a, _) (b, _) -> compare a b) tagged;
        Array.map snd tagged
  in
  (* watched premises: countdown of underived premises per implication,
     with the step id of each derived premise recorded for certificates *)
  let counts = Array.map (fun ic -> List.length ic.Encode.premise) imps in
  let prem_steps =
    Array.map (fun ic -> Array.make (List.length ic.Encode.premise) (-1)) imps
  in
  let watch = sc.sc_watch in
  Hashtbl.clear watch;
  Array.iteri
    (fun i ic ->
      List.iteri (fun slot f -> adj_add watch f (i, slot)) ic.Encode.premise)
    imps;
  let add_fact fact rule premises =
    if fact.lo <> fact.hi && not (Hashtbl.mem index fact) then begin
      let id = !n_steps in
      incr n_steps;
      steps := { fact; rule; premises } :: !steps;
      Hashtbl.add index fact id;
      (match Hashtbl.find_opt index { fact with lo = fact.hi; hi = fact.lo } with
      | Some rid ->
          cyclic.(fact.attr) <- true;
          if !refut = None then
            refut :=
              Some
                (Cycle { attr = fact.attr; lo = fact.lo; hi = fact.hi; s1 = rid; s2 = id })
      | None -> ());
      Queue.add (id, fact) queue
    end
  in
  let process (id, f) =
    let attr = f.attr in
    List.iter
      (fun (x, sx) -> add_fact { attr; lo = f.lo; hi = x } Trans [ id; sx ])
      (adj succ (attr, f.hi));
    List.iter
      (fun (w, sw) -> add_fact { attr; lo = w; hi = f.hi } Trans [ sw; id ])
      (adj pred (attr, f.lo));
    adj_add succ (attr, f.lo) (f.hi, id);
    adj_add pred (attr, f.hi) (f.lo, id);
    List.iter
      (fun (i, slot) ->
        if prem_steps.(i).(slot) < 0 then begin
          prem_steps.(i).(slot) <- id;
          counts.(i) <- counts.(i) - 1;
          if counts.(i) = 0 then
            add_fact imps.(i).Encode.concl
              (Implication imps.(i).Encode.source)
              (Array.to_list prem_steps.(i))
        end)
      (adj watch f)
  in
  let drain () =
    while not (Queue.is_empty queue) do
      process (Queue.pop queue)
    done
  in
  List.iter (fun f -> add_fact f Assumed []) assume;
  List.iter (fun (f, src) -> add_fact f (Axiom src) []) parts.Encode.p_units;
  drain ();
  (if mode = Encode.Exact then begin
     (* Γ's veto ¬f meets Exact-mode totality f ∨ rev f (the coding's
        rev f is the literal ¬f): rev f is certain. Only singleton
        vetoes admit this; skip premises already derived (that veto is
        a refutation, reported below, and deriving the reverse would
        bury it under a cycle). Totality facts can
        enable further derivations, so loop to a joint fixpoint. *)
     let applied = Array.make (List.length parts.Encode.p_vetoes) false in
     let progress = ref true in
     while !progress do
       progress := false;
       List.iteri
         (fun vi (premise, src) ->
           match (premise, src) with
           | [ f0 ], Encode.From_cfd g
             when (not applied.(vi)) && not (Hashtbl.mem index f0) ->
               applied.(vi) <- true;
               add_fact { attr = f0.attr; lo = f0.hi; hi = f0.lo } (Total g) [];
               progress := true
           | _ -> ())
         parts.Encode.p_vetoes;
       drain ()
     done
   end);
  let fired = ref [] in
  List.iter
    (fun (premise, src) ->
      match
        List.fold_left
          (fun acc f ->
            match (acc, Hashtbl.find_opt index f) with
            | Some ids, Some id -> Some (id :: ids)
            | _ -> None)
          (Some []) premise
      with
      | Some ids -> fired := (src, List.rev ids) :: !fired
      | None -> ())
    parts.Encode.p_vetoes;
  (if !refut = None then
     match !fired with
     | (Encode.From_cfd g, ids) :: _ -> refut := Some (Veto { gamma = g; steps = ids })
     | ((Encode.From_order | Encode.From_constraint _), _) :: _ | [] ->
         (* vetoes only arise from Γ in the current encoding *)
         ());
  {
    t_mode = mode;
    t_coding = coding;
    steps = Array.of_list (List.rev !steps);
    index;
    t_cyclic = cyclic;
    t_fired = !fired;
    t_refutation = !refut;
    t_complete = certain && mode = Encode.Paper && !refut = None;
  }

let of_parts ~mode ?plan parts = saturate ~mode ?plan ~certain:true ~assume:[] parts

let of_encode (enc : Encode.t) =
  let plan = plan_for enc.Encode.spec.Spec.sigma in
  saturate ~mode:enc.Encode.mode ~plan ~certain:true ~assume:[]
    (Encode.parts_of_t enc)

let of_spec ?(mode = Encode.Paper) spec =
  let plan = plan_for spec.Spec.sigma in
  saturate ~mode ~plan ~certain:true ~assume:[] (Encode.parts ~mode spec)

let mode t = t.t_mode
let coding t = t.t_coding
let mem t f = Hashtbl.mem t.index f
let facts t = Array.to_list (Array.map (fun s -> s.fact) t.steps)
let n_facts t = Array.length t.steps

let fact_vars t =
  List.map (fun f -> Coding.lit_of t.t_coding ~attr:f.attr f.lo f.hi) (facts t)

let unit_lits = fact_vars
let complete t = t.t_complete
let refutation t = t.t_refutation
let cyclic_attrs t = t.t_cyclic
let fired_vetoes t = t.t_fired

(* ---- hypothetical closures ---- *)

let closure_filtered ~mode ?(drop_unit = fun _ _ -> false)
    ?(drop_source = fun _ -> false) ?(assume = []) (parts : Encode.parts) =
  let parts =
    {
      parts with
      Encode.p_units =
        List.filter
          (fun (f, s) -> not (drop_source s || drop_unit f s))
          parts.Encode.p_units;
      p_implications =
        List.filter
          (fun (ic : Encode.iconstraint) -> not (drop_source ic.Encode.source))
          parts.Encode.p_implications;
      p_vetoes =
        List.filter (fun (_, s) -> not (drop_source s)) parts.Encode.p_vetoes;
    }
  in
  saturate ~mode ~certain:false ~assume parts

let derives ~mode ?drop_unit ?drop_source ?assume parts concl =
  mem (closure_filtered ~mode ?drop_unit ?drop_source ?assume parts) concl

(* ---- certificates ---- *)

type goal = Derived of fact | Cycle_goal of fact | Veto_goal of int
type cert = { cmode : Encode.mode; goal : goal; chain : step list }

let chain_of t roots goal =
  let mark = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem mark id) then begin
      Hashtbl.add mark id ();
      List.iter visit t.steps.(id).premises
    end
  in
  List.iter visit roots;
  (* premises always point at earlier steps, so sorting ancestors by
     original id is a topological order and the compact renumbering
     keeps every premise index strictly below its step's position *)
  let ids = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) mark []) in
  let renum = Hashtbl.create 64 in
  List.iteri (fun pos id -> Hashtbl.add renum id pos) ids;
  let chain =
    List.map
      (fun id ->
        let s = t.steps.(id) in
        { s with premises = List.map (Hashtbl.find renum) s.premises })
      ids
  in
  if List.exists (fun s -> s.rule = Assumed) chain then None
  else Some { cmode = t.t_mode; goal; chain }

let certificate t f =
  match Hashtbl.find_opt t.index f with
  | None -> None
  | Some id -> chain_of t [ id ] (Derived f)

let refutation_certificate t =
  match t.t_refutation with
  | None -> None
  | Some (Cycle { attr; lo; hi; s1; s2 }) ->
      chain_of t [ s1; s2 ] (Cycle_goal { attr; lo; hi })
  | Some (Veto { gamma; steps }) -> chain_of t steps (Veto_goal gamma)

(* ---- the independent verifier ----

   Checks a certificate against the raw specification alone: constraints
   are re-instantiated through [Currency.Constraint_ast.instantiate] (not
   the compiled forms), CFD premises rebuilt from the active domains, and
   nothing of the saturation state is consulted. *)

exception Bad of string

let verify spec (cert : cert) =
  let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let entity = spec.Spec.entity in
  let schema = Spec.schema spec in
  let coding = Coding.build entity in
  let arity = Schema.arity schema in
  let chain = Array.of_list cert.chain in
  let n = Array.length chain in
  let univ a = Coding.universe coding a in
  let wf f =
    f.attr >= 0
    && f.attr < arity
    && f.lo >= 0
    && f.lo < Array.length (univ f.attr)
    && f.hi >= 0
    && f.hi < Array.length (univ f.attr)
    && f.lo <> f.hi
  in
  let sigma = Array.of_list spec.Spec.sigma in
  let gamma = Array.of_list spec.Spec.gamma in
  let tuples = Array.of_list (Entity.tuples entity) in
  let code_prec (name, v1, v2) =
    let a = Schema.index schema name in
    { attr = a; lo = Coding.vid coding a v1; hi = Coding.vid coding a v2 }
  in
  let set_eq l1 l2 = List.sort_uniq compare l1 = List.sort_uniq compare l2 in
  (* some distinct tuple pair must ground σ_k to exactly this instance *)
  let check_sigma_inst i k prem_facts concl =
    if k < 0 || k >= Array.length sigma then bad "step %d: σ index %d out of range" i k;
    let c = sigma.(k) in
    let witnessed = ref false in
    Array.iteri
      (fun i1 s1 ->
        Array.iteri
          (fun i2 s2 ->
            if (not !witnessed) && i1 <> i2 then
              match Currency.Constraint_ast.instantiate c s1 s2 with
              | None -> ()
              | Some inst ->
                  let prem =
                    List.map code_prec inst.Currency.Constraint_ast.prec_premises
                  in
                  if
                    code_prec inst.Currency.Constraint_ast.conclusion = concl
                    && set_eq prem prem_facts
                  then witnessed := true)
          tuples)
      tuples;
    if not !witnessed then bad "step %d: no tuple pair grounds σ%d to this instance" i k
  in
  (* ω_X of γ_k (every other active value below each LHS pattern
     constant) and its RHS target id, rebuilt from the spec *)
  let gamma_parts i k =
    if k < 0 || k >= Array.length gamma then bad "step %d: γ index %d out of range" i k;
    let c = gamma.(k) in
    let lhs_vids =
      List.map
        (fun (aname, v) ->
          let a = Schema.index schema aname in
          match Coding.const_id coding a v with
          | Some id when id < Coding.adom_size coding a -> (a, id)
          | _ -> bad "step %d: γ%d is vacuous on this entity" i k)
        c.Cfd.Constant_cfd.lhs
    in
    let omega =
      List.concat_map
        (fun (a, target) ->
          List.filter_map
            (fun lo -> if lo <> target then Some { attr = a; lo; hi = target } else None)
            (List.init (Coding.adom_size coding a) Fun.id))
        lhs_vids
    in
    let bname, bval = c.Cfd.Constant_cfd.rhs in
    let battr = Schema.index schema bname in
    (omega, battr, Coding.const_id coding battr bval)
  in
  let fact_of i p =
    if p < 0 || p >= i then bad "step %d: invalid or forward premise %d" i p
    else chain.(p).fact
  in
  let check i (s : step) =
    if not (wf s.fact) then bad "step %d: malformed fact" i;
    let prem_facts = List.map (fact_of i) s.premises in
    match s.rule with
    | Assumed -> bad "step %d: assumed hypothesis in a certificate" i
    | Trans -> (
        match prem_facts with
        | [ f1; f2 ]
          when f1.attr = s.fact.attr && f2.attr = s.fact.attr && f1.hi = f2.lo
               && s.fact.lo = f1.lo && s.fact.hi = f2.hi ->
            ()
        | _ -> bad "step %d: not a transitive composition" i)
    | Axiom Encode.From_order ->
        if s.premises <> [] then bad "step %d: order axiom with premises" i;
        let u = univ s.fact.attr in
        let explicit =
          List.exists
            (fun { Spec.attr = name; lo; hi } ->
              match Schema.index_opt schema name with
              | Some a when a = s.fact.attr ->
                  lo >= 0
                  && lo < Array.length tuples
                  && hi >= 0
                  && hi < Array.length tuples
                  &&
                  let v1 = Entity.value entity lo a
                  and v2 = Entity.value entity hi a in
                  (not (Value.equal v1 v2))
                  && Coding.vid_opt coding a v1 = Some s.fact.lo
                  && Coding.vid_opt coding a v2 = Some s.fact.hi
              | _ -> false)
            spec.Spec.orders
        in
        let null_lowest =
          Value.is_null u.(s.fact.lo) && not (Value.is_null u.(s.fact.hi))
        in
        if not (explicit || null_lowest) then bad "step %d: not an order axiom" i
    | Axiom (Encode.From_constraint k) | Implication (Encode.From_constraint k) ->
        check_sigma_inst i k prem_facts s.fact
    | Implication Encode.From_order ->
        bad "step %d: implications never carry an order source" i
    | Axiom (Encode.From_cfd k) | Implication (Encode.From_cfd k) -> (
        let omega, battr, brhs = gamma_parts i k in
        match brhs with
        | Some btarget ->
            if not (set_eq prem_facts omega) then
              bad "step %d: premises are not ω_X of γ%d" i k;
            if
              not
                (s.fact.attr = battr && s.fact.hi = btarget
                && s.fact.lo <> btarget
                && s.fact.lo < Coding.adom_size coding battr)
            then bad "step %d: conclusion is not a γ%d consequence" i k
        | None -> bad "step %d: γ%d has no instantiable RHS (veto only)" i k)
    | Total k -> (
        if cert.cmode <> Encode.Exact then
          bad "step %d: totality step outside Exact mode" i;
        if s.premises <> [] then bad "step %d: totality step with premises" i;
        let omega, _, brhs = gamma_parts i k in
        match (brhs, omega) with
        | None, [ f0 ] ->
            if s.fact <> { attr = f0.attr; lo = f0.hi; hi = f0.lo } then
              bad "step %d: not the reverse of γ%d's singleton veto premise" i k
        | Some _, _ -> bad "step %d: γ%d is not vetoed (its RHS value occurs)" i k
        | None, _ -> bad "step %d: γ%d's veto premise is not a singleton" i k)
  in
  try
    Array.iteri check chain;
    let derived = Array.to_list (Array.map (fun s -> s.fact) chain) in
    (match cert.goal with
    | Derived f ->
        if n = 0 || chain.(n - 1).fact <> f then
          bad "goal fact is not the final derived step"
    | Cycle_goal f ->
        if not (wf f) then bad "malformed goal fact";
        if
          not
            (List.mem f derived
            && List.mem { f with lo = f.hi; hi = f.lo } derived)
        then bad "chain does not derive both orientations of the goal"
    | Veto_goal k ->
        let omega, _, brhs = gamma_parts n k in
        if brhs <> None then bad "γ%d is not vetoed (its RHS value occurs)" k;
        if not (List.for_all (fun f -> List.mem f derived) omega) then
          bad "chain does not derive every premise of γ%d's veto" k);
    Ok ()
  with
  | Bad m -> Error m
  | Not_found -> Error "certificate references a foreign attribute or value"

(* ---- rendering ---- *)

let pp_cert spec ppf (c : cert) =
  (* the chain's value ids are over the coding a fresh build yields (the
     saturation and the verifier both use it) *)
  let coding = Coding.build spec.Spec.entity in
  let schema = Spec.schema spec in
  let pp_f ppf f =
    Format.fprintf ppf "%s: %s < %s"
      (Schema.name schema f.attr)
      (Value.to_string (Coding.value coding f.attr f.lo))
      (Value.to_string (Coding.value coding f.attr f.hi))
  in
  let pp_rule ppf = function
    | Axiom Encode.From_order -> Format.fprintf ppf "order axiom"
    | Axiom (Encode.From_constraint k) -> Format.fprintf ppf "sigma[%d] (premise-free)" k
    | Axiom (Encode.From_cfd k) -> Format.fprintf ppf "gamma[%d] (premise-free)" k
    | Implication (Encode.From_constraint k) -> Format.fprintf ppf "sigma[%d]" k
    | Implication (Encode.From_cfd k) -> Format.fprintf ppf "gamma[%d]" k
    | Implication Encode.From_order -> Format.fprintf ppf "order"
    | Trans -> Format.fprintf ppf "transitivity"
    | Total k -> Format.fprintf ppf "gamma[%d] veto + totality" k
    | Assumed -> Format.fprintf ppf "assumed"
  in
  List.iteri
    (fun i s ->
      Format.fprintf ppf "[%d] %a  -- %a" i pp_f s.fact pp_rule s.rule;
      (match s.premises with
      | [] -> ()
      | ps ->
          Format.fprintf ppf " from %s"
            (String.concat ", " (List.map (fun p -> "[" ^ string_of_int p ^ "]") ps)));
      Format.fprintf ppf "@,")
    c.chain;
  match c.goal with
  | Derived f -> Format.fprintf ppf "goal: %a" pp_f f
  | Cycle_goal f ->
      Format.fprintf ppf "goal: cycle (%a and its reverse are both certain)" pp_f f
  | Veto_goal k ->
      Format.fprintf ppf
        "goal: gamma[%d]'s forbidden premise is certain (no completion exists)" k

type result = {
  valid : bool;
  n_valid : int;
  agreed : Value.t option array;
  true_tuple : Value.t array option;
}

(* Per-attribute base order: value-level edges from It plus null-lowest. *)
let base_graphs spec coding =
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  let arity = Schema.arity schema in
  let graphs =
    Array.init arity (fun a ->
        Porder.Digraph.create (Array.length (Coding.universe coding a)))
  in
  List.iter
    (fun { Spec.attr; lo; hi } ->
      let a = Schema.index schema attr in
      let v1 = Entity.value entity lo a and v2 = Entity.value entity hi a in
      if not (Value.equal v1 v2) then
        Porder.Digraph.add_edge graphs.(a) (Coding.vid coding a v1) (Coding.vid coding a v2))
    spec.Spec.orders;
  for a = 0 to arity - 1 do
    let univ = Coding.universe coding a in
    Array.iteri
      (fun i v ->
        if Value.is_null v then
          Array.iteri
            (fun j w -> if j <> i && not (Value.is_null w) then Porder.Digraph.add_edge graphs.(a) i j)
            univ)
      univ
  done;
  graphs

(* Iterate over all completions, calling [f ranks] for each; [ranks.(a).(vid)]
   is the position of the value in attribute [a]'s total order. Returns
   [false] when the space exceeds [limit]. *)
let fold_completions spec coding limit f =
  let arity = Schema.arity (Spec.schema spec) in
  let graphs = base_graphs spec coding in
  if Array.exists Porder.Digraph.has_cycle graphs then Some 0 (* no completion at all *)
  else begin
    let extensions =
      Array.map (fun g -> Array.of_list (Porder.Digraph.linear_extensions g)) graphs
    in
    let total =
      Array.fold_left
        (fun acc exts ->
          if acc < 0 then acc
          else
            let n = Array.length exts in
            if n = 0 || acc > limit / max n 1 then -1 else acc * n)
        1 extensions
    in
    if total < 0 then None
    else begin
      let ranks =
        Array.init arity (fun a -> Array.make (Array.length (Coding.universe coding a)) 0)
      in
      let rec go a =
        if a = arity then f ranks
        else
          Array.iter
            (fun ext ->
              List.iteri (fun pos vid -> ranks.(a).(vid) <- pos) ext;
              go (a + 1))
            extensions.(a)
      in
      go 0;
      Some total
    end
  end

let completion_is_valid spec coding ranks =
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  let arity = Schema.arity schema in
  let lt name v1 v2 =
    let a = Schema.index schema name in
    match (Coding.vid_opt coding a v1, Coding.vid_opt coding a v2) with
    | Some i, Some j -> ranks.(a).(i) < ranks.(a).(j)
    | _ -> false
  in
  let tuples = Entity.tuples entity in
  let sigma_ok =
    List.for_all
      (fun c ->
        List.for_all
          (fun s1 ->
            List.for_all
              (fun s2 ->
                s1 == s2 || Currency.Constraint_ast.holds c ~lt s1 s2)
              tuples)
          tuples)
      spec.Spec.sigma
  in
  if not sigma_ok then None
  else begin
    (* current tuple: the rank-maximal value of each attribute's universe *)
    let current =
      Array.init arity (fun a ->
          let d = Array.length (Coding.universe coding a) in
          let best = ref 0 in
          for v = 1 to d - 1 do
            if ranks.(a).(v) > ranks.(a).(!best) then best := v
          done;
          Coding.value coding a !best)
    in
    let tl = Tuple.of_array schema current in
    if List.for_all (fun c -> Cfd.Constant_cfd.satisfied c tl) spec.Spec.gamma then
      Some current
    else None
  end

let analyze ?(limit = 2_000_000) spec =
  let coding = Coding.build spec.Spec.entity in
  let arity = Schema.arity (Spec.schema spec) in
  let n_valid = ref 0 in
  let agreed = ref None in
  let visit ranks =
    match completion_is_valid spec coding ranks with
    | None -> ()
    | Some current ->
        incr n_valid;
        agreed :=
          Some
            (match !agreed with
            | None -> Array.map (fun v -> Some v) current
            | Some acc ->
                Array.mapi
                  (fun a vo ->
                    match vo with
                    | Some v when Value.equal v current.(a) -> Some v
                    | _ -> None)
                  acc)
  in
  match fold_completions spec coding limit visit with
  | None -> None
  | Some _ ->
      let agreed = match !agreed with None -> Array.make arity None | Some a -> a in
      let true_tuple =
        if !n_valid > 0 && Array.for_all (fun v -> v <> None) agreed then
          Some (Array.map Option.get agreed)
        else None
      in
      Some { valid = !n_valid > 0; n_valid = !n_valid; agreed; true_tuple }

let implied ?(limit = 2_000_000) spec ~attr v1 v2 =
  let coding = Coding.build spec.Spec.entity in
  let schema = Spec.schema spec in
  let a = Schema.index schema attr in
  match (Coding.vid_opt coding a v1, Coding.vid_opt coding a v2) with
  | Some i, Some j when i <> j ->
      let n_valid = ref 0 in
      let holds_everywhere = ref true in
      let visit ranks =
        match completion_is_valid spec coding ranks with
        | None -> ()
        | Some _ ->
            incr n_valid;
            if ranks.(a).(i) >= ranks.(a).(j) then holds_everywhere := false
      in
      (match fold_completions spec coding limit visit with
      | None -> None
      | Some _ -> if !n_valid = 0 then None else Some !holds_everywhere)
  | _ -> Some false

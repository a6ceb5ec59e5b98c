(* Occurrence counting: a clause's [n_active] drops once per assigned
   occurrence of a negated literal, and the clause fires when one
   unassigned literal is left. Literals are deduped per clause first, so
   a duplicated literal cannot drive the count negative or fire a bogus
   unit. *)
let propagate (f : Cnf.t) =
  let f = Cnf.expand f in
  let nvars = f.Cnf.nvars in
  let clauses =
    List.map
      (fun c -> Array.to_list c |> List.sort_uniq Int.compare |> Array.of_list)
      (Cnf.clauses f)
    |> Array.of_list
  in
  let nclauses = Array.length clauses in
  let satisfied = Array.make nclauses false in
  let n_active = Array.make nclauses 0 in
  (* occurrence lists indexed by literal *)
  let occ = Array.make (2 * max nvars 1) [] in
  Array.iteri
    (fun ci c ->
      n_active.(ci) <- Array.length c;
      Array.iter (fun l -> occ.(l) <- ci :: occ.(l)) c)
    clauses;
  (* [1] true, [-1] false, [0] unassigned *)
  let assigns = Array.make (max nvars 1) 0 in
  let value_lit l =
    let a = assigns.(Lit.var l) in
    if Lit.sign l then a else -a
  in
  let queue = Queue.create () in
  Array.iter (fun c -> if Array.length c = 1 then Queue.add c.(0) queue) clauses;
  let conflict = ref (Array.exists (fun c -> Array.length c = 0) clauses) in
  while (not !conflict) && not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    match value_lit l with
    | 1 -> () (* already known *)
    | -1 -> conflict := true
    | _ ->
        assigns.(Lit.var l) <- (if Lit.sign l then 1 else -1);
        (* clauses containing l are satisfied *)
        List.iter (fun ci -> satisfied.(ci) <- true) occ.(l);
        (* clauses containing ¬l lose a literal *)
        List.iter
          (fun ci ->
            if not satisfied.(ci) then begin
              n_active.(ci) <- n_active.(ci) - 1;
              if n_active.(ci) = 1 then begin
                (* find the remaining unassigned literal *)
                let rest = List.filter (fun l' -> value_lit l' = 0) (Array.to_list clauses.(ci)) in
                match rest with
                | [ l' ] -> Queue.add l' queue
                | [] -> conflict := true
                | _ -> assert false
              end
              else if n_active.(ci) = 0 then conflict := true
            end)
          occ.(Lit.negate l)
  done;
  if !conflict then None
  else
    Some
      (List.filter_map
         (fun v -> if assigns.(v) = 0 then None else Some (Lit.make v (assigns.(v) = 1)))
         (List.init nvars Fun.id))

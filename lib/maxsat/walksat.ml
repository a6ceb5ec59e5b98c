type outcome = { model : bool array; satisfied : int }

type clause_info = {
  lits : Sat.Lit.t array;
  hard : bool;
  mutable n_true : int;     (* number of currently-true literals *)
  mutable unsat_pos : int;  (* index in the corresponding unsat list, or -1 *)
}

let solve ?(seed = 0x5eed) ?(max_flips = 20_000) ?(noise = 0.3)
    ~(hard : Sat.Cnf.t) ~(soft : Sat.Cnf.clause list) () =
  let nvars = hard.Sat.Cnf.nvars in
  List.iter
    (fun c ->
      Array.iter
        (fun l ->
          if Sat.Lit.var l >= nvars then
            invalid_arg "Walksat.solve: soft clause over unknown variable")
        c)
    soft;
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s hard;
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> None
  | Sat.Solver.Sat ->
      let rng = Random.State.make [| seed |] in
      let assign =
        let m = Sat.Solver.model s in
        Array.init nvars (fun v -> if v < Array.length m then m.(v) else false)
      in
      let soft = List.filter (fun c -> Array.length c > 0) soft in
      let nsoft_total = List.length soft in
      let clauses =
        Array.of_list
          (List.map (fun c -> { lits = c; hard = true; n_true = 0; unsat_pos = -1 })
             (Sat.Cnf.clauses (Sat.Cnf.expand hard))
          @ List.map (fun c -> { lits = c; hard = false; n_true = 0; unsat_pos = -1 })
              soft)
      in
      (* occurrence lists, indexed by literal *)
      let occ = Array.make (2 * max nvars 1) [] in
      Array.iteri
        (fun ci c -> Array.iter (fun l -> occ.(l) <- ci :: occ.(l)) c.lits)
        clauses;
      let lit_true l = assign.(Sat.Lit.var l) = Sat.Lit.sign l in
      (* unsat clause lists, separate for hard and soft *)
      let unsat_hard = ref [||] and n_unsat_hard = ref 0 in
      let unsat_soft = ref [||] and n_unsat_soft = ref 0 in
      let list_of c = if c.hard then (unsat_hard, n_unsat_hard) else (unsat_soft, n_unsat_soft) in
      let push_unsat ci =
        let c = clauses.(ci) in
        let arr, n = list_of c in
        if Array.length !arr = !n then begin
          let grown = Array.make (max 8 (2 * !n)) 0 in
          Array.blit !arr 0 grown 0 !n;
          arr := grown
        end;
        !arr.(!n) <- ci;
        c.unsat_pos <- !n;
        incr n
      in
      let remove_unsat ci =
        let c = clauses.(ci) in
        let arr, n = list_of c in
        let pos = c.unsat_pos in
        decr n;
        let moved = !arr.(!n) in
        !arr.(pos) <- moved;
        clauses.(moved).unsat_pos <- pos;
        c.unsat_pos <- -1
      in
      Array.iteri
        (fun ci c ->
          c.n_true <- Array.length (Array.of_list (List.filter lit_true (Array.to_list c.lits)));
          if c.n_true = 0 then push_unsat ci)
        clauses;
      let flip v =
        let now_true = Sat.Lit.make v (not assign.(v)) in
        let now_false = Sat.Lit.negate now_true in
        assign.(v) <- not assign.(v);
        List.iter
          (fun ci ->
            let c = clauses.(ci) in
            c.n_true <- c.n_true + 1;
            if c.n_true = 1 then remove_unsat ci)
          occ.(now_true);
        List.iter
          (fun ci ->
            let c = clauses.(ci) in
            c.n_true <- c.n_true - 1;
            if c.n_true = 0 then push_unsat ci)
          occ.(now_false)
      in
      (* weighted break count of flipping v: clauses that become unsatisfied *)
      let break_weight v =
        let l = Sat.Lit.make v assign.(v) in
        List.fold_left
          (fun acc ci ->
            let c = clauses.(ci) in
            if c.n_true = 1 then acc + if c.hard then nsoft_total + 1 else 1
            else acc)
          0 occ.(l)
      in
      let best = ref (Array.copy assign) in
      let best_sat = ref (nsoft_total - !n_unsat_soft) in
      let record () =
        if !n_unsat_hard = 0 then begin
          let sat = nsoft_total - !n_unsat_soft in
          if sat > !best_sat then begin
            best_sat := sat;
            Array.blit assign 0 !best 0 nvars
          end
        end
      in
      record ();
      let flips = ref 0 in
      while !flips < max_flips && not (!n_unsat_hard = 0 && !n_unsat_soft = 0) do
        incr flips;
        let ci =
          if !n_unsat_hard > 0 then !unsat_hard.(Random.State.int rng !n_unsat_hard)
          else !unsat_soft.(Random.State.int rng !n_unsat_soft)
        in
        let c = clauses.(ci) in
        let v =
          if Random.State.float rng 1.0 < noise then
            Sat.Lit.var c.lits.(Random.State.int rng (Array.length c.lits))
          else begin
            let best_v = ref (Sat.Lit.var c.lits.(0)) in
            let best_b = ref max_int in
            Array.iter
              (fun l ->
                let w = Sat.Lit.var l in
                let b = break_weight w in
                if b < !best_b then begin
                  best_b := b;
                  best_v := w
                end)
              c.lits;
            !best_v
          end
        in
        flip v;
        record ()
      done;
      Some { model = !best; satisfied = !best_sat }

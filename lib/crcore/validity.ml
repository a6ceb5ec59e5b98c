let check enc =
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s enc.Encode.cnf;
  match Sat.Solver.solve s with Sat.Solver.Sat -> true | Sat.Solver.Unsat -> false

let is_valid ?mode spec = check (Encode.encode ?mode spec)

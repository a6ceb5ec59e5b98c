(* satcli: DIMACS front end for the bundled CDCL solver (the MiniSat
   stand-in of the reproduction). Prints "s SATISFIABLE" with a model line
   or "s UNSATISFIABLE", like a SAT-competition solver. *)

open Cmdliner

let run file stats simplify =
  let f = Sat.Dimacs.parse_file file in
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s f;
  if simplify then Sat.Solver.simplify s;
  let result = Sat.Solver.solve s in
  (match result with
  | Sat.Solver.Sat ->
      print_endline "s SATISFIABLE";
      let m = Sat.Solver.model s in
      let buf = Buffer.create 256 in
      Buffer.add_string buf "v";
      Array.iteri
        (fun v b -> Buffer.add_string buf (Printf.sprintf " %d" (if b then v + 1 else -(v + 1))))
        m;
      Buffer.add_string buf " 0";
      print_endline (Buffer.contents buf)
  | Sat.Solver.Unsat -> print_endline "s UNSATISFIABLE");
  if stats then begin
    let st = Sat.Solver.stats s in
    Printf.eprintf
      "c conflicts=%d decisions=%d propagations=%d restarts=%d learnts=%d \
       learnts_kept=%d learnts_deleted=%d lbd_avg=%.2f binaries=%d subsumed=%d \
       vars_substituted=%d simplify_ms=%.1f\n"
      st.Sat.Solver.conflicts st.Sat.Solver.decisions st.Sat.Solver.propagations
      st.Sat.Solver.restarts st.Sat.Solver.learnts st.Sat.Solver.learnts_kept
      st.Sat.Solver.learnts_deleted (Sat.Solver.lbd_avg st) st.Sat.Solver.binaries
      st.Sat.Solver.subsumed st.Sat.Solver.vars_substituted
      st.Sat.Solver.simplify_ms
  end;
  match result with Sat.Solver.Sat -> 10 | Sat.Solver.Unsat -> 20

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"CNF" ~doc:"DIMACS CNF file.")
let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print solver statistics to stderr.")

let simplify_arg =
  Arg.(
    value & flag
    & info [ "simplify" ]
        ~doc:
          "Run level-0 preprocessing (equivalent-literal substitution, \
           subsumption and self-subsuming resolution) before solving.")

let main =
  Cmd.v
    (Cmd.info "satcli" ~version:"1.0.0" ~doc:"CDCL SAT solver on DIMACS input")
    Term.(const run $ file_arg $ stats_arg $ simplify_arg)

let () = exit (Cmd.eval' main)

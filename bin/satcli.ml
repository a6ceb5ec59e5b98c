(* satcli: DIMACS front end for the bundled CDCL solver (the MiniSat
   stand-in of the reproduction). Prints "s SATISFIABLE" with a model line
   or "s UNSATISFIABLE", like a SAT-competition solver. *)

open Cmdliner

let run file stats =
  let f = Sat.Dimacs.parse_file file in
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s f;
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
  if stats then Format.eprintf "c %a@." Sat.Solver.pp_stats (Sat.Solver.stats s);
  match result with Sat.Solver.Sat -> 10 | Sat.Solver.Unsat -> 20

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"CNF" ~doc:"DIMACS CNF file.")
let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print solver statistics to stderr.")

let main =
  Cmd.v
    (Cmd.info "satcli" ~version:"1.0.0" ~doc:"CDCL SAT solver on DIMACS input")
    Term.(const run $ file_arg $ stats_arg)

let () = exit (Cmd.eval' main)

(* crsolve: command-line conflict resolution.

   An entity instance comes as a CSV file (header = schema); currency
   constraints and constant CFDs come as text files in the syntax of
   Currency.Parser / Cfd.Constant_cfd.parse:

     # sigma.txt
     t1[status] = "working" & t2[status] = "retired" -> prec(status)
     prec(status) -> prec(job)

     # gamma.txt
     AC = 212 -> city = "NY"

   Subcommands: validate | resolve | suggest. `resolve --interactive`
   prompts for the suggested attributes on stdin. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_spec entity_file sigma_file gamma_file =
  let entity = Csv.load_entity entity_file in
  let sigma =
    match sigma_file with
    | None -> []
    | Some f -> (
        match Currency.Parser.parse_many (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse currency constraints: " ^ m))
  in
  let gamma =
    match gamma_file with
    | None -> []
    | Some f -> (
        match Cfd.Constant_cfd.parse_many (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse CFDs: " ^ m))
  in
  Crcore.Spec.make entity ~orders:[] ~sigma ~gamma

let mode_of_exact exact = if exact then Crcore.Encode.Exact else Crcore.Encode.Paper

(* ---- validate ---- *)

let run_validate entity_file sigma_file gamma_file exact =
  let spec = load_spec entity_file sigma_file gamma_file in
  let ok = Crcore.Validity.is_valid ~mode:(mode_of_exact exact) spec in
  Printf.printf "specification is %s\n" (if ok then "VALID" else "INVALID");
  if ok then 0 else 1

(* ---- suggest ---- *)

let run_suggest entity_file sigma_file gamma_file exact =
  let spec = load_spec entity_file sigma_file gamma_file in
  let schema = Crcore.Spec.schema spec in
  let enc = Crcore.Encode.encode ~mode:(mode_of_exact exact) spec in
  if not (Crcore.Validity.check enc) then begin
    print_endline "specification is INVALID";
    1
  end
  else begin
    let d = Crcore.Deduce.deduce_order enc in
    let known = Crcore.Deduce.true_values d in
    Array.iteri
      (fun a vo ->
        Printf.printf "%-16s %s\n" (Schema.name schema a)
          (match vo with Some v -> Value.to_string v | None -> "?"))
      known;
    if Array.for_all (fun v -> v <> None) known then
      print_endline "\nall true values deduced; nothing to ask"
    else begin
      let s = Crcore.Rules.suggest d ~known in
      Printf.printf "\nsuggestion: provide true values for [%s]\n"
        (String.concat "; " (List.map (Schema.name schema) s.Crcore.Rules.attrs));
      List.iter
        (fun (a, vals) ->
          Printf.printf "  %s in { %s }\n" (Schema.name schema a)
            (String.concat " | " (List.map Value.to_string vals)))
        s.Crcore.Rules.candidates;
      Printf.printf "derivable afterwards: [%s]\n"
        (String.concat "; " (List.map (Schema.name schema) s.Crcore.Rules.derivable))
    end;
    0
  end

(* ---- lint ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let run_lint entity_file sigma_file gamma_file json =
  let entity = Csv.load_entity entity_file in
  let sigma_spanned =
    match sigma_file with
    | None -> []
    | Some f -> (
        match Currency.Parser.parse_many_spanned (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse currency constraints: " ^ m))
  in
  let gamma =
    match gamma_file with
    | None -> []
    | Some f -> (
        match Cfd.Constant_cfd.parse_many (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse CFDs: " ^ m))
  in
  let sigma = List.map fst sigma_spanned in
  let sigma_spans = Array.of_list (List.map (fun (_, sp) -> Some sp) sigma_spanned) in
  let spec = Crcore.Spec.make entity ~orders:[] ~sigma ~gamma in
  let ds = Crcore.Analyze.analyze ~sigma_spans spec in
  let count sev =
    List.length (List.filter (fun d -> d.Crcore.Analyze.severity = sev) ds)
  in
  let n_err = count Crcore.Analyze.Error
  and n_warn = count Crcore.Analyze.Warning
  and n_info = count Crcore.Analyze.Info in
  if json then begin
    (* spans always point into the Σ file — it is the only spanned input *)
    let span_file =
      match sigma_file with
      | Some f -> Printf.sprintf "\"%s\"" (json_escape f)
      | None -> "null"
    in
    let diag_json (d : Crcore.Analyze.diagnostic) =
      let span =
        match d.span with
        | None -> "null"
        | Some sp ->
            Printf.sprintf "{\"file\":%s,\"line\":%d,\"col_start\":%d,\"col_end\":%d}"
              span_file sp.Currency.Parser.line sp.Currency.Parser.col_start
              sp.Currency.Parser.col_end
      in
      Printf.sprintf
        "{\"code\":\"%s\",\"severity\":\"%s\",\"subject\":\"%s\",\"message\":\"%s\",\"span\":%s}"
        (json_escape d.code)
        (Crcore.Analyze.severity_to_string d.severity)
        (json_escape (Format.asprintf "%a" (Crcore.Analyze.pp_subject spec) d.subject))
        (json_escape d.message) span
    in
    Printf.printf
      "{\"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d,\"infos\":%d}\n"
      (String.concat "," (List.map diag_json ds))
      n_err n_warn n_info
  end
  else begin
    List.iter (fun d -> Format.printf "%a@." (Crcore.Analyze.pp_diagnostic spec) d) ds;
    if ds = [] then print_endline "clean: no diagnostics"
    else Printf.printf "%d error(s), %d warning(s), %d info\n" n_err n_warn n_info
  end;
  match Crcore.Analyze.max_severity ds with
  | Some Crcore.Analyze.Error -> 2
  | Some Crcore.Analyze.Warning -> 1
  | Some Crcore.Analyze.Info | None -> 0

(* ---- resolve ---- *)

let stdin_user suggestion ~schema =
  List.filter_map
    (fun (a, cands) ->
      Printf.printf "true value for %s%s? (empty to skip) " (Schema.name schema a)
        (if cands = [] then ""
         else Printf.sprintf " [%s]" (String.concat " | " (List.map Value.to_string cands)));
      match In_channel.input_line stdin with
      | None | Some "" -> None
      | Some line -> Some (Schema.name schema a, Value.of_string line))
    suggestion.Crcore.Rules.candidates

let run_resolve entity_file sigma_file gamma_file exact interactive truth_file max_rounds =
  let spec = load_spec entity_file sigma_file gamma_file in
  let schema = Crcore.Spec.schema spec in
  let user =
    if interactive then stdin_user
    else
      match truth_file with
      | Some f -> (
          match Csv.parse_file f with
          | [ header; row ] ->
              let tschema = Schema.make header in
              if not (Schema.equal tschema schema) then failwith "truth schema mismatch";
              Crcore.Framework.oracle (Tuple.make schema (List.map Value.of_string row))
          | _ -> failwith "truth file must have a header and exactly one row")
      | None -> Crcore.Framework.silent
  in
  let o =
    Crcore.Framework.resolve ~mode:(mode_of_exact exact) ~max_rounds ~user spec
  in
  if not o.Crcore.Framework.valid then begin
    print_endline "specification is INVALID";
    1
  end
  else begin
    Printf.printf "resolved after %d interaction(s):\n" o.Crcore.Framework.rounds;
    Array.iteri
      (fun a vo ->
        Printf.printf "%-16s %s\n" (Schema.name schema a)
          (match vo with Some v -> Value.to_string v | None -> "(undetermined)"))
      o.Crcore.Framework.resolved;
    0
  end

(* ---- implication ---- *)

let run_implication entity_file sigma_file gamma_file exact attr lo hi =
  let spec = load_spec entity_file sigma_file gamma_file in
  let mode = mode_of_exact exact in
  let f =
    { Crcore.Implication.attr; lo = Value.of_string lo; hi = Value.of_string hi }
  in
  let a = Crcore.Implication.holds ~mode spec f in
  Format.printf "%s ≺ %s in %s: %a@." lo hi attr Crcore.Implication.pp_answer a;
  match a with Crcore.Implication.Implied -> 0 | _ -> 1

(* ---- explain ---- *)

(* Why is NEW preferred over OLD on ATTR? Static answer: the saturation
   closure contains the fact, and its certificate (a chain of ground
   constraint instances, independently re-checked against the raw spec)
   is the explanation. Otherwise the SAT story: a refutation probe
   Φ(Se) ∧ ¬x decides the fact, with no polynomial derivation to show. *)
let run_explain entity_file sigma_file gamma_file exact attr lo hi =
  let spec = load_spec entity_file sigma_file gamma_file in
  let mode = mode_of_exact exact in
  let lo_v = Value.of_string lo and hi_v = Value.of_string hi in
  let cl = Crcore.Saturate.of_spec ~mode spec in
  let coding = Crcore.Saturate.coding cl in
  let schema = Crcore.Spec.schema spec in
  match Crcore.Saturate.refutation cl with
  | Some _ ->
      Format.printf
        "the specification is statically UNSATISFIABLE — no valid completion exists, so \
         every currency preference holds only vacuously.@.";
      (match Crcore.Saturate.refutation_certificate cl with
      | Some cert ->
          Format.printf "derivation of the contradiction:@.%a@."
            (Crcore.Saturate.pp_cert spec) cert
      | None -> ());
      2
  | None -> (
      let static_fact =
        match Schema.index_opt schema attr with
        | None -> None
        | Some a -> (
            match
              (Crcore.Coding.vid_opt coding a lo_v, Crcore.Coding.vid_opt coding a hi_v)
            with
            | Some l, Some h -> Some { Crcore.Encode.attr = a; lo = l; hi = h }
            | _ -> None)
      in
      match static_fact with
      | Some f when Crcore.Saturate.mem cl f ->
          Format.printf
            "%s is preferred over %s on %s: the fact %s ≺ %s is in the static closure — \
             certain in every valid completion, no solver needed.@."
            hi lo attr lo hi;
          (match Crcore.Saturate.certificate cl f with
          | Some cert ->
              Format.printf "derivation:@.%a@." (Crcore.Saturate.pp_cert spec) cert;
              (match Crcore.Saturate.verify spec cert with
              | Ok () -> Format.printf "certificate independently verified.@."
              | Error m ->
                  Format.printf "CERTIFICATE REJECTED by the independent verifier: %s@." m)
          | None -> ());
          0
      | _ -> (
          match
            Crcore.Implication.holds ~mode spec
              { Crcore.Implication.attr; lo = lo_v; hi = hi_v }
          with
          | Crcore.Implication.Implied ->
              Format.printf
                "%s is preferred over %s on %s: implied in every valid completion, but only \
                 a SAT refutation probe shows it — Φ(Se) ∧ ¬(%s ≺ %s) is unsatisfiable. \
                 The static saturation cannot derive it, so no short certificate exists \
                 (the implication problem is coNP-complete in general).@."
                hi lo attr lo hi;
              0
          | Crcore.Implication.Not_implied ->
              Format.printf
                "%s is NOT certainly preferred over %s on %s: a SAT probe found a valid \
                 completion ordering them the other way (or leaving them unordered).@."
                hi lo attr;
              1
          | Crcore.Implication.Invalid_spec ->
              Format.printf "the specification has no valid completion.@.";
              2
          | Crcore.Implication.Unknown_value ->
              Format.printf
                "value %s or %s does not occur in the entity's %s column — nothing to \
                 prefer.@."
                lo hi attr;
              2))

(* ---- coverage ---- *)

let run_coverage entity_file sigma_file gamma_file exact =
  let spec = load_spec entity_file sigma_file gamma_file in
  let mode = mode_of_exact exact in
  if not (Crcore.Validity.is_valid ~mode spec) then begin
    print_endline "specification is INVALID";
    1
  end
  else begin
    let r = Crcore.Coverage.greedy ~mode spec in
    Printf.printf "coverage %s: %d assertion(s), |Ot| = %d\n"
      (if r.Crcore.Coverage.complete then "complete" else "INCOMPLETE")
      (List.length r.Crcore.Coverage.choices)
      r.Crcore.Coverage.cost;
    List.iter
      (fun c ->
        Printf.printf "  assert most current: %s = %s\n" c.Crcore.Coverage.attr
          (Value.to_string c.Crcore.Coverage.value))
      r.Crcore.Coverage.choices;
    let schema = Crcore.Spec.schema spec in
    Array.iteri
      (fun a vo ->
        Printf.printf "%-16s %s\n" (Schema.name schema a)
          (match vo with Some v -> Value.to_string v | None -> "?"))
      r.Crcore.Coverage.resolved;
    if r.Crcore.Coverage.complete then 0 else 1
  end

(* ---- repair ---- *)

let run_repair entity_file sigma_file gamma_file exact key output =
  (* here the "entity" CSV is a whole relation; [key] partitions it *)
  let relation = Csv.load_entity entity_file in
  let schema = Entity.schema relation in
  let spec = load_spec entity_file sigma_file gamma_file in
  let r =
    Crcore.Repair.run ~mode:(mode_of_exact exact)
      ~key:(if key = "" then [] else String.split_on_char ',' key)
      schema (Entity.tuples relation) ~sigma:spec.Crcore.Spec.sigma
      ~gamma:spec.Crcore.Spec.gamma
  in
  List.iter
    (fun (e : Crcore.Repair.entity_report) ->
      Printf.printf "# key=[%s] merged %d tuple(s), %d inferred, %d fallback%s\n"
        (String.concat ";" (List.map Value.to_string e.Crcore.Repair.key))
        e.Crcore.Repair.size e.Crcore.Repair.determined e.Crcore.Repair.fell_back
        (if e.Crcore.Repair.valid then "" else " [INVALID SPEC]"))
    r.Crcore.Repair.entities;
  let rows =
    Schema.attr_names schema
    :: List.map (fun t -> List.map Value.to_string (Tuple.values t)) r.Crcore.Repair.repaired
  in
  (match output with
  | Some path ->
      Csv.write_file path rows;
      Printf.printf "repaired relation written to %s\n" path
  | None -> print_string (Csv.to_string rows));
  if r.Crcore.Repair.invalid_entities = 0 then 0 else 1

(* ---- batch ---- *)

let parse_sigma_gamma sigma_file gamma_file =
  let sigma =
    match sigma_file with
    | None -> []
    | Some f -> (
        match Currency.Parser.parse_many (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse currency constraints: " ^ m))
  in
  let gamma =
    match gamma_file with
    | None -> []
    | Some f -> (
        match Cfd.Constant_cfd.parse_many (read_file f) with
        | Ok l -> l
        | Error m -> failwith ("cannot parse CFDs: " ^ m))
  in
  (sigma, gamma)

(* group a relation's tuples by key attribute values, first-seen order *)
let group_by_key key_positions tuples =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun t ->
      let k = List.map (fun a -> Value.to_string (Tuple.get t a)) key_positions in
      match Hashtbl.find_opt seen k with
      | Some r -> r := t :: !r
      | None ->
          Hashtbl.add seen k (ref [ t ]);
          order := k :: !order)
    tuples;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find seen k))) !order

(* -j default: the CRSOLVE_JOBS environment variable, else sequential *)
let default_jobs () =
  match Sys.getenv_opt "CRSOLVE_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j > 0 -> j | _ -> 1)
  | None -> 1

let run_batch entity_file dir sigma_file gamma_file exact jobs key truth_file max_rounds
    budget_conflicts budget_ms max_degrade fail_fast dump_dimacs output =
  let sigma, gamma = parse_sigma_gamma sigma_file gamma_file in
  let mk_label_spec label entity =
    match Crcore.Spec.make_res entity ~orders:[] ~sigma ~gamma with
    | Ok spec -> (label, spec)
    | Error e ->
        failwith (Format.asprintf "entity %s: bad specification: %a" label Crcore.Spec.pp_error e)
  in
  let labelled =
    match (dir, entity_file) with
    | Some d, _ ->
        let files =
          Sys.readdir d |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".csv")
          |> List.sort compare
        in
        if files = [] then failwith (Printf.sprintf "no .csv files in %s" d);
        List.map
          (fun f ->
            mk_label_spec (Filename.remove_extension f) (Csv.load_entity (Filename.concat d f)))
          files
    | None, Some ef ->
        if key = "" then failwith "batch: --entity needs --key to split the relation into entities";
        let rel = Csv.load_entity ef in
        let schema = Entity.schema rel in
        let key_attrs = String.split_on_char ',' key in
        List.iter
          (fun a ->
            if not (Schema.mem schema a) then
              failwith (Printf.sprintf "batch: unknown key attribute %S" a))
          key_attrs;
        let key_positions = List.map (Schema.index schema) key_attrs in
        group_by_key key_positions (Entity.tuples rel)
        |> List.map (fun (k, tuples) ->
               mk_label_spec (String.concat ";" k) (Entity.make schema tuples))
    | None, None -> failwith "batch: either --entity with --key or --dir is required"
  in
  let schema =
    match labelled with
    | (_, spec) :: _ -> Crcore.Spec.schema spec
    | [] -> failwith "batch: no entities"
  in
  let user_for =
    match truth_file with
    | None -> fun _ -> Crcore.Framework.silent
    | Some f -> (
        if dir <> None then failwith "batch: --truth is only supported with --entity/--key";
        match Csv.parse_file f with
        | [] -> failwith "empty truth file"
        | header :: rows ->
            let tschema = Schema.make header in
            if not (Schema.equal tschema schema) then failwith "truth schema mismatch";
            let key_positions =
              List.map (Schema.index schema) (String.split_on_char ',' key)
            in
            let truths = Hashtbl.create 64 in
            List.iter
              (fun row ->
                let t = Tuple.make schema (List.map Value.of_string row) in
                let k =
                  String.concat ";"
                    (List.map (fun a -> Value.to_string (Tuple.get t a)) key_positions)
                in
                Hashtbl.replace truths k t)
              rows;
            fun label ->
              (match Hashtbl.find_opt truths label with
              | Some t -> Crcore.Framework.oracle t
              | None -> Crcore.Framework.silent))
  in
  let items =
    List.map
      (fun (label, spec) -> { Crcore.Engine.label; spec; user = user_for label })
      labelled
  in
  let jobs = max 1 jobs in
  let cores = Parallel.Pool.recommended_jobs () in
  if jobs > cores then
    Printf.eprintf
      "crsolve: warning: -j %d exceeds the %d available core(s); running %d job(s) \
       (over-subscribing domains only slows batches down)\n%!"
      jobs cores (min jobs cores);
  let config =
    Conflict_resolution.Config.(
      default
      |> with_mode (mode_of_exact exact)
      |> with_max_rounds max_rounds
      |> with_jobs jobs
      |> with_budget_conflicts budget_conflicts
      |> with_budget_ms budget_ms
      |> with_max_degrade max_degrade
      |> with_fail_fast fail_fast
      |> to_engine)
  in
  let dumped = ref 0 in
  let dump_failure label =
    match dump_dimacs with
    | None -> ()
    | Some path -> (
        (* Rebuild the failing entity's loaded clause DB in a throwaway
           solver: the engine's own solver may be gone (or in a worker
           domain), and a standalone reconstruction is exactly what an
           external SAT tool needs to reproduce the formula. *)
        let path = if !dumped = 0 then path else Printf.sprintf "%s.%d" path !dumped in
        incr dumped;
        match List.assoc_opt label labelled with
        | None -> Printf.eprintf "[%s] dump-dimacs: no such entity\n%!" label
        | Some spec -> (
            try
              let enc = Crcore.Encode.encode ~mode:(mode_of_exact exact) spec in
              let s = Sat.Solver.create () in
              Sat.Solver.add_cnf s enc.Crcore.Encode.cnf;
              Out_channel.with_open_text path (fun oc ->
                  output_string oc (Sat.Dimacs.of_solver s));
              Printf.eprintf "[%s] DIMACS written to %s\n%!" label path
            with exn ->
              Printf.eprintf "[%s] dump-dimacs failed: %s\n%!" label
                (Printexc.to_string exn)))
  in
  let on_result (r : Crcore.Engine.item_result) =
    match r.Crcore.Engine.outcome with
    | Error e ->
        Printf.printf "[%s] ERROR in %s: %s\n%!" r.Crcore.Engine.label
          (Crcore.Engine.phase_to_string e.Crcore.Engine.phase)
          e.Crcore.Engine.exn;
        dump_failure r.Crcore.Engine.label
    | Ok res ->
        let known =
          Array.fold_left (fun n v -> if v = None then n else n + 1) 0 res.Crcore.Engine.resolved
        in
        Printf.printf "[%s] %s rounds=%d resolved=%d/%d level=%s%s\n%!" r.Crcore.Engine.label
          (if res.Crcore.Engine.valid then "valid" else "INVALID")
          res.Crcore.Engine.rounds known
          (Array.length res.Crcore.Engine.resolved)
          (Crcore.Engine.level_to_string res.Crcore.Engine.level)
          (match res.Crcore.Engine.degrade_reason with
          | None -> ""
          | Some reason ->
              Printf.sprintf " degraded=%s" (Crcore.Engine.reason_to_string reason))
  in
  let results, stats = Crcore.Engine.run_batch ~config ~on_result items in
  Format.printf "@.%a@." Crcore.Engine.pp_stats stats;
  (match output with
  | None -> ()
  | Some path ->
      let rows =
        ("entity" :: Schema.attr_names schema)
        :: List.map
             (fun (r : Crcore.Engine.item_result) ->
               r.Crcore.Engine.label
               ::
               (match r.Crcore.Engine.outcome with
               | Error _ ->
                   List.map (fun _ -> "") (Schema.attr_names schema)
               | Ok res ->
                   Array.to_list res.Crcore.Engine.resolved
                   |> List.map (function Some v -> Value.to_string v | None -> "")))
             results
      in
      Csv.write_file path rows;
      Printf.printf "resolved tuples written to %s\n" path);
  if stats.Crcore.Engine.errors > 0 then 2
  else if stats.Crcore.Engine.valid_entities = stats.Crcore.Engine.entities then 0
  else 1

(* ---- client ---- *)

let run_client socket requests retries retry_base_ms timeout =
  let lines =
    if requests <> [] then requests
    else
      let rec slurp acc =
        match In_channel.input_line stdin with
        | None -> List.rev acc
        | Some "" -> slurp acc
        | Some l -> slurp (l :: acc)
      in
      slurp []
  in
  if lines = [] then failwith "client: no requests (pass them as arguments or on stdin)";
  let client =
    Crserver.Client.connect ~retries ~retry_base_ms ?deadline:timeout
      ~socket_path:socket ()
  in
  let is_failure r = String.length r >= 11 && String.sub r 0 11 = {|{"ok":false|} in
  match Crserver.Client.request_many client lines with
  | Ok responses ->
      List.iter print_endline responses;
      Crserver.Client.close client;
      (* any {"ok":false,...} response fails the invocation *)
      if List.exists is_failure responses then 1 else 0
  | Error (partial, msg) ->
      List.iter print_endline partial;
      Printf.eprintf "crsolve: %s\n" msg;
      Crserver.Client.close client;
      1

(* ---- cmdliner wiring ---- *)

open Cmdliner

let entity_arg =
  Arg.(required & opt (some file) None & info [ "entity"; "e" ] ~docv:"CSV" ~doc:"Entity instance CSV (header row = schema).")

let sigma_arg =
  Arg.(value & opt (some file) None & info [ "sigma"; "s" ] ~docv:"FILE" ~doc:"Currency constraints file.")

let gamma_arg =
  Arg.(value & opt (some file) None & info [ "gamma"; "g" ] ~docv:"FILE" ~doc:"Constant CFDs file.")

let exact_arg =
  Arg.(value & flag & info [ "exact" ] ~doc:"Use the exact (total-order) encoding instead of the paper's.")

let interactive_arg =
  Arg.(value & flag & info [ "interactive"; "i" ] ~doc:"Prompt for suggested attributes on stdin.")

let truth_arg =
  Arg.(value & opt (some file) None & info [ "truth" ] ~docv:"CSV" ~doc:"Ground-truth tuple CSV; simulates a perfect user.")

let max_rounds_arg =
  Arg.(value & opt int 5 & info [ "max-rounds" ] ~docv:"N" ~doc:"Interaction-round budget (default 5).")

let lint_cmd =
  let json_a =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON object instead of text.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyse the specification: errors (provably unsatisfiable), \
             warnings (likely misuse) and redundancy notes, without running the SAT solver. \
             Exits 0 when clean (info-only allowed), 1 on warnings, 2 on errors.")
    Term.(const run_lint $ entity_arg $ sigma_arg $ gamma_arg $ json_a)

let validate_cmd =
  Cmd.v
    (Cmd.info "validate" ~doc:"Check whether the specification admits a valid completion")
    Term.(const run_validate $ entity_arg $ sigma_arg $ gamma_arg $ exact_arg)

let suggest_cmd =
  Cmd.v
    (Cmd.info "suggest" ~doc:"Deduce true values and print the suggestion for the rest")
    Term.(const run_suggest $ entity_arg $ sigma_arg $ gamma_arg $ exact_arg)

let resolve_cmd =
  Cmd.v
    (Cmd.info "resolve" ~doc:"Run the full conflict-resolution framework")
    Term.(
      const run_resolve $ entity_arg $ sigma_arg $ gamma_arg $ exact_arg $ interactive_arg
      $ truth_arg $ max_rounds_arg)

let implication_cmd =
  let attr_a = Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTR") in
  let lo_a = Arg.(required & pos 1 (some string) None & info [] ~docv:"OLD") in
  let hi_a = Arg.(required & pos 2 (some string) None & info [] ~docv:"NEW") in
  Cmd.v
    (Cmd.info "implication"
       ~doc:"Decide whether OLD ≺ NEW on ATTR holds in every valid completion")
    Term.(
      const run_implication $ entity_arg $ sigma_arg $ gamma_arg $ exact_arg $ attr_a $ lo_a
      $ hi_a)

let explain_cmd =
  let attr_a = Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTR") in
  let lo_a = Arg.(required & pos 1 (some string) None & info [] ~docv:"OLD") in
  let hi_a = Arg.(required & pos 2 (some string) None & info [] ~docv:"NEW") in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain why NEW is preferred over OLD on ATTR: print the static derivation \
             certificate when the saturation closure proves it, or the SAT-probe account \
             otherwise.")
    Term.(
      const run_explain $ entity_arg $ sigma_arg $ gamma_arg $ exact_arg $ attr_a $ lo_a
      $ hi_a)

let coverage_cmd =
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Find a small set of currency assertions that makes the true value exist")
    Term.(const run_coverage $ entity_arg $ sigma_arg $ gamma_arg $ exact_arg)

let repair_cmd =
  let key_a =
    Arg.(value & opt string "" & info [ "key"; "k" ] ~docv:"ATTRS" ~doc:"Comma-separated key attributes partitioning the relation into entities.")
  in
  let out_a =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"CSV" ~doc:"Write the repaired relation here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "repair" ~doc:"Repair a whole relation: one current tuple per entity")
    Term.(const run_repair $ entity_arg $ sigma_arg $ gamma_arg $ exact_arg $ key_a $ out_a)

let batch_cmd =
  let entity_a =
    Arg.(value & opt (some file) None & info [ "entity"; "e" ] ~docv:"CSV" ~doc:"Relation CSV holding every entity's tuples; split on $(b,--key).")
  in
  let dir_a =
    Arg.(value & opt (some dir) None & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Directory of per-entity CSV files (header row = schema) instead of $(b,--entity).")
  in
  let key_a =
    Arg.(value & opt string "" & info [ "key"; "k" ] ~docv:"ATTRS" ~doc:"Comma-separated key attributes partitioning the relation into entities.")
  in
  let out_a =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"CSV" ~doc:"Write one resolved tuple per entity here.")
  in
  let jobs_a =
    Arg.(
      value
      & opt int (default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Resolve entities on $(docv) domains in parallel. Results are identical to the \
             sequential run and stream in input order. Defaults to \\$CRSOLVE_JOBS, else 1.")
  in
  let budget_conflicts_a =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-conflicts" ] ~docv:"N"
          ~doc:
            "Per-entity SAT conflict budget. An entity that exhausts it degrades down the \
             ladder (exact, partial, pick) instead of running unbounded; deterministic \
             across $(b,--jobs).")
  in
  let budget_ms_a =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Per-entity soft wall-clock budget in milliseconds, checked between phases and \
             rounds only. Prefer $(b,--budget-conflicts) for reproducible outcomes.")
  in
  let max_degrade_a =
    Arg.(
      value
      & opt
          (enum
             [
               ("exact", Crcore.Engine.Exact);
               ("partial", Crcore.Engine.PartialDeduce);
               ("pick", Crcore.Engine.PickFallback);
             ])
          Crcore.Engine.PickFallback
      & info [ "max-degrade" ] ~docv:"LEVEL"
          ~doc:
            "Lowest degradation level a budget-exhausted entity may fall to: $(b,exact) \
             (never degrade; conservative unresolved answer), $(b,partial) (proven facts \
             only), or $(b,pick) (the paper's Pick heuristic; default).")
  in
  let fail_fast_a =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Abort the whole batch on the first entity failure instead of isolating it as \
             that entity's ERROR outcome.")
  in
  let dump_dimacs_a =
    (* hidden debug flag: not listed in the manpage *)
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dimacs" ] ~docv:"PATH" ~docs:Manpage.s_none
          ~doc:
            "Debug: on an entity failure, write that entity's loaded clause database \
             (level-0 units, binary layer, long clauses, and in Exact mode the order \
             axioms its solver enforces by propagation, listed as clauses) as DIMACS CNF \
             to $(docv); further failures go to $(docv).1, $(docv).2, ...")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Resolve a whole collection of entities with the incremental batch engine")
    Term.(
      const run_batch $ entity_a $ dir_a $ sigma_arg $ gamma_arg $ exact_arg
      $ jobs_a $ key_a $ truth_arg $ max_rounds_arg $ budget_conflicts_a $ budget_ms_a
      $ max_degrade_a $ fail_fast_a $ dump_dimacs_a $ out_a)

let client_cmd =
  let socket_a =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket the crsolved daemon listens on.")
  in
  let requests_a =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Protocol request lines (e.g. $(b,'RESOLVE e1'), \
             $(b,'INGEST e1|Alice,NYC,10001')). With none, requests are read from stdin, \
             one per line. Mutating requests may carry an $(b,@seq) prefix \
             ($(b,'@3 INGEST e1|...')) so retries after a daemon crash are idempotent.")
  in
  let retries_a =
    Arg.(
      value & opt int 4
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-attempts per request on connection refused, connection loss, OVERLOADED \
             replies, or a deadline expiry; exponential backoff with jitter between \
             attempts (default 4).")
  in
  let retry_base_a =
    Arg.(
      value & opt float 50.
      & info [ "retry-base-ms" ] ~docv:"MS"
          ~doc:
            "Backoff base: attempt k sleeps roughly $(docv)*2^k ms (jittered, capped at \
             5 s). Default 50.")
  in
  let timeout_a =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Client-side per-request deadline; a hung daemon fails the attempt (and is \
             retried) instead of wedging the CLI. Default: wait forever.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send protocol requests to a running crsolved daemon and print the JSON \
          responses. Transient failures (daemon restarting, OVERLOADED, timeouts) are \
          retried with exponential backoff. Exits 1 if any request failed.")
    Term.(
      const run_client $ socket_a $ requests_a $ retries_a $ retry_base_a $ timeout_a)

let main =
  Cmd.group
    (Cmd.info "crsolve" ~version:"1.0.0"
       ~doc:"Conflict resolution by inferring data currency and consistency (ICDE 2013)")
    [
      lint_cmd;
      validate_cmd;
      suggest_cmd;
      resolve_cmd;
      batch_cmd;
      implication_cmd;
      explain_cmd;
      coverage_cmd;
      repair_cmd;
      client_cmd;
    ]

let () =
  try exit (Cmd.eval' ~catch:false main)
  with Failure m | Invalid_argument m | Sys_error m ->
    Printf.eprintf "crsolve: %s\n" m;
    exit 2

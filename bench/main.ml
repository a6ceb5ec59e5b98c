(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Fig. 8(a)-(p)), the summary claims, and three ablations specific to
   this reproduction. Run everything:

     dune exec bench/main.exe

   or a single experiment / list of experiments:

     dune exec bench/main.exe -- fig8a fig8f summary

   `micro` additionally runs Bechamel micro-benchmarks of the core
   operations. Absolute numbers differ from the paper (different machine,
   different substrate implementations); the shapes are the deliverable:
   who wins, by what factor, and where the curves sit relative to each
   other. See EXPERIMENTS.md for the side-by-side reading. *)

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* Uniform failure reporting: a scenario that detects a disagreement
   records it here instead of exiting on its own; the driver prints every
   recorded failure after the selected scenarios ran and exits 1 if any
   were recorded, so all scenarios fail the same way. *)
let failures : string list ref = ref []
let claim name ok = if not ok then failures := name :: !failures

let time_ms f =
  let t0 = Sys.time () in
  let r = f () in
  ((Sys.time () -. t0) *. 1000., r)

let mean l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ---------------------------------------------------------------- *)
(* datasets                                                         *)
(* ---------------------------------------------------------------- *)

(* NBA size buckets as in the paper's x-axis *)
let nba_buckets = [ (14, "[1,27]"); (41, "[28,54]"); (68, "[55,81]"); (95, "[82,108]"); (122, "[109,135]") ]

(* Person size buckets *)
let person_buckets =
  [ (1000, "[1,2000]"); (3000, "[2001,4000]"); (5000, "[4001,6000]"); (7000, "[6001,8000]"); (9000, "[8001,10000]") ]

let entities_per_bucket = 3

let nba_sized size =
  Datagen.Nba.generate_sized
    { Datagen.Nba.default_params with n_entities = 0; seasons_min = 4; seasons_max = 6 }
    ~sizes:(List.init entities_per_bucket (fun i -> size + i))

let person_sized size =
  Datagen.Person.generate
    {
      Datagen.Person.default_params with
      n_entities = entities_per_bucket;
      size_min = size;
      size_max = size;
      (* richer histories for bigger buckets: active domains, and hence
         the CNF, grow with entity size as in the paper's generator *)
      extra_events = min 12 (size / 800);
    }

(* accuracy datasets (paper-scale constraint sets, moderate entity counts
   to keep the full sweep in seconds) *)
let nba_acc = lazy (Datagen.Nba.generate { Datagen.Nba.default_params with n_entities = 20 })

let career_acc =
  lazy (Datagen.Career.generate { Datagen.Career.default_params with n_entities = 30; pubs_max = 60 })

let person_acc =
  lazy
    (Datagen.Person.generate
       {
         Datagen.Person.default_params with
         n_entities = 20;
         size_min = 8;
         size_max = 18;
         extra_events = 4;
       })

(* ---------------------------------------------------------------- *)
(* Fig. 8(a): validity checking time vs entity size                 *)
(* ---------------------------------------------------------------- *)

let fig8a () =
  section "Fig 8(a): IsValid elapsed time (ms) vs entity size";
  let run name buckets mk =
    Printf.printf "%s:\n" name;
    List.iter
      (fun (size, label) ->
        let ds = mk size in
        let times =
          List.map
            (fun (case : Datagen.Types.case) ->
              let spec = Datagen.Types.spec_of ds case in
              let ms, valid =
                time_ms (fun () -> Crcore.Validity.check (Crcore.Encode.encode spec))
              in
              assert valid;
              ms)
            ds.Datagen.Types.cases
        in
        Printf.printf "  %-14s %8.1f ms\n%!" label (mean times))
      buckets
  in
  run "NBA (|Σ|=54, |Γ|=59)" nba_buckets nba_sized;
  run "Person (|Σ|=983, |Γ|=1000)" person_buckets person_sized

(* ---------------------------------------------------------------- *)
(* Fig. 8(b): DeduceOrder vs NaiveDeduce                            *)
(* ---------------------------------------------------------------- *)

let fig8b () =
  section "Fig 8(b): true-value deduction time (ms), DeduceOrder vs NaiveDeduce";
  let run name buckets mk ~with_naive =
    Printf.printf "%s:\n" name;
    List.iter
      (fun (size, label) ->
        let ds = mk size in
        let d_times = ref [] and n_times = ref [] in
        List.iter
          (fun (case : Datagen.Types.case) ->
            let spec = Datagen.Types.spec_of ds case in
            (* like the paper's Fig. 5, deduction starts from the
               specification: instantiation + CNF conversion included *)
            let ms, _ =
              time_ms (fun () -> Crcore.Deduce.deduce_order (Crcore.Encode.encode spec))
            in
            d_times := ms :: !d_times;
            if with_naive then begin
              let ms, _ =
                time_ms (fun () -> Crcore.Deduce.naive_deduce (Crcore.Encode.encode spec))
              in
              n_times := ms :: !n_times
            end)
          ds.Datagen.Types.cases;
        if with_naive then
          Printf.printf "  %-14s DeduceOrder %8.1f ms   NaiveDeduce %8.1f ms\n%!" label
            (mean !d_times) (mean !n_times)
        else Printf.printf "  %-14s DeduceOrder %8.1f ms\n%!" label (mean !d_times))
      buckets
  in
  run "NBA" nba_buckets nba_sized ~with_naive:true;
  (* the paper reports NaiveDeduce beyond 20 minutes on large Person
     entities and omits it from the plot; we run it on the small bucket *)
  run "Person" person_buckets person_sized ~with_naive:false;
  Printf.printf "Person (NaiveDeduce, smallest bucket only):\n";
  List.iter
    (fun (size, label) ->
      let ds = person_sized size in
      let times =
        List.map
          (fun (case : Datagen.Types.case) ->
            let spec = Datagen.Types.spec_of ds case in
            fst (time_ms (fun () -> Crcore.Deduce.naive_deduce (Crcore.Encode.encode spec))))
          ds.Datagen.Types.cases
      in
      Printf.printf "  %-14s NaiveDeduce %8.1f ms\n%!" label (mean times))
    [ List.nth person_buckets 0 ]

(* ---------------------------------------------------------------- *)
(* Fig. 8(c)/(d): overall time split per phase                      *)
(* ---------------------------------------------------------------- *)

let time_split name buckets mk =
  section name;
  Printf.printf "  %-14s %10s %10s %10s %10s\n" "bucket" "validity" "deduce" "suggest" "total";
  List.iter
    (fun (size, label) ->
      let ds = mk size in
      let v = ref [] and d = ref [] and s = ref [] in
      List.iter
        (fun (case : Datagen.Types.case) ->
          let spec = Datagen.Types.spec_of ds case in
          let o = Crcore.Framework.resolve ~user:(Crcore.Framework.oracle case.truth) spec in
          v := (o.Crcore.Framework.timings.Crcore.Framework.validity *. 1000.) :: !v;
          d := (o.Crcore.Framework.timings.Crcore.Framework.deduce *. 1000.) :: !d;
          s := (o.Crcore.Framework.timings.Crcore.Framework.suggest *. 1000.) :: !s)
        ds.Datagen.Types.cases;
      Printf.printf "  %-14s %8.1f ms %8.1f ms %8.1f ms %8.1f ms\n%!" label (mean !v) (mean !d)
        (mean !s)
        (mean !v +. mean !d +. mean !s))
    buckets

let fig8c () = time_split "Fig 8(c): NBA overall time per phase" nba_buckets nba_sized
let fig8d () = time_split "Fig 8(d): Person overall time per phase" person_buckets person_sized

(* ---------------------------------------------------------------- *)
(* Fig. 8(e)/(i)/(m): %-true-values vs interaction rounds           *)
(* ---------------------------------------------------------------- *)

let interactions name (ds : Datagen.Types.dataset) max_rounds =
  section name;
  let arity = Schema.arity ds.Datagen.Types.schema in
  let per_round = Array.make (max_rounds + 1) 0 in
  let total = ref 0 in
  List.iter
    (fun (case : Datagen.Types.case) ->
      let spec = Datagen.Types.spec_of ds case in
      let o =
        Crcore.Framework.resolve ~max_rounds
          ~user:(Crcore.Framework.oracle ~max_answers:3 case.truth)
          spec
      in
      total := !total + arity;
      let counts = Array.of_list o.Crcore.Framework.per_round_known in
      for r = 0 to max_rounds do
        let c = counts.(min r (Array.length counts - 1)) in
        per_round.(r) <- per_round.(r) + c
      done)
    ds.Datagen.Types.cases;
  Array.iteri
    (fun r c ->
      Printf.printf "  after %d interaction(s): %5.1f%% of true values\n%!" r
        (100. *. float_of_int c /. float_of_int !total))
    per_round

let fig8e () = interactions "Fig 8(e): NBA, true values vs #interactions" (Lazy.force nba_acc) 2
let fig8i () = interactions "Fig 8(i): CAREER, true values vs #interactions" (Lazy.force career_acc) 2
let fig8m () = interactions "Fig 8(m): Person, true values vs #interactions" (Lazy.force person_acc) 3

(* ---------------------------------------------------------------- *)
(* Fig. 8(f)-(h), (j)-(l), (n)-(p): F-measure sweeps                *)
(* ---------------------------------------------------------------- *)

type vary = Both | Sigma_only | Gamma_only

let fractions = [ 0.2; 0.4; 0.6; 0.8; 1.0 ]

let f_measure_at (ds : Datagen.Types.dataset) ~vary ~frac ~max_rounds =
  let m = ref Crcore.Metrics.zero in
  List.iter
    (fun (case : Datagen.Types.case) ->
      let sigma_frac, gamma_frac =
        match vary with
        | Both -> (frac, frac)
        | Sigma_only -> (frac, 0.)
        | Gamma_only -> (0., frac)
      in
      let spec = Datagen.Types.spec_of ~sigma_frac ~gamma_frac ds case in
      let o =
        Crcore.Framework.resolve ~max_rounds
          ~user:(Crcore.Framework.oracle ~max_answers:2 case.truth)
          spec
      in
      m :=
        Crcore.Metrics.add !m
          (Crcore.Metrics.evaluate ~truth:case.truth ~entity:case.entity o.Crcore.Framework.resolved))
    ds.Datagen.Types.cases;
  Crcore.Metrics.f_measure !m

let pick_f (ds : Datagen.Types.dataset) ~frac =
  let m = ref Crcore.Metrics.zero in
  List.iter
    (fun (case : Datagen.Types.case) ->
      let spec = Datagen.Types.spec_of ~sigma_frac:frac ~gamma_frac:frac ds case in
      m :=
        Crcore.Metrics.add !m
          (Crcore.Metrics.evaluate_total ~truth:case.truth ~entity:case.entity
             (Crcore.Pick.run ~seed:case.id spec)))
    ds.Datagen.Types.cases;
  Crcore.Metrics.f_measure !m

let accuracy_sweep title ds ~vary ~rounds ~with_pick =
  section title;
  Printf.printf "  %-6s" "frac";
  List.iter (fun k -> Printf.printf "%14s" (Printf.sprintf "%d-interaction" k)) rounds;
  if with_pick then Printf.printf "%14s" "Pick";
  print_newline ();
  List.iter
    (fun frac ->
      Printf.printf "  %-6.1f" frac;
      List.iter
        (fun k -> Printf.printf "%14.3f" (f_measure_at ds ~vary ~frac ~max_rounds:k))
        rounds;
      if with_pick then Printf.printf "%14.3f" (pick_f ds ~frac);
      print_newline ();
      flush stdout)
    fractions

let fig8f () =
  accuracy_sweep "Fig 8(f): NBA, F-measure vs |Σ|+|Γ|" (Lazy.force nba_acc) ~vary:Both
    ~rounds:[ 0; 1; 2 ] ~with_pick:true

let fig8g () =
  accuracy_sweep "Fig 8(g): NBA, F-measure vs |Σ| (Γ = ∅)" (Lazy.force nba_acc) ~vary:Sigma_only
    ~rounds:[ 0; 1; 2 ] ~with_pick:false

let fig8h () =
  accuracy_sweep "Fig 8(h): NBA, F-measure vs |Γ| (Σ = ∅)" (Lazy.force nba_acc) ~vary:Gamma_only
    ~rounds:[ 0; 1; 2 ] ~with_pick:false

let fig8j () =
  accuracy_sweep "Fig 8(j): CAREER, F-measure vs |Σ|+|Γ|" (Lazy.force career_acc) ~vary:Both
    ~rounds:[ 0; 1; 2 ] ~with_pick:true

let fig8k () =
  accuracy_sweep "Fig 8(k): CAREER, F-measure vs |Σ| (Γ = ∅)" (Lazy.force career_acc)
    ~vary:Sigma_only ~rounds:[ 0; 1 ] ~with_pick:false

let fig8l () =
  accuracy_sweep "Fig 8(l): CAREER, F-measure vs |Γ| (Σ = ∅)" (Lazy.force career_acc)
    ~vary:Gamma_only ~rounds:[ 0; 1; 2 ] ~with_pick:false

let fig8n () =
  accuracy_sweep "Fig 8(n): Person, F-measure vs |Σ|+|Γ|" (Lazy.force person_acc) ~vary:Both
    ~rounds:[ 0; 1; 2; 3 ] ~with_pick:true

let fig8o () =
  accuracy_sweep "Fig 8(o): Person, F-measure vs |Σ| (Γ = ∅)" (Lazy.force person_acc)
    ~vary:Sigma_only ~rounds:[ 0; 1; 2; 3 ] ~with_pick:false

let fig8p () =
  accuracy_sweep "Fig 8(p): Person, F-measure vs |Γ| (Σ = ∅)" (Lazy.force person_acc)
    ~vary:Gamma_only ~rounds:[ 0; 1; 2 ] ~with_pick:false

(* ---------------------------------------------------------------- *)
(* Summary: the paper's headline claims                             *)
(* ---------------------------------------------------------------- *)

let summary () =
  section "Summary: headline comparisons (oracle user, averaged as in the paper)";
  let datasets =
    [ ("NBA", Lazy.force nba_acc); ("CAREER", Lazy.force career_acc); ("Person", Lazy.force person_acc) ]
  in
  (* the paper's +201% compares the method's Fig. 8(f,j,n) curves against
     Pick across the whole sweep; we average the top interaction curve
     against Pick over the same fractions *)
  let ratios = ref [] in
  List.iter
    (fun (name, ds) ->
      let f_both = f_measure_at ds ~vary:Both ~frac:1.0 ~max_rounds:3 in
      let f_sigma = f_measure_at ds ~vary:Sigma_only ~frac:1.0 ~max_rounds:3 in
      let f_gamma = f_measure_at ds ~vary:Gamma_only ~frac:1.0 ~max_rounds:3 in
      let f_pick = pick_f ds ~frac:1.0 in
      List.iter
        (fun frac ->
          let ours = f_measure_at ds ~vary:Both ~frac ~max_rounds:3 in
          let pick = pick_f ds ~frac in
          if pick > 0.01 then ratios := (ours /. pick) :: !ratios)
        fractions;
      Printf.printf
        "  %-8s F(Σ+Γ) = %.3f   F(Σ only) = %.3f   F(Γ only) = %.3f   F(Pick) = %.3f\n%!" name
        f_both f_sigma f_gamma f_pick)
    datasets;
  let avg_ratio = mean !ratios in
  Printf.printf
    "\n  average improvement of Σ+Γ over Pick across the sweeps: +%.0f%% (paper: +201%%)\n%!"
    (100. *. (avg_ratio -. 1.))

(* ---------------------------------------------------------------- *)
(* Ablations                                                        *)
(* ---------------------------------------------------------------- *)

let ablation_encoding () =
  section "Ablation A1: paper encoding vs exact (totality) encoding";
  Printf.printf "  %-14s %12s %12s %12s %12s %8s\n" "Person bucket" "clauses(P)" "clauses(E)"
    "IsValid(P)" "IsValid(E)" "agree";
  List.iter
    (fun (size, label) ->
      let ds = person_sized size in
      let cp = ref [] and ce = ref [] and tp = ref [] and te = ref [] in
      let agree = ref true in
      List.iter
        (fun (case : Datagen.Types.case) ->
          let spec = Datagen.Types.spec_of ds case in
          let msp, (vp, np) =
            time_ms (fun () ->
                let e = Crcore.Encode.encode ~mode:Crcore.Encode.Paper spec in
                (Crcore.Validity.check e, Sat.Cnf.nclauses e.Crcore.Encode.cnf))
          in
          let mse, (ve, ne) =
            time_ms (fun () ->
                let e = Crcore.Encode.encode ~mode:Crcore.Encode.Exact spec in
                (Crcore.Validity.check e, Sat.Cnf.nclauses e.Crcore.Encode.cnf))
          in
          if vp <> ve then agree := false;
          cp := float_of_int np :: !cp;
          ce := float_of_int ne :: !ce;
          tp := msp :: !tp;
          te := mse :: !te)
        ds.Datagen.Types.cases;
      Printf.printf "  %-14s %12.0f %12.0f %9.1f ms %9.1f ms %8b\n%!" label (mean !cp) (mean !ce)
        (mean !tp) (mean !te) !agree;
      claim (Printf.sprintf "ablation_encoding: IsValid paper == exact (%s)" label) !agree)
    person_buckets

let ablation_clique () =
  section "Ablation A2: exact max-clique vs greedy inside Suggest";
  Printf.printf "  %-14s %16s %16s %12s %12s\n" "NBA bucket" "|clique| exact" "|clique| greedy"
    "t exact" "t greedy";
  List.iter
    (fun (size, label) ->
      let ds = nba_sized size in
      let se = ref [] and sg = ref [] and t_ex = ref [] and t_gr = ref [] in
      List.iter
        (fun (case : Datagen.Types.case) ->
          let spec = Datagen.Types.spec_of ds case in
          let enc = Crcore.Encode.encode spec in
          if Crcore.Validity.check enc then begin
            let d = Crcore.Deduce.deduce_order enc in
            let known = Crcore.Deduce.true_values d in
            let rules = Crcore.Rules.derive_rules d ~known in
            let g = Crcore.Rules.compatibility_graph rules in
            let ms_e, r_exact = time_ms (fun () -> Clique.Maxclique.exact g) in
            let ms_g, c_greedy = time_ms (fun () -> Clique.Maxclique.greedy g) in
            se := float_of_int (List.length r_exact.Clique.Maxclique.clique) :: !se;
            sg := float_of_int (List.length c_greedy) :: !sg;
            t_ex := ms_e :: !t_ex;
            t_gr := ms_g :: !t_gr
          end)
        ds.Datagen.Types.cases;
      Printf.printf "  %-14s %16.1f %16.1f %9.2f ms %9.2f ms\n%!" label (mean !se) (mean !sg)
        (mean !t_ex) (mean !t_gr))
    nba_buckets

let ablation_maxsat () =
  section "Ablation A3: exact MaxSAT vs WalkSAT for suggestion repair";
  Printf.printf "  %-14s %10s %10s %14s %14s\n" "NBA bucket" "t exact" "t walksat" "kept exact"
    "kept walksat";
  List.iter
    (fun (size, label) ->
      let ds = nba_sized size in
      let te = ref [] and tw = ref [] and ke = ref [] and kw = ref [] in
      List.iter
        (fun (case : Datagen.Types.case) ->
          let spec = Datagen.Types.spec_of ds case in
          let enc = Crcore.Encode.encode spec in
          if Crcore.Validity.check enc then begin
            let d = Crcore.Deduce.deduce_order enc in
            let known = Crcore.Deduce.true_values d in
            let ms_e, s_e =
              time_ms (fun () -> Crcore.Rules.suggest ~repair:Crcore.Rules.Exact_maxsat d ~known)
            in
            let ms_w, s_w =
              time_ms (fun () -> Crcore.Rules.suggest ~repair:Crcore.Rules.Walksat d ~known)
            in
            te := ms_e :: !te;
            tw := ms_w :: !tw;
            ke := float_of_int s_e.Crcore.Rules.repaired_clique_size :: !ke;
            kw := float_of_int s_w.Crcore.Rules.repaired_clique_size :: !kw
          end)
        ds.Datagen.Types.cases;
      Printf.printf "  %-14s %7.1f ms %7.1f ms %14.1f %14.1f\n%!" label (mean !te) (mean !tw)
        (mean !ke) (mean !kw))
    nba_buckets

(* ---------------------------------------------------------------- *)
(* Batch: incremental engine vs naive per-entity loop               *)
(* ---------------------------------------------------------------- *)

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ((Unix.gettimeofday () -. t0) *. 1000., r)

(* unwrap an item outcome in scenarios that inject no faults *)
let ir_result (r : Crcore.Engine.item_result) =
  match r.Crcore.Engine.outcome with
  | Ok res -> res
  | Error e ->
      failwith
        (Printf.sprintf "bench: unexpected entity error [%s]: %s" r.Crcore.Engine.label
           e.Crcore.Engine.exn)

(* [Datagen.Types.spec_of] rebuilds the Σ/Γ lists per case, so batch items
   carry structurally equal but physically distinct lists. Share them
   physically — both resolution paths receive the same items, and the
   encoder's compiled-constraint reuse keys on physical identity. *)
let intern_items items =
  match items with
  | [] -> []
  | (first : Crcore.Engine.item) :: _ ->
      let cs = first.Crcore.Engine.spec.Crcore.Spec.sigma in
      let cg = first.Crcore.Engine.spec.Crcore.Spec.gamma in
      List.map
        (fun (it : Crcore.Engine.item) ->
          let s = it.Crcore.Engine.spec in
          let sigma = if s.Crcore.Spec.sigma = cs then cs else s.Crcore.Spec.sigma in
          let gamma = if s.Crcore.Spec.gamma = cg then cg else s.Crcore.Spec.gamma in
          { it with Crcore.Engine.spec = { s with Crcore.Spec.sigma; gamma } })
        items

(* Resolve a generated Person relation entity-by-entity twice: once as a
   plain Framework.resolve loop (one encoding + fresh solvers per phase
   per round), once through Engine.run_batch with incremental solver
   sessions and the encoding cache. A stingy oracle (one answer per
   round) forces multi-round interactions, the workload the incremental
   Se ⊕ Ot path exists for. Emits machine-readable results to [json]. *)
let batch_sized ~n_entities ~json () =
  section
    (Printf.sprintf "Batch: %d Person entities, incremental engine vs naive loop" n_entities);
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities;
        size_min = 4;
        size_max = 10;
        extra_events = 2;
      }
  in
  let items =
    List.map
      (fun (case : Datagen.Types.case) ->
        {
          Crcore.Engine.label = string_of_int case.Datagen.Types.id;
          spec = Datagen.Types.spec_of ds case;
          user = Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth;
        })
      ds.Datagen.Types.cases
  in
  let items = intern_items items in
  (* Warm-up: run both sides once untimed. The first pass through either
     path pays one-time process costs — heap expansion, page faults — that
     land on whichever side runs first and on whatever phase allocates
     most; warming both and compacting before each timed run measures the
     steady state the comparison is actually about. run_batch creates a
     fresh cache per call, but the domain-local template memo outlives it
     by design, so the timed run serves from a compiled template — exactly
     the steady state a long-lived resolver sits in. *)
  List.iter
    (fun (it : Crcore.Engine.item) ->
      ignore (Crcore.Framework.resolve ~user:it.Crcore.Engine.user it.Crcore.Engine.spec))
    items;
  ignore
    (Crcore.Engine.run_batch ~config:{ Crcore.Engine.default_config with lint = false } items);
  Gc.compact ();
  let naive_ms, naive_outcomes =
    wall_ms (fun () ->
        List.map
          (fun (it : Crcore.Engine.item) ->
            Crcore.Framework.resolve ~user:it.Crcore.Engine.user it.Crcore.Engine.spec)
          items)
  in
  (* lint off on both sides: this scenario isolates incremental sessions +
     the template cache against the naive loop (which never lints); the
     lint pre-phase has its own off-vs-on scenario below *)
  Gc.compact ();
  let engine_ms, (results, stats) =
    wall_ms (fun () ->
        Crcore.Engine.run_batch ~config:{ Crcore.Engine.default_config with lint = false } items)
  in
  let equivalent =
    List.for_all2
      (fun (o : Crcore.Framework.outcome) (r : Crcore.Engine.item_result) ->
        let res = ir_result r in
        o.Crcore.Framework.resolved = res.Crcore.Engine.resolved
        && o.Crcore.Framework.valid = res.Crcore.Engine.valid
        && o.Crcore.Framework.rounds = res.Crcore.Engine.rounds)
      naive_outcomes results
  in
  let per_sec ms = if ms <= 0. then 0. else 1000. *. float_of_int n_entities /. ms in
  let speedup = if engine_ms <= 0. then 0. else naive_ms /. engine_ms in
  Printf.printf "  naive Framework.resolve loop: %8.1f ms  (%7.1f entities/s)\n" naive_ms
    (per_sec naive_ms);
  Printf.printf "  Engine.run_batch:             %8.1f ms  (%7.1f entities/s)\n" engine_ms
    (per_sec engine_ms);
  Printf.printf "  speedup: %.2fx   identical results: %b\n" speedup equivalent;
  claim "batch: engine == naive Framework loop" equivalent;
  Format.printf "  %a@." Crcore.Engine.pp_stats stats;
  (* Template ratchet: the batch is n distinct entities of one shape
     (same schema, same interned Σ/Γ), so every initial encoding after
     the first must instantiate the shared compiled template, scoring
     (n-1)/n. Enforced on full-size runs; smoke batches are too small for
     a meaningful ratio. *)
  Printf.printf "  templates: %d hit(s) / %d miss(es), hit_ratio %.3f\n"
    stats.Crcore.Engine.template_hits stats.Crcore.Engine.template_misses
    stats.Crcore.Engine.template_hit_ratio;
  Printf.printf "  encode alloc: %.0f minor words (%.0f words/entity)\n"
    stats.Crcore.Engine.encode_alloc_words
    (stats.Crcore.Engine.encode_alloc_words /. float_of_int n_entities);
  if n_entities >= 100 then
    claim "batch: template_hit_ratio >= 0.9 on distinct same-shape entities"
      (stats.Crcore.Engine.template_hit_ratio >= 0.9);
  (match json with
  | None -> ()
  | Some path ->
      let st = stats in
      let sv = st.Crcore.Engine.solver in
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "batch",
  "dataset": "Person",
  "n_entities": %d,
  "cores_available": %d,
  "total_rounds": %d,
  "attrs_resolved": %d,
  "attrs_total": %d,
  "naive": { "wall_ms": %.3f, "entities_per_sec": %.1f },
  "engine": {
    "wall_ms": %.3f,
    "entities_per_sec": %.1f,
    "phase_ms": { "lint": %.3f, "encode": %.3f, "validity": %.3f, "deduce": %.3f, "suggest": %.3f },
    "solver": { "conflicts": %d, "decisions": %d, "propagations": %d, "restarts": %d },
    "solvers_built": %d,
    "template_hits": %d,
    "template_misses": %d,
    "template_hit_ratio": %.3f,
    "encode_alloc_words": %.0f,
    "delta_extensions": %d,
    "rebuilds": %d,
    "rebuilds_renumbered": %d,
    "rebuilds_impure": %d
  },
  "speedup": %.3f,
  "identical_results": %b
}
|}
        n_entities
        (Parallel.Pool.recommended_jobs ())
        st.Crcore.Engine.total_rounds st.Crcore.Engine.attrs_resolved
        st.Crcore.Engine.attrs_total naive_ms (per_sec naive_ms) engine_ms (per_sec engine_ms)
        st.Crcore.Engine.times.Crcore.Engine.lint_ms
        st.Crcore.Engine.times.Crcore.Engine.encode_ms
        st.Crcore.Engine.times.Crcore.Engine.validity_ms
        st.Crcore.Engine.times.Crcore.Engine.deduce_ms
        st.Crcore.Engine.times.Crcore.Engine.suggest_ms sv.Sat.Solver.conflicts
        sv.Sat.Solver.decisions sv.Sat.Solver.propagations sv.Sat.Solver.restarts
        st.Crcore.Engine.solvers_built st.Crcore.Engine.template_hits
        st.Crcore.Engine.template_misses st.Crcore.Engine.template_hit_ratio
        st.Crcore.Engine.encode_alloc_words st.Crcore.Engine.delta_extensions
        st.Crcore.Engine.rebuilds
        st.Crcore.Engine.rebuilds_renumbered st.Crcore.Engine.rebuilds_impure
        speedup equivalent;
      close_out oc;
      Printf.printf "  wrote %s\n%!" path)

let batch () = batch_sized ~n_entities:120 ~json:(Some "BENCH_batch.json") ()

(* the same head-to-head at scale: 2000 distinct Person entities — the
   regime where template sharing and per-entity allocation dominate *)
let batch2k () = batch_sized ~n_entities:2000 ~json:(Some "BENCH_batch2k.json") ()
let batch_smoke () = batch_sized ~n_entities:12 ~json:None ()

(* ---------------------------------------------------------------- *)
(* Parallel: domain-parallel run_batch vs sequential                 *)
(* ---------------------------------------------------------------- *)

let par_jobs_default () =
  match Sys.getenv_opt "CRSOLVE_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j > 0 -> j | _ -> 4)
  | None -> 4

(* The same Person workload as [batch], resolved twice through
   Engine.run_batch: jobs = 1, then jobs = N domains. The parallel run
   must produce byte-identical results in input order. Per-phase times
   under parallelism are summed across workers, so they can legitimately
   exceed wall-clock; the JSON reports both, plus the cores the runtime
   actually has — on a single-core host the speedup honestly reflects
   that there is no parallel hardware to use. Emits BENCH_par.json. *)
let par_sized ~n_entities ~jobs ~json () =
  section
    (Printf.sprintf "Parallel: %d Person entities, run_batch jobs=1 vs jobs=%d" n_entities jobs);
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities;
        size_min = 4;
        size_max = 10;
        extra_events = 2;
      }
  in
  let items =
    intern_items
      (List.map
         (fun (case : Datagen.Types.case) ->
           {
             Crcore.Engine.label = string_of_int case.Datagen.Types.id;
             spec = Datagen.Types.spec_of ds case;
             user = Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth;
           })
         ds.Datagen.Types.cases)
  in
  let no_lint = { Crcore.Engine.default_config with lint = false } in
  let best_of_3 f =
    let runs = List.init 3 (fun _ -> wall_ms f) in
    List.fold_left (fun acc r -> if fst r < fst acc then r else acc) (List.hd runs)
      (List.tl runs)
  in
  let seq_ms, (seq_results, seq_stats) =
    best_of_3 (fun () -> Crcore.Engine.run_batch ~config:no_lint items)
  in
  (* scaling curve: the requested width plus the standard 1/2/4/8 points;
     clamp off so a narrow host honestly shows the over-subscription
     penalty rather than silently shrinking the width *)
  let widths = List.sort_uniq compare (jobs :: [ 1; 2; 4; 8 ]) in
  let curve =
    List.map
      (fun j ->
        let ms, (results, stats) =
          best_of_3 (fun () ->
              Crcore.Engine.run_batch
                ~config:{ no_lint with Crcore.Engine.jobs = j; clamp_jobs = false }
                items)
        in
        let identical =
          List.for_all2
            (fun (a : Crcore.Engine.item_result) (b : Crcore.Engine.item_result) ->
              a.Crcore.Engine.label = b.Crcore.Engine.label
              && a.Crcore.Engine.outcome = b.Crcore.Engine.outcome)
            seq_results results
        in
        (j, ms, stats, identical))
      widths
  in
  let cores = Parallel.Pool.recommended_jobs () in
  (* Headline: the engine as configured in production, i.e. with the
     default clamp in force — requesting jobs=4 on a narrower host runs
     min(jobs, cores) domains. "No parallel self-sabotage" is a property
     of the engine's actual scheduling decision, so the ratchets below
     apply to this run; the forced-width curve above records what
     over-subscription would have cost. *)
  let jobs_effective = min jobs cores in
  let par_ms, (par_results, par_stats) =
    best_of_3 (fun () ->
        Crcore.Engine.run_batch ~config:{ no_lint with Crcore.Engine.jobs } items)
  in
  let headline_identical =
    List.for_all2
      (fun (a : Crcore.Engine.item_result) (b : Crcore.Engine.item_result) ->
        a.Crcore.Engine.label = b.Crcore.Engine.label
        && a.Crcore.Engine.outcome = b.Crcore.Engine.outcome)
      seq_results par_results
  in
  let identical = headline_identical && List.for_all (fun (_, _, _, i) -> i) curve in
  let speedup_of ms = if ms <= 0. then 0. else seq_ms /. ms in
  let speedup = speedup_of par_ms in
  let encode_sum (st : Crcore.Engine.stats) = st.Crcore.Engine.times.Crcore.Engine.encode_ms in
  Printf.printf "  sequential (jobs=1):  %8.1f ms   (%d core(s) available)\n" seq_ms cores;
  List.iter
    (fun (j, ms, st, _) ->
      Printf.printf
        "  jobs=%d: %8.1f ms  speedup %.2fx  encode sum %7.1f ms  encode alloc %.0f words\n" j
        ms (speedup_of ms) (encode_sum st) st.Crcore.Engine.encode_alloc_words)
    curve;
  Printf.printf
    "  headline (jobs=%d requested, %d effective): %8.1f ms  speedup %.2fx   identical results \
     (all widths): %b\n"
    jobs jobs_effective par_ms speedup identical;
  claim "par: parallel results == sequential results" identical;
  Format.printf "  %a@." Crcore.Engine.pp_stats par_stats;
  (* Parallel-overhead ratchets (full-size runs only), on the headline
     (clamped) run: per-domain scratch arenas and the pool's enlarged
     minor heap must keep the summed encode phase at the effective width
     within 1.5x the sequential sum, and the wall clock no worse than
     ~sequential even on a single-core host — on 1 core the clamp makes
     jobs=4 run one domain, so anything below ~1.0x would mean the
     parallel plumbing itself taxes the sequential path. *)
  if n_entities >= 100 then begin
    claim
      (Printf.sprintf "par: jobs=%d summed encode phase <= 1.5x sequential" jobs)
      (encode_sum par_stats <= (1.5 *. encode_sum seq_stats) +. 1e-9);
    claim (Printf.sprintf "par: jobs=%d speedup >= 0.9x" jobs) (speedup >= 0.9)
  end;
  match json with
  | None -> ()
  | Some path ->
      let pt (st : Crcore.Engine.stats) = st.Crcore.Engine.times in
      let scaling_json =
        String.concat ",\n"
          (List.map
             (fun (j, ms, st, ident) ->
               Printf.sprintf
                 "    { \"jobs\": %d, \"wall_ms\": %.3f, \"speedup\": %.3f, \
                  \"encode_ms_sum\": %.3f, \"encode_alloc_words\": %.0f, \
                  \"identical_results\": %b }"
                 j ms (speedup_of ms) (encode_sum st) st.Crcore.Engine.encode_alloc_words
                 ident)
             curve)
      in
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "par",
  "dataset": "Person",
  "n_entities": %d,
  "jobs": %d,
  "jobs_effective": %d,
  "cores_available": %d,
  "sequential": {
    "wall_ms": %.3f,
    "phase_ms_sum": { "lint": %.3f, "encode": %.3f, "validity": %.3f, "deduce": %.3f, "suggest": %.3f },
    "encode_alloc_words": %.0f
  },
  "parallel": {
    "wall_ms": %.3f,
    "phase_ms_sum": { "lint": %.3f, "encode": %.3f, "validity": %.3f, "deduce": %.3f, "suggest": %.3f },
    "encode_alloc_words": %.0f,
    "template_hit_ratio": %.3f,
    "rebuilds_renumbered": %d,
    "rebuilds_impure": %d
  },
  "scaling": [
%s
  ],
  "speedup": %.3f,
  "identical_results": %b
}
|}
        n_entities jobs jobs_effective cores seq_ms (pt seq_stats).Crcore.Engine.lint_ms
        (pt seq_stats).Crcore.Engine.encode_ms (pt seq_stats).Crcore.Engine.validity_ms
        (pt seq_stats).Crcore.Engine.deduce_ms (pt seq_stats).Crcore.Engine.suggest_ms
        seq_stats.Crcore.Engine.encode_alloc_words par_ms
        (pt par_stats).Crcore.Engine.lint_ms (pt par_stats).Crcore.Engine.encode_ms
        (pt par_stats).Crcore.Engine.validity_ms (pt par_stats).Crcore.Engine.deduce_ms
        (pt par_stats).Crcore.Engine.suggest_ms par_stats.Crcore.Engine.encode_alloc_words
        par_stats.Crcore.Engine.template_hit_ratio
        par_stats.Crcore.Engine.rebuilds_renumbered par_stats.Crcore.Engine.rebuilds_impure
        scaling_json speedup identical;
      close_out oc;
      Printf.printf "  wrote %s\n%!" path

let par () = par_sized ~n_entities:120 ~jobs:(par_jobs_default ()) ~json:(Some "BENCH_par.json") ()

let par_smoke () =
  par_sized ~n_entities:12 ~jobs:(par_jobs_default ()) ~json:(Some "BENCH_par_smoke.json") ()

(* ---------------------------------------------------------------- *)
(* Deduce: backbone vs naive vs unit propagation                     *)
(* ---------------------------------------------------------------- *)

(* Complete deduction head-to-head on the batch workload. Per entity
   (fresh encoding, no shared session — the standalone cost): wall time,
   SAT calls and facts for unit propagation (deduce_order), NaiveDeduce
   and backbone; backbone and naive must deduce identical orders, which
   this scenario enforces (CI runs it on the smoke batch). Then the
   engine-level effect: run_batch with config.deduce = backbone (the
   default) against deduce_order — complete deduction resolves more
   attributes per round, so fewer Se ⊕ Ot extensions, fewer
   Null-enters-universe renumberings, and fewer solvers built.
   Emits BENCH_deduce.json
   (the smoke run BENCH_deduce_smoke.json). *)
let deduce_sized ~n_entities ~json () =
  section
    (Printf.sprintf "Deduce: %d Person entities, backbone vs naive vs unit propagation"
       n_entities);
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities;
        size_min = 4;
        size_max = 10;
        extra_events = 2;
      }
  in
  let specs = List.map (Datagen.Types.spec_of ds) ds.Datagen.Types.cases in
  let sorted_pairs (d : Crcore.Deduce.t) =
    Array.map
      (fun o -> List.sort compare (Porder.Strict_order.pairs o))
      d.Crcore.Deduce.od
  in
  let u_ms = ref 0. and n_ms = ref 0. and b_ms = ref 0. in
  let u_facts = ref 0 and n_facts = ref 0 and b_facts = ref 0 in
  let n_calls = ref 0 and b_calls = ref 0 in
  let b_probes = ref 0 and b_prunes = ref 0 and b_seeded = ref 0 in
  let nvars_total = ref 0 in
  let identical = ref true in
  List.iter
    (fun spec ->
      let enc = Crcore.Encode.encode spec in
      nvars_total := !nvars_total + enc.Crcore.Encode.cnf.Sat.Cnf.nvars;
      let ms, u = wall_ms (fun () -> Crcore.Deduce.deduce_order enc) in
      u_ms := !u_ms +. ms;
      u_facts := !u_facts + Crcore.Deduce.n_facts u;
      let ms, n = wall_ms (fun () -> Crcore.Deduce.naive_deduce enc) in
      n_ms := !n_ms +. ms;
      n_facts := !n_facts + Crcore.Deduce.n_facts n;
      n_calls := !n_calls + n.Crcore.Deduce.stats.Crcore.Deduce.sat_calls;
      let ms, b = wall_ms (fun () -> Crcore.Deduce.backbone enc) in
      b_ms := !b_ms +. ms;
      b_facts := !b_facts + Crcore.Deduce.n_facts b;
      let st = b.Crcore.Deduce.stats in
      b_calls := !b_calls + st.Crcore.Deduce.sat_calls;
      b_probes := !b_probes + st.Crcore.Deduce.probes;
      b_prunes := !b_prunes + st.Crcore.Deduce.model_prunes;
      b_seeded := !b_seeded + st.Crcore.Deduce.seeded;
      if sorted_pairs b <> sorted_pairs n then identical := false)
    specs;
  let ratio = if !b_calls = 0 then 0. else float_of_int !n_calls /. float_of_int !b_calls in
  Printf.printf "  unit propagation: %8.1f ms                     %6d facts\n" !u_ms !u_facts;
  Printf.printf "  naive_deduce:     %8.1f ms  %7d SAT calls  %6d facts\n" !n_ms !n_calls
    !n_facts;
  Printf.printf "  backbone:         %8.1f ms  %7d SAT calls  %6d facts\n" !b_ms !b_calls
    !b_facts;
  Printf.printf
    "  backbone detail: %d probe(s), %d model-prune(s), %d seeded over %d var(s)\n"
    !b_probes !b_prunes !b_seeded !nvars_total;
  Printf.printf "  SAT-call ratio naive/backbone: %.1fx   identical orders: %b\n" ratio
    !identical;
  claim "deduce: backbone orders == naive_deduce orders" !identical;
  (* engine effect: complete deduction cuts interaction rounds *)
  let items =
    intern_items
      (List.map
         (fun (case : Datagen.Types.case) ->
           {
             Crcore.Engine.label = string_of_int case.Datagen.Types.id;
             spec = Datagen.Types.spec_of ds case;
             user = Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth;
           })
         ds.Datagen.Types.cases)
  in
  let run_with deduce =
    wall_ms (fun () ->
        Crcore.Engine.run_batch
          ~config:{ Crcore.Engine.default_config with lint = false; deduce }
          items)
  in
  let up_ms, (up_results, up_stats) = run_with Crcore.Deduce.deduce_order in
  let bb_ms, (bb_results, bb_stats) = run_with Crcore.Deduce.backbone in
  let same_resolved =
    List.for_all2
      (fun (a : Crcore.Engine.item_result) (b : Crcore.Engine.item_result) ->
        (ir_result a).Crcore.Engine.resolved = (ir_result b).Crcore.Engine.resolved)
      up_results bb_results
  in
  let line name ms (st : Crcore.Engine.stats) =
    Printf.printf
      "  engine (%-12s): %8.1f ms, %d round(s), %d solver(s) built (%d renumbered, %d delta), %d reused phase(s)\n"
      name ms st.Crcore.Engine.total_rounds st.Crcore.Engine.solvers_built
      st.Crcore.Engine.rebuilds_renumbered st.Crcore.Engine.delta_extensions
      st.Crcore.Engine.solvers_reused
  in
  line "deduce_order" up_ms up_stats;
  line "backbone" bb_ms bb_stats;
  Printf.printf "  same final resolutions: %b\n%!" same_resolved;
  claim "deduce: engine resolutions backbone == deduce_order" same_resolved;
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "deduce",
  "dataset": "Person",
  "n_entities": %d,
  "cores_available": %d,
  "nvars_total": %d,
  "unit_prop": { "wall_ms": %.3f, "sat_calls": 0, "facts": %d },
  "naive": { "wall_ms": %.3f, "sat_calls": %d, "facts": %d },
  "backbone": {
    "wall_ms": %.3f,
    "sat_calls": %d,
    "probes": %d,
    "model_prunes": %d,
    "seeded": %d,
    "facts": %d
  },
  "sat_call_ratio_naive_over_backbone": %.3f,
  "identical_orders": %b,
  "engine": {
    "deduce_order": { "wall_ms": %.3f, "total_rounds": %d, "solvers_built": %d, "rebuilds_renumbered": %d, "delta_extensions": %d, "solvers_reused": %d, "deduce_sat_calls": %d },
    "backbone":     { "wall_ms": %.3f, "total_rounds": %d, "solvers_built": %d, "rebuilds_renumbered": %d, "delta_extensions": %d, "solvers_reused": %d, "deduce_sat_calls": %d },
    "same_final_resolutions": %b
  }
}
|}
        n_entities
        (Parallel.Pool.recommended_jobs ())
        !nvars_total !u_ms !u_facts !n_ms !n_calls !n_facts !b_ms !b_calls
        !b_probes !b_prunes !b_seeded !b_facts ratio !identical up_ms
        up_stats.Crcore.Engine.total_rounds up_stats.Crcore.Engine.solvers_built
        up_stats.Crcore.Engine.rebuilds_renumbered up_stats.Crcore.Engine.delta_extensions
        up_stats.Crcore.Engine.solvers_reused up_stats.Crcore.Engine.deduce_sat_calls bb_ms
        bb_stats.Crcore.Engine.total_rounds bb_stats.Crcore.Engine.solvers_built
        bb_stats.Crcore.Engine.rebuilds_renumbered bb_stats.Crcore.Engine.delta_extensions
        bb_stats.Crcore.Engine.solvers_reused bb_stats.Crcore.Engine.deduce_sat_calls
        same_resolved;
      close_out oc;
      Printf.printf "  wrote %s\n%!" path)

let deduce () = deduce_sized ~n_entities:120 ~json:(Some "BENCH_deduce.json") ()
let deduce_smoke () = deduce_sized ~n_entities:12 ~json:(Some "BENCH_deduce_smoke.json") ()

(* ---------------------------------------------------------------- *)
(* Saturate pre-phase: static closure replacing deduction probes     *)
(* ---------------------------------------------------------------- *)

(* The engine with the static saturation pre-phase on vs off: identical
   resolutions (the closure facts are level-0 implied by Φ), but with the
   pre-phase on the complete Paper-mode closure is handed to the backbone
   deducer as pre-confirmed facts, so deduction skips its level-0 read
   and those probes. Also times raw saturation per encoding against
   the backbone it provably under-approximates. Emits BENCH_saturate.json
   (the smoke run BENCH_saturate_smoke.json). *)
let saturate_sized ~n_entities ~json () =
  section
    (Printf.sprintf "Saturate: %d Person entities, static pre-phase on vs off" n_entities);
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities;
        size_min = 4;
        size_max = 10;
        extra_events = 2;
      }
  in
  let items =
    intern_items
      (List.map
         (fun (case : Datagen.Types.case) ->
           {
             Crcore.Engine.label = string_of_int case.Datagen.Types.id;
             spec = Datagen.Types.spec_of ds case;
             user = Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth;
           })
         ds.Datagen.Types.cases)
  in
  (* interned Σ/Γ: the plan memo keys on physical template identity, as a
     batch would present it *)
  let specs = List.map (fun (it : Crcore.Engine.item) -> it.Crcore.Engine.spec) items in
  (* raw phase cost: saturation closure vs the SAT backbone per encoding *)
  let sat_ms = ref 0. and bb_ms = ref 0. in
  let closure_facts = ref 0 and backbone_facts = ref 0 in
  let complete_closures = ref 0 in
  let tmpl_h0, tmpl_m0 = Crcore.Saturate.template_stats () in
  List.iter
    (fun spec ->
      let enc = Crcore.Encode.encode spec in
      let ms, cl = wall_ms (fun () -> Crcore.Saturate.of_encode enc) in
      sat_ms := !sat_ms +. ms;
      closure_facts := !closure_facts + Crcore.Saturate.n_facts cl;
      if Crcore.Saturate.complete cl then incr complete_closures;
      if Crcore.Saturate.refutation cl = None then begin
        let ms, b = wall_ms (fun () -> Crcore.Deduce.backbone enc) in
        bb_ms := !bb_ms +. ms;
        backbone_facts := !backbone_facts + Crcore.Deduce.n_facts b
      end)
    specs;
  let tmpl_h1, tmpl_m1 = Crcore.Saturate.template_stats () in
  Printf.printf "  saturation: %8.1f ms  %6d closure fact(s), %d/%d complete\n" !sat_ms
    !closure_facts !complete_closures (List.length specs);
  Printf.printf "  backbone:   %8.1f ms  %6d fact(s)\n" !bb_ms !backbone_facts;
  Printf.printf "  template plan memo: %d hit(s), %d miss(es)\n" (tmpl_h1 - tmpl_h0)
    (tmpl_m1 - tmpl_m0);
  claim "saturate: closure never exceeds the backbone" (!closure_facts <= !backbone_facts);
  (* engine effect: pre-phase on vs off, same oracle-driven batch *)
  let run saturate =
    wall_ms (fun () ->
        Crcore.Engine.run_batch
          ~config:{ Crcore.Engine.default_config with lint = false; saturate }
          items)
  in
  let on_ms, (on_results, on_stats) = run true in
  let off_ms, (off_results, off_stats) = run false in
  let same_resolved =
    List.for_all2
      (fun (a : Crcore.Engine.item_result) (b : Crcore.Engine.item_result) ->
        (ir_result a).Crcore.Engine.resolved = (ir_result b).Crcore.Engine.resolved)
      on_results off_results
  in
  let solve_deduce (st : Crcore.Engine.stats) =
    st.Crcore.Engine.times.Crcore.Engine.validity_ms
    +. st.Crcore.Engine.times.Crcore.Engine.deduce_ms
  in
  let line name ms (st : Crcore.Engine.stats) =
    Printf.printf
      "  engine (%-3s): %8.1f ms, saturate %6.1f ms, solve+deduce %8.1f ms, %d static fact(s), %d probe(s) avoided, %d deduce probe(s)\n"
      name ms st.Crcore.Engine.times.Crcore.Engine.saturate_ms (solve_deduce st)
      st.Crcore.Engine.static_facts st.Crcore.Engine.probes_avoided
      st.Crcore.Engine.deduce_probes
  in
  line "on" on_ms on_stats;
  line "off" off_ms off_stats;
  Printf.printf "  same final resolutions: %b\n%!" same_resolved;
  claim "saturate: engine resolutions identical with pre-phase on and off" same_resolved;
  claim "saturate: static facts derived on the Person batch"
    (on_stats.Crcore.Engine.static_facts > 0);
  claim "saturate: probes avoided on the Person batch"
    (on_stats.Crcore.Engine.probes_avoided > 0);
  claim "saturate: pre-phase off derives nothing statically"
    (off_stats.Crcore.Engine.static_facts = 0 && off_stats.Crcore.Engine.probes_avoided = 0);
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "saturate",
  "dataset": "Person",
  "n_entities": %d,
  "cores_available": %d,
  "phase": {
    "saturation": { "wall_ms": %.3f, "closure_facts": %d, "complete": %d },
    "backbone": { "wall_ms": %.3f, "facts": %d },
    "template_memo": { "hits": %d, "misses": %d }
  },
  "engine": {
    "on":  { "wall_ms": %.3f, "saturate_ms": %.3f, "solve_deduce_ms": %.3f, "static_facts": %d, "probes_avoided": %d, "deduce_probes": %d, "deduce_sat_calls": %d },
    "off": { "wall_ms": %.3f, "saturate_ms": %.3f, "solve_deduce_ms": %.3f, "static_facts": %d, "probes_avoided": %d, "deduce_probes": %d, "deduce_sat_calls": %d },
    "same_final_resolutions": %b
  }
}
|}
        n_entities
        (Parallel.Pool.recommended_jobs ())
        !sat_ms !closure_facts !complete_closures !bb_ms !backbone_facts
        (tmpl_h1 - tmpl_h0) (tmpl_m1 - tmpl_m0) on_ms
        on_stats.Crcore.Engine.times.Crcore.Engine.saturate_ms (solve_deduce on_stats)
        on_stats.Crcore.Engine.static_facts on_stats.Crcore.Engine.probes_avoided
        on_stats.Crcore.Engine.deduce_probes on_stats.Crcore.Engine.deduce_sat_calls off_ms
        off_stats.Crcore.Engine.times.Crcore.Engine.saturate_ms (solve_deduce off_stats)
        off_stats.Crcore.Engine.static_facts off_stats.Crcore.Engine.probes_avoided
        off_stats.Crcore.Engine.deduce_probes off_stats.Crcore.Engine.deduce_sat_calls
        same_resolved;
      close_out oc;
      Printf.printf "  wrote %s\n%!" path)

let saturate () = saturate_sized ~n_entities:120 ~json:(Some "BENCH_saturate.json") ()
let saturate_smoke () =
  saturate_sized ~n_entities:12 ~json:(Some "BENCH_saturate_smoke.json") ()

(* ---------------------------------------------------------------- *)
(* SAT core: per-entity scaling curve of the Exact-mode engine       *)
(* ---------------------------------------------------------------- *)

(* The solver-internals scaling curve: one Person entity per size,
   resolved by the default engine in Exact mode (total-order completions
   keep backbone probes non-trivial), like the paper's fig. 8. Person
   resolution is conflict-starved (unit propagation plus saturation
   derive every implied order, so backbone probes rarely conflict), which
   makes the deduce phase propagation-bound; the eagerly emitted
   transitivity block is what grows with size. At every size the
   resolutions must be identical to the naive rebuild-everything config's
   (also Exact). Emits BENCH_satcore.json (the smoke run
   BENCH_satcore_smoke.json). *)
(* Richer histories than [person_sized]: the event count (and with it the
   per-attribute active domain, hence the CNF) grows linearly with entity
   size instead of capping at a dozen events. That is the regime where the
   solver itself — not the encoder — carries the cost. *)
let satcore_person size =
  Datagen.Person.generate
    {
      Datagen.Person.default_params with
      n_entities = 1;
      size_min = size;
      size_max = size;
      extra_events = size / 100;
      seed = 101;
    }

let satcore_sized ~sizes ~json () =
  section
    (Printf.sprintf "SAT core: Exact-mode engine, Person size(s) %s"
       (String.concat "/" (List.map string_of_int sizes)));
  let solve_deduce (st : Crcore.Engine.stats) =
    st.Crcore.Engine.times.Crcore.Engine.validity_ms
    +. st.Crcore.Engine.times.Crcore.Engine.deduce_ms
  in
  let rows =
    List.map
      (fun size ->
        let ds = satcore_person size in
        let items =
          intern_items
            (List.map
               (fun (case : Datagen.Types.case) ->
                 {
                   Crcore.Engine.label = string_of_int case.Datagen.Types.id;
                   spec = Datagen.Types.spec_of ds case;
                   user = Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth;
                 })
               ds.Datagen.Types.cases)
        in
        let run config =
          wall_ms (fun () ->
              Crcore.Engine.run_batch
                ~config:{ config with Crcore.Engine.mode = Crcore.Encode.Exact; lint = false }
                items)
        in
        (* Warm-up: one untimed pass first. It pays the one-time process
           costs (heap expansion, page faults for the large clause arenas)
           that would otherwise land on the first timed run. *)
        ignore (run Crcore.Engine.default_config);
        Gc.compact ();
        (* Two timed runs, compacting in between; the row reports the
           MINIMUM. Timing noise on a shared box is additive (scheduler
           steal and neighbours only ever slow a run down), so the minimum
           is the best estimator of the uncontended time. Counters are
           deterministic — only the times differ between the runs. *)
        let ms1, (results, st1) = run Crcore.Engine.default_config in
        Gc.compact ();
        let ms2, (_, st2) = run Crcore.Engine.default_config in
        Gc.compact ();
        let ms = Float.min ms1 ms2 in
        let sd = Float.min (solve_deduce st1) (solve_deduce st2) in
        let naive_results, _ = snd (run Crcore.Engine.naive_config) in
        let identical =
          List.for_all2
            (fun (a : Crcore.Engine.item_result) (b : Crcore.Engine.item_result) ->
              (ir_result a).Crcore.Engine.resolved = (ir_result b).Crcore.Engine.resolved
              && (ir_result a).Crcore.Engine.valid = (ir_result b).Crcore.Engine.valid)
            results naive_results
        in
        let sv = st1.Crcore.Engine.solver in
        Printf.printf
          "  size %5d: %8.1f ms wall, solve+deduce %8.1f ms, %d conflict(s), %d \
           propagation(s), %d probe(s), lbd %.2f, kept %d / deleted %d, %d binarie(s)\n"
          size ms sd sv.Sat.Solver.conflicts sv.Sat.Solver.propagations
          st1.Crcore.Engine.deduce_probes (Sat.Solver.lbd_avg sv)
          sv.Sat.Solver.learnts_kept sv.Sat.Solver.learnts_deleted sv.Sat.Solver.binaries;
        Printf.printf "  size %5d same final resolutions as naive: %b\n%!" size identical;
        claim (Printf.sprintf "satcore: identical resolutions at size %d" size) identical;
        (size, ms, sd, st1, identical))
      sizes
  in
  match json with
  | None -> ()
  | Some path ->
      let size_rows =
        List.map
          (fun (size, ms, sd, (st : Crcore.Engine.stats), identical) ->
            let sv = st.Crcore.Engine.solver in
            Printf.sprintf
              {|    { "size": %d, "identical_results": %b, "timed_runs": 2, "wall_ms": %.3f, "solve_deduce_ms": %.3f, "conflicts": %d, "propagations": %d, "probes": %d, "lbd_avg": %.3f, "learnts_kept": %d, "learnts_deleted": %d, "binaries": %d }|}
              size identical ms sd sv.Sat.Solver.conflicts sv.Sat.Solver.propagations
              st.Crcore.Engine.deduce_probes (Sat.Solver.lbd_avg sv)
              sv.Sat.Solver.learnts_kept sv.Sat.Solver.learnts_deleted
              sv.Sat.Solver.binaries)
          rows
      in
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "satcore",
  "dataset": "Person",
  "entities_per_size": %d,
  "cores_available": %d,
  "engine": "default config, Exact mode, lint off; times are the minimum of 2 runs",
  "reference": "naive config, Exact mode (identical_results)",
  "sizes": [
%s
  ]
}
|}
        1
        (Parallel.Pool.recommended_jobs ())
        (String.concat ",\n" size_rows);
      close_out oc;
      Printf.printf "  wrote %s\n%!" path

let satcore () =
  satcore_sized ~sizes:[ 2000; 5000; 10000 ] ~json:(Some "BENCH_satcore.json") ()

let satcore_smoke () =
  satcore_sized ~sizes:[ 2000 ] ~json:(Some "BENCH_satcore_smoke.json") ()

(* ---------------------------------------------------------------- *)
(* Lint pre-phase: statically-unsat specs skip the solver            *)
(* ---------------------------------------------------------------- *)

(* Break a spec so the linter can prove it unsatisfiable in polynomial
   time: a two-cycle in an attribute's explicit currency order between
   tuples holding different values (E001). *)
let break_spec spec =
  let entity = spec.Crcore.Spec.entity in
  let schema = Entity.schema entity in
  match Entity.tuples entity with
  | t0 :: t1 :: _ ->
      let attr =
        List.find_map
          (fun a ->
            let v0 = Tuple.get t0 a and v1 = Tuple.get t1 a in
            if (not (Value.is_null v0)) && (not (Value.is_null v1)) && not (Value.equal v0 v1)
            then Some (Schema.name schema a)
            else None)
          (List.init (Schema.arity schema) Fun.id)
      in
      (match attr with
      | Some a ->
          Crcore.Spec.add_order_edges spec
            [ { Crcore.Spec.attr = a; lo = 0; hi = 1 }; { Crcore.Spec.attr = a; lo = 1; hi = 0 } ]
      | None -> spec)
  | _ -> spec

(* Resolve a half-broken Person batch twice — lint pre-phase off vs on.
   Results must be identical (the linter only rejects provably-unsat
   specs); the linted run never encodes or solves the broken half, which
   is where the speedup comes from. Emits BENCH_lint.json. *)
let lint_sized ~n_entities ~size_min ~size_max ~extra_events ~json () =
  section
    (Printf.sprintf "Lint: %d Person entities, half statically broken, pre-phase off vs on"
       n_entities);
  let ds =
    Datagen.Person.generate
      { Datagen.Person.default_params with n_entities; size_min; size_max; extra_events }
  in
  let items =
    List.mapi
      (fun i (case : Datagen.Types.case) ->
        let spec = Datagen.Types.spec_of ds case in
        let spec = if i mod 2 = 1 then break_spec spec else spec in
        {
          Crcore.Engine.label = string_of_int case.Datagen.Types.id;
          spec;
          user = Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth;
        })
      ds.Datagen.Types.cases
  in
  let no_lint = { Crcore.Engine.default_config with lint = false } in
  (* best-of-3 per configuration: batches this small sit well inside GC
     noise on a single run *)
  let best_of_3 f =
    let runs = List.init 3 (fun _ -> wall_ms f) in
    List.fold_left (fun acc r -> if fst r < fst acc then r else acc) (List.hd runs)
      (List.tl runs)
  in
  let off_ms, (off_results, off_stats) =
    best_of_3 (fun () -> Crcore.Engine.run_batch ~config:no_lint items)
  in
  let on_ms, (on_results, on_stats) = best_of_3 (fun () -> Crcore.Engine.run_batch items) in
  let equivalent =
    List.for_all2
      (fun (a : Crcore.Engine.item_result) (b : Crcore.Engine.item_result) ->
        ir_result a = ir_result b)
      off_results on_results
  in
  let speedup = if on_ms <= 0. then 0. else off_ms /. on_ms in
  Printf.printf "  lint off: %8.1f ms    lint on: %8.1f ms    speedup: %.2fx\n" off_ms on_ms
    speedup;
  Printf.printf "  rejected before encoding: %d/%d    identical results: %b\n"
    on_stats.Crcore.Engine.lint_rejected n_entities equivalent;
  claim "lint: lint-on results == lint-off results" equivalent;
  Format.printf "  %a@." Crcore.Engine.pp_stats on_stats;
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "lint",
  "dataset": "Person",
  "n_entities": %d,
  "cores_available": %d,
  "broken_entities": %d,
  "lint_off": { "wall_ms": %.3f, "valid_entities": %d },
  "lint_on": {
    "wall_ms": %.3f,
    "valid_entities": %d,
    "lint_rejected": %d,
    "lint_ms": %.3f,
    "solvers_built": %d
  },
  "speedup": %.3f,
  "identical_results": %b
}
|}
        n_entities
        (Parallel.Pool.recommended_jobs ())
        (n_entities / 2) off_ms off_stats.Crcore.Engine.valid_entities on_ms
        on_stats.Crcore.Engine.valid_entities on_stats.Crcore.Engine.lint_rejected
        on_stats.Crcore.Engine.times.Crcore.Engine.lint_ms
        on_stats.Crcore.Engine.solvers_built speedup equivalent;
      close_out oc;
      Printf.printf "  wrote %s\n%!" path

let lint () =
  lint_sized ~n_entities:60 ~size_min:40 ~size_max:80 ~extra_events:12
    ~json:(Some "BENCH_lint.json") ()

let lint_smoke () =
  lint_sized ~n_entities:10 ~size_min:40 ~size_max:80 ~extra_events:12 ~json:None ()

(* ---------------------------------------------------------------- *)
(* Robustness: budgets + fault isolation under a poisoned batch      *)
(* ---------------------------------------------------------------- *)

(* A Person batch where ~5% of the entities are poisoned through the
   deterministic fault-injection harness: half of the poison simulates a
   hang (a forced budget-exhaust at the solve phase, which the conflict
   budget turns into a PickFallback degradation), half simulates a crash
   (a raise at the solve phase, which per-entity isolation turns into an
   Error outcome). The scenario compares isolation-on throughput (every
   healthy entity still resolves) against the fail_fast batch-abort
   semantics (the first crash kills the whole batch and delivers zero
   results), checks that jobs=1 and jobs=4 agree outcome-for-outcome, and
   reports the degradation histogram. Emits BENCH_robustness.json
   (the smoke run BENCH_robustness_smoke.json). *)
let robustness_sized ~n_entities ~poison_period ~json () =
  section
    (Printf.sprintf
       "Robustness: %d Person entities, 2/%d poisoned, isolation vs fail-fast" n_entities
       poison_period);
  let ds =
    Datagen.Person.generate
      {
        Datagen.Person.default_params with
        n_entities;
        size_min = 4;
        size_max = 10;
        extra_events = 2;
      }
  in
  let items =
    intern_items
      (List.map
         (fun (case : Datagen.Types.case) ->
           {
             Crcore.Engine.label = string_of_int case.Datagen.Types.id;
             spec = Datagen.Types.spec_of ds case;
             user = Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth;
           })
         ds.Datagen.Types.cases)
  in
  let exhaust_slot = 7 mod poison_period and raise_slot = 27 mod poison_period in
  let labels_at slot =
    List.filteri (fun i _ -> i mod poison_period = slot) items
    |> List.map (fun (it : Crcore.Engine.item) -> it.Crcore.Engine.label)
  in
  let exhaust_labels = labels_at exhaust_slot and raise_labels = labels_at raise_slot in
  let rule label action =
    { Crcore.Faults.label = Some label; point = Crcore.Faults.Solve; nth = 1; action }
  in
  let plan =
    List.map (fun l -> rule l Crcore.Faults.Exhaust) exhaust_labels
    @ List.map (fun l -> rule l (Crcore.Faults.Raise "bench: poisoned entity")) raise_labels
  in
  let cfg =
    {
      Crcore.Engine.default_config with
      lint = false;
      budget_conflicts = Some 20_000;
    }
  in
  Crcore.Faults.arm plan;
  Fun.protect ~finally:Crcore.Faults.disarm (fun () ->
      let iso_ms, (results, stats) =
        wall_ms (fun () -> Crcore.Engine.run_batch ~config:cfg items)
      in
      let _, (results4, _) =
        wall_ms (fun () ->
            Crcore.Engine.run_batch
              ~config:{ cfg with jobs = 4; clamp_jobs = false }
              items)
      in
      let abort_ms, aborted =
        wall_ms (fun () ->
            match Crcore.Engine.run_batch ~config:{ cfg with fail_fast = true } items with
            | _ -> false
            | exception Crcore.Faults.Injected _ -> true)
      in
      let hist_exact = ref 0 and hist_partial = ref 0 and hist_pick = ref 0 in
      let errors = ref 0 in
      List.iter
        (fun (r : Crcore.Engine.item_result) ->
          match r.Crcore.Engine.outcome with
          | Error _ -> incr errors
          | Ok res -> (
              match res.Crcore.Engine.level with
              | Crcore.Engine.Exact -> incr hist_exact
              | Crcore.Engine.PartialDeduce -> incr hist_partial
              | Crcore.Engine.PickFallback -> incr hist_pick))
        results;
      let outcome_keys rs =
        (* backtraces legitimately differ across domain schedules *)
        List.map
          (fun (r : Crcore.Engine.item_result) ->
            ( r.Crcore.Engine.label,
              match r.Crcore.Engine.outcome with
              | Ok res -> Ok res
              | Error e -> Error (e.Crcore.Engine.exn, e.Crcore.Engine.phase) ))
          rs
      in
      let deterministic = outcome_keys results = outcome_keys results4 in
      let hangs_degraded =
        List.for_all
          (fun l ->
            match
              List.find_opt (fun (r : Crcore.Engine.item_result) -> r.Crcore.Engine.label = l)
                results
            with
            | Some { Crcore.Engine.outcome = Ok res; _ } ->
                res.Crcore.Engine.level = Crcore.Engine.PickFallback
            | _ -> false)
          exhaust_labels
      in
      let healthy = n_entities - !errors in
      let per_sec ms = if ms <= 0. then 0. else 1000. *. float_of_int healthy /. ms in
      Printf.printf "  poisoned: %d hang(s) (budget-exhaust), %d crash(es) (raise)\n"
        (List.length exhaust_labels) (List.length raise_labels);
      Printf.printf "  isolation on:  %8.1f ms   %d/%d outcomes delivered  (%7.1f healthy entities/s)\n"
        iso_ms (List.length results) n_entities (per_sec iso_ms);
      Printf.printf "  fail-fast:     %8.1f ms   %s, 0 results delivered\n" abort_ms
        (if aborted then "aborted on first crash" else "did NOT abort");
      Printf.printf
        "  degradation histogram: exact=%d partial=%d pick=%d error=%d   budget-exhausted: %d\n"
        !hist_exact !hist_partial !hist_pick !errors stats.Crcore.Engine.budget_exhausted;
      Printf.printf "  jobs=1 == jobs=4: %b\n%!" deterministic;
      Format.printf "  %a@." Crcore.Engine.pp_stats stats;
      claim "robustness: every entity reports an outcome"
        (List.length results = n_entities && stats.Crcore.Engine.entities = n_entities);
      claim "robustness: crashes isolated as per-entity errors"
        (!errors = List.length raise_labels && stats.Crcore.Engine.errors = !errors);
      claim "robustness: hangs degrade to PickFallback under the budget" hangs_degraded;
      claim "robustness: fail_fast aborts the batch" aborted;
      claim "robustness: outcomes identical at jobs=1 and jobs=4" deterministic;
      match json with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Printf.fprintf oc
            {|{
  "scenario": "robustness",
  "dataset": "Person",
  "n_entities": %d,
  "cores_available": %d,
  "poisoned": { "hangs": %d, "crashes": %d },
  "budget_conflicts": 20000,
  "isolation": {
    "wall_ms": %.3f,
    "healthy_entities_per_sec": %.1f,
    "outcomes_delivered": %d,
    "errors": %d,
    "budget_exhausted": %d,
    "degraded_partial": %d,
    "degraded_pick": %d,
    "histogram": { "exact": %d, "partial": %d, "pick": %d, "error": %d }
  },
  "fail_fast": { "wall_ms": %.3f, "aborted": %b, "results_delivered": 0 },
  "jobs_deterministic": %b
}
|}
            n_entities
            (Parallel.Pool.recommended_jobs ())
            (List.length exhaust_labels) (List.length raise_labels) iso_ms
            (per_sec iso_ms) (List.length results) !errors
            stats.Crcore.Engine.budget_exhausted stats.Crcore.Engine.degraded_partial
            stats.Crcore.Engine.degraded_pick !hist_exact !hist_partial !hist_pick !errors
            abort_ms aborted deterministic;
          close_out oc;
          Printf.printf "  wrote %s\n%!" path)

let robustness () =
  robustness_sized ~n_entities:120 ~poison_period:40 ~json:(Some "BENCH_robustness.json") ()

let robustness_smoke () =
  robustness_sized ~n_entities:24 ~poison_period:8
    ~json:(Some "BENCH_robustness_smoke.json") ()

(* ---------------------------------------------------------------- *)
(* Daemon: streaming delta re-resolution vs cold re-encode          *)
(* ---------------------------------------------------------------- *)

(* The crsolved workload: an interleaved multi-entity update log (tuple
   arrivals in history order plus user-asserted currency edges, from
   Datagen.Update_log) served two ways over the SAME schedule:

     incremental — a Session.Store keeps every active entity's encoding
       and solver session hot; arrivals stream through Encode.extend
       (delta clauses on unchanged universes, Σ-sweep reuse otherwise)
       and each resolve point re-runs the loop on the live session;
     cold — every resolve point rebuilds the accumulated specification
       and re-resolves from scratch, cache off (the pre-daemon cost of
       answering the same stream of requests).

   Results must match at every resolve point; the JSON reports sustained
   throughput and per-request latency percentiles for both sides. The
   stream is replayed in chunks of [chunk] entities (one shared store;
   finished entities are closed and retired) so the hot set — and the
   store's memory — stays bounded while the total entity count scales to
   10k+. A socket round trip through a real crsolved instance smokes the
   wire path. Emits BENCH_daemon.json
   (the smoke run BENCH_daemon_smoke.json). *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let daemon_person ~n_entities ~seed =
  Datagen.Person.generate
    {
      Datagen.Person.default_params with
      n_status_chains = 8;
      n_job_chains = 8;
      n_cities = 12;
      n_entities;
      (* larger entities than the micro scenarios: cold re-encode is
         quadratic in the tuple count while a coalesced delta extension
         is linear, so this is where keeping the encoding hot pays *)
      size_min = 8;
      size_max = 16;
      seed;
    }

let daemon_socket_smoke (ds : Datagen.Types.dataset) =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "crsolved-bench-%d.sock" (Unix.getpid ()))
  in
  let d =
    Crserver.Daemon.create ~sigma:ds.Datagen.Types.sigma ~gamma:ds.Datagen.Types.gamma ()
  in
  let server = Thread.create (fun () -> Crserver.Daemon.serve d ~socket_path) () in
  (* wait for the listener *)
  let rec await n =
    if n = 0 then failwith "daemon socket never appeared"
    else if Sys.file_exists socket_path then ()
    else (Thread.delay 0.02; await (n - 1))
  in
  await 250;
  let case = List.hd ds.Datagen.Types.cases in
  let schema = ds.Datagen.Types.schema in
  let csv_line values = String.trim (Csv.to_string [ values ]) in
  let header = csv_line (Schema.attr_names schema) in
  let rows =
    Entity.tuples case.Datagen.Types.entity
    |> List.map (fun t -> csv_line (List.map Value.to_string (Tuple.values t)))
  in
  let requests =
    [ "PING"; Printf.sprintf "OPEN smoke|%s" header ]
    @ List.map (fun r -> Printf.sprintf "INGEST smoke|%s" r) rows
    @ [ "RESOLVE smoke"; "BASELINE smoke|lww"; "STATS"; "SHUTDOWN" ]
  in
  let responses = Crserver.Daemon.request_many ~socket_path requests in
  Thread.join server;
  let all_ok =
    List.length responses = List.length requests
    && List.for_all
         (fun r -> String.length r >= 10 && String.sub r 0 10 = {|{"ok":true|})
         responses
  in
  (List.length requests, all_ok)

let daemon_sized ~n_entities ~chunk ~check_speedup ~json () =
  section
    (Printf.sprintf "Daemon: streaming re-resolution, %d Person entities (chunks of %d)"
       n_entities chunk);
  let module Cr = Conflict_resolution in
  let ds = daemon_person ~n_entities ~seed:2013 in
  let sigma = ds.Datagen.Types.sigma and gamma = ds.Datagen.Types.gamma in
  (* one store for the whole run: chunking bounds live sessions, not the
     cache or the retired counters *)
  let store = Cr.Session.Store.create ~config:Cr.Config.(default |> with_session_cap (chunk * 2)) () in
  let cold_config = Cr.Config.(default |> with_cache false |> to_engine) in
  let chunks =
    let rec split acc cases =
      match cases with
      | [] -> List.rev acc
      | _ ->
          let take = List.filteri (fun i _ -> i < chunk) cases in
          let rest = List.filteri (fun i _ -> i >= chunk) cases in
          split (take :: acc) rest
    in
    split [] ds.Datagen.Types.cases
  in
  let inc_lat = ref [] and cold_lat = ref [] in
  let inc_ms = ref 0. and cold_ms = ref 0. in
  let n_arrivals = ref 0 and n_orders = ref 0 and n_resolves = ref 0 in
  let mismatches = ref 0 in
  let now_ms () = Unix.gettimeofday () *. 1000. in
  List.iteri
    (fun ci cases ->
      let sub = { ds with Datagen.Types.cases = cases } in
      let log =
        Datagen.Update_log.replay
          ~params:{ Datagen.Update_log.default_params with seed = 77 + ci }
          sub
      in
      n_arrivals := !n_arrivals + log.Datagen.Update_log.n_arrivals;
      n_orders := !n_orders + log.Datagen.Update_log.n_orders;
      n_resolves := !n_resolves + log.Datagen.Update_log.n_resolves;
      (* last event index per label: closing point for session retirement *)
      let last = Hashtbl.create 64 in
      List.iteri
        (fun i ev ->
          let label =
            match ev with
            | Datagen.Update_log.Arrival { label; _ } -> label
            | Datagen.Update_log.Assert_order { label; _ } -> label
            | Datagen.Update_log.Resolve label -> label
          in
          Hashtbl.replace last label i)
        log.Datagen.Update_log.events;
      (* --- incremental pass: live sessions over the event stream ---
         Mirrors the daemon: arrivals before the first resolve buffer in a
         pending table and the session materialises — with everything seen
         so far — at the first RESOLVE; later arrivals stream into the
         live session (coalesced per resolve point by the Session layer). *)
      let inc_results = Hashtbl.create 64 in
      let pending : (string, Tuple.t list * Cr.Spec.order_edge list) Hashtbl.t =
        Hashtbl.create 64
      in
      let t0 = now_ms () in
      List.iteri
        (fun i ev ->
          let label =
            match ev with
            | Datagen.Update_log.Arrival { label; tuple } -> (
                (match Cr.Session.Store.find store label with
                | Some h -> Cr.Session.ingest h ~tuples:[ tuple ] ()
                | None ->
                    let ts, os =
                      try Hashtbl.find pending label with Not_found -> ([], [])
                    in
                    Hashtbl.replace pending label (tuple :: ts, os));
                label)
            | Datagen.Update_log.Assert_order { label; order } ->
                (match Cr.Session.Store.find store label with
                | Some h -> Cr.Session.ingest h ~orders:[ order ] ()
                | None ->
                    let ts, os = Hashtbl.find pending label in
                    Hashtbl.replace pending label (ts, order :: os));
                label
            | Datagen.Update_log.Resolve label ->
                let t = now_ms () in
                let h =
                  match Cr.Session.Store.find store label with
                  | Some h -> h
                  | None ->
                      let ts, os = Hashtbl.find pending label in
                      Hashtbl.remove pending label;
                      let h, _ =
                        Cr.Session.Store.get_or_create store label ~spec:(fun () ->
                            Cr.Spec.make
                              (Entity.make ds.Datagen.Types.schema (List.rev ts))
                              ~orders:(List.rev os) ~sigma ~gamma)
                      in
                      h
                in
                let r, _ = Cr.Session.resolve h in
                inc_lat := (now_ms () -. t) :: !inc_lat;
                Hashtbl.replace inc_results label
                  ((r.Cr.Engine.resolved, r.Cr.Engine.valid)
                  :: (try Hashtbl.find inc_results label with Not_found -> []));
                label
          in
          if Hashtbl.find last label = i then begin
            ignore (Cr.Session.Store.remove store label);
            Hashtbl.remove pending label
          end)
        log.Datagen.Update_log.events;
      inc_ms := !inc_ms +. (now_ms () -. t0);
      (* --- cold pass: rebuild + re-resolve at every resolve point --- *)
      let acc : (string, Tuple.t list * Cr.Spec.order_edge list) Hashtbl.t =
        Hashtbl.create 64
      in
      let cold_results = Hashtbl.create 64 in
      let t0 = now_ms () in
      List.iter
        (fun ev ->
          match ev with
          | Datagen.Update_log.Arrival { label; tuple } ->
              let ts, os =
                try Hashtbl.find acc label with Not_found -> ([], [])
              in
              Hashtbl.replace acc label (tuple :: ts, os)
          | Datagen.Update_log.Assert_order { label; order } ->
              let ts, os = Hashtbl.find acc label in
              Hashtbl.replace acc label (ts, order :: os)
          | Datagen.Update_log.Resolve label ->
              let ts, os = Hashtbl.find acc label in
              let t = now_ms () in
              let spec =
                Cr.Spec.make
                  (Entity.make ds.Datagen.Types.schema (List.rev ts))
                  ~orders:os ~sigma ~gamma
              in
              let r, _ =
                Cr.Engine.resolve ~config:cold_config ~user:Cr.Framework.silent spec
              in
              cold_lat := (now_ms () -. t) :: !cold_lat;
              Hashtbl.replace cold_results label
                ((r.Cr.Engine.resolved, r.Cr.Engine.valid)
                :: (try Hashtbl.find cold_results label with Not_found -> [])))
        log.Datagen.Update_log.events;
      cold_ms := !cold_ms +. (now_ms () -. t0);
      Hashtbl.iter
        (fun label inc ->
          let cold = try Hashtbl.find cold_results label with Not_found -> [] in
          if inc <> cold then incr mismatches)
        inc_results)
    chunks;
  let stats = Cr.Session.Store.stats store in
  let identical = !mismatches = 0 in
  claim "daemon: incremental == cold re-resolve at every resolve point" identical;
  claim "daemon: delta extensions > 0" (stats.Cr.Session.Store.delta_extensions > 0);
  let speedup = if !inc_ms > 0. then !cold_ms /. !inc_ms else 0. in
  if check_speedup then
    claim "daemon: session-incremental beats cold re-encode" (speedup > 1.0);
  let inc_sorted = Array.of_list !inc_lat and cold_sorted = Array.of_list !cold_lat in
  Array.sort compare inc_sorted;
  Array.sort compare cold_sorted;
  let events = !n_arrivals + !n_orders + !n_resolves in
  Printf.printf
    "  stream: %d event(s) over %d entities (%d arrivals, %d asserted orders, %d resolves)\n"
    events n_entities !n_arrivals !n_orders !n_resolves;
  Printf.printf
    "  incremental: %.1f ms (%.0f req/s, resolve p50 %.3f ms, p99 %.3f ms)\n"
    !inc_ms
    (1000. *. float_of_int events /. !inc_ms)
    (percentile inc_sorted 0.50) (percentile inc_sorted 0.99);
  Printf.printf "  cold:        %.1f ms (resolve p50 %.3f ms, p99 %.3f ms)\n" !cold_ms
    (percentile cold_sorted 0.50) (percentile cold_sorted 0.99);
  Printf.printf
    "  speedup %.2fx; delta extensions %d, rebuilds %d+%d, solvers built %d, identical: %b\n"
    speedup stats.Cr.Session.Store.delta_extensions
    stats.Cr.Session.Store.rebuilds_renumbered stats.Cr.Session.Store.rebuilds_impure
    stats.Cr.Session.Store.solvers_built identical;
  let smoke_requests, smoke_ok = daemon_socket_smoke ds in
  Printf.printf "  socket smoke: %d request(s), all ok: %b\n" smoke_requests smoke_ok;
  claim "daemon: socket round trip all ok" smoke_ok;
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "daemon",
  "dataset": "Person",
  "n_entities": %d,
  "cores_available": %d,
  "chunk": %d,
  "arrivals": %d,
  "asserted_orders": %d,
  "resolve_requests": %d,
  "incremental": {
    "wall_ms": %.3f,
    "requests_per_sec": %.1f,
    "resolves_per_sec": %.1f,
    "latency_ms": { "p50": %.4f, "p90": %.4f, "p99": %.4f },
    "delta_extensions": %d,
    "rebuilds_renumbered": %d,
    "rebuilds_impure": %d,
    "solvers_built": %d,
    "sessions_created": %d,
    "evicted_lru": %d,
    "evicted_ttl": %d
  },
  "cold": {
    "wall_ms": %.3f,
    "resolves_per_sec": %.1f,
    "latency_ms": { "p50": %.4f, "p90": %.4f, "p99": %.4f }
  },
  "speedup": %.3f,
  "identical_results": %b,
  "socket_smoke_ok": %b
}
|}
        n_entities
        (Parallel.Pool.recommended_jobs ())
        chunk !n_arrivals !n_orders !n_resolves !inc_ms
        (1000. *. float_of_int events /. !inc_ms)
        (1000. *. float_of_int !n_resolves /. !inc_ms)
        (percentile inc_sorted 0.50) (percentile inc_sorted 0.90) (percentile inc_sorted 0.99)
        stats.Cr.Session.Store.delta_extensions stats.Cr.Session.Store.rebuilds_renumbered
        stats.Cr.Session.Store.rebuilds_impure stats.Cr.Session.Store.solvers_built
        stats.Cr.Session.Store.created stats.Cr.Session.Store.evicted_lru
        stats.Cr.Session.Store.evicted_ttl !cold_ms
        (1000. *. float_of_int !n_resolves /. !cold_ms)
        (percentile cold_sorted 0.50) (percentile cold_sorted 0.90)
        (percentile cold_sorted 0.99) speedup identical smoke_ok;
      close_out oc;
      Printf.printf "  wrote %s\n%!" path

let daemon () =
  daemon_sized ~n_entities:10_000 ~chunk:1000 ~check_speedup:true
    ~json:(Some "BENCH_daemon.json") ()

let daemon_smoke () =
  daemon_sized ~n_entities:300 ~chunk:100 ~check_speedup:false
    ~json:(Some "BENCH_daemon_smoke.json") ()

(* ---------------------------------------------------------------- *)
(* Durability: kill -9 recovery parity, WAL overhead, recovery time *)
(* ---------------------------------------------------------------- *)

(* A real crsolved process is forked (create + serve in the child) and
   killed with SIGKILL mid-stream: a genuine crash — no drain, no flush,
   no atexit. Whatever the WAL holds is all that survives. The client
   keeps streaming through the crash (retry + reconnect + @seq dedup),
   a fresh daemon recovers from snapshot + WAL tail on the same
   directory, and every RESOLVE answer must match an uninterrupted
   in-process reference. Emits BENCH_recovery.json (the smoke run
   BENCH_recovery_smoke.json) with the
   recovered_parity / lost_events ratchets and the WAL-overhead and
   recovery-time curves. *)

let tmp_counter = ref 0

let tmp_name suffix =
  incr tmp_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "crrec-%d-%d%s" (Unix.getpid ()) !tmp_counter suffix)

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let fork_daemon ~config ~sigma ~gamma ~socket_path =
  flush stdout;
  match Unix.fork () with
  | 0 ->
      (try
         let d = Crserver.Daemon.create ~config ~sigma ~gamma () in
         Crserver.Daemon.serve d ~socket_path
       with _ -> ());
      Unix._exit 0
  | pid -> pid

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let event_label = function
  | Datagen.Update_log.Arrival { label; _ } -> label
  | Datagen.Update_log.Assert_order { label; _ } -> label
  | Datagen.Update_log.Resolve label -> label

let is_resolve line =
  String.length line >= 8 && String.sub line 0 8 = "RESOLVE "

let is_mutating line = String.length line > 0 && line.[0] = '@'

(* An update log as stamped protocol lines: [@1 OPEN] before each
   entity's first event, per-entity monotone seqs from
   [Update_log.with_seqs], and a stamped CLOSE after its last event so
   finished sessions retire and the live set stays bounded. *)
let protocol_stream (ds : Datagen.Types.dataset) log =
  let csv_line values = String.trim (Csv.to_string [ values ]) in
  let header = csv_line (Schema.attr_names ds.Datagen.Types.schema) in
  let seqs = Datagen.Update_log.with_seqs log in
  let last = Hashtbl.create 64 in
  List.iteri (fun i (_, ev) -> Hashtbl.replace last (event_label ev) i) seqs;
  let opened = Hashtbl.create 64 in
  let cursor = Hashtbl.create 64 in
  List.concat
    (List.mapi
       (fun i (seq, ev) ->
         let label = event_label ev in
         let before =
           if Hashtbl.mem opened label then []
           else begin
             Hashtbl.add opened label ();
             [
               Printf.sprintf "@%d OPEN %s|%s" Datagen.Update_log.open_seq label
                 header;
             ]
           end
         in
         (match seq with Some s -> Hashtbl.replace cursor label s | None -> ());
         let line =
           match ev with
           | Datagen.Update_log.Arrival { label; tuple } ->
               Printf.sprintf "@%d INGEST %s|%s" (Option.get seq) label
                 (csv_line (List.map Value.to_string (Tuple.values tuple)))
           | Datagen.Update_log.Assert_order { label; order } ->
               Printf.sprintf "@%d ORDER %s|%s|%d|%d" (Option.get seq) label
                 order.Crcore.Spec.attr order.Crcore.Spec.lo order.Crcore.Spec.hi
           | Datagen.Update_log.Resolve label -> "RESOLVE " ^ label
         in
         let after =
           if Hashtbl.find last label = i then
             let s =
               (try Hashtbl.find cursor label
                with Not_found -> Datagen.Update_log.open_seq)
               + 1
             in
             [ Printf.sprintf "@%d CLOSE %s" s label ]
           else []
         in
         before @ (line :: after))
       seqs)

(* The stream over the whole dataset, chunked like the daemon bench so
   at most [2 * chunk] entities are ever live at once. *)
let chunked_stream (ds : Datagen.Types.dataset) ~chunk ~seed =
  let rec split acc cases =
    match cases with
    | [] -> List.rev acc
    | _ ->
        let take = List.filteri (fun i _ -> i < chunk) cases in
        let rest = List.filteri (fun i _ -> i >= chunk) cases in
        split (take :: acc) rest
  in
  split [] ds.Datagen.Types.cases
  |> List.concat_map (fun cases ->
         let sub = { ds with Datagen.Types.cases = cases } in
         protocol_stream sub
           (Datagen.Update_log.replay
              ~params:{ Datagen.Update_log.default_params with seed } sub))

(* The semantically meaningful core of a RESOLVE reply — validity and
   the resolved tuple; session counters legitimately differ between a
   recovered and an uninterrupted run. *)
let resolve_core r =
  let find needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length r then None
      else if String.sub r i nl = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let upto_char c from =
    try String.index_from r from c with Not_found -> String.length r - 1
  in
  let valid =
    match find {|"valid":|} with
    | Some i -> String.sub r i (upto_char ',' i - i)
    | None -> "?"
  in
  let resolved =
    match find {|"resolved":{|} with
    | Some i -> String.sub r i (upto_char '}' i - i + 1)
    | None -> r
  in
  valid ^ " " ^ resolved

let int_field json key =
  let needle = Printf.sprintf "\"%s\":" key in
  let nl = String.length needle in
  let rec go i =
    if i + nl > String.length json then None
    else if String.sub json i nl = needle then begin
      let j = ref (i + nl) in
      while
        !j < String.length json && (json.[!j] = '-' || (json.[!j] >= '0' && json.[!j] <= '9'))
      do
        incr j
      done;
      int_of_string_opt (String.sub json (i + nl) (!j - i - nl))
    end
    else go (i + 1)
  in
  go 0

let recovery_sized ~n_entities ~chunk ~kills ~overhead_entities ~replay_lengths ~json () =
  section
    (Printf.sprintf
       "Recovery: kill -9 a durable crsolved mid-stream, %d Person entities, %d crash(es)"
       n_entities kills);
  let module Cr = Conflict_resolution in
  let seed = 2027 in
  let ds = daemon_person ~n_entities ~seed in
  let sigma = ds.Datagen.Types.sigma and gamma = ds.Datagen.Types.gamma in
  let lines = chunked_stream ds ~chunk ~seed:(seed + 1) in
  let n = List.length lines in
  let n_mutating = List.length (List.filter is_mutating lines) in
  let n_resolves = List.length (List.filter is_resolve lines) in
  let base_config = Cr.Config.(default |> with_session_cap (2 * chunk)) in
  (* --- uninterrupted reference: the same stream, in process, no WAL --- *)
  let reference = Crserver.Daemon.create ~config:base_config ~sigma ~gamma () in
  let expected =
    List.filter_map
      (fun l ->
        let r = fst (Crserver.Daemon.handle_line reference l) in
        if is_resolve l then Some (resolve_core r) else None)
      lines
  in
  (* --- durable daemon in a forked process, crashed at random points --- *)
  let wal_dir = tmp_name "" in
  let socket_path = tmp_name ".sock" in
  let dconfig =
    (* bound outside the local open: the Config accessors of the same
       names would shadow the locals *)
    let wd = wal_dir in
    Cr.Config.(
      base_config
      |> with_wal_dir (Some wd)
      |> with_fsync (Durable.Wal.Interval 0.02)
      |> with_snapshot_every (max 100 (n_mutating / 4)))
  in
  let rng = Random.State.make [| seed |] in
  let kill_at =
    List.init kills (fun _ -> 1 + Random.State.int rng (max 1 (n - 1)))
    |> List.sort_uniq compare
  in
  let pid = ref (fork_daemon ~config:dconfig ~sigma ~gamma ~socket_path) in
  let client =
    Crserver.Client.connect ~retries:40 ~retry_base_ms:15. ~socket_path ()
  in
  let got = ref [] and transport_failures = ref 0 and restarts = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i line ->
      if List.mem i kill_at then begin
        Unix.kill !pid Sys.sigkill;
        reap !pid;
        incr restarts;
        pid := fork_daemon ~config:dconfig ~sigma ~gamma ~socket_path
      end;
      match Crserver.Client.request client line with
      | Ok r -> if is_resolve line then got := resolve_core r :: !got
      | Error _ -> incr transport_failures)
    lines;
  let stream_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let stats =
    match Crserver.Client.request client "STATS" with
    | Ok s -> s
    | Error m -> failwith ("recovery: STATS after the stream failed: " ^ m)
  in
  let applied = Option.value ~default:(-1) (int_field stats "events_applied") in
  let deduped = Option.value ~default:0 (int_field stats "events_deduped") in
  (match Crserver.Client.request client "SHUTDOWN drain" with
  | Ok _ -> ()
  | Error m -> failwith ("recovery: drain failed: " ^ m));
  reap !pid;
  Crserver.Client.close client;
  let parity = List.rev !got = expected && !transport_failures = 0 in
  let lost = n_mutating - applied in
  claim "recovery: every resolve matches the uninterrupted run across kill -9 restarts"
    parity;
  claim "recovery: no acknowledged event lost (lost_events = 0)" (lost = 0);
  Printf.printf
    "  stream: %d request(s) (%d mutating, %d resolves), %d kill -9 restart(s)\n" n
    n_mutating n_resolves !restarts;
  Printf.printf
    "  parity: %b; applied %d, redeliveries deduped %d, lost %d, client retries %d\n"
    parity applied deduped lost
    (Crserver.Client.retries_used client);
  Printf.printf "  streamed in %.1f ms (%.0f req/s through the crashes)\n" stream_ms
    (1000. *. float_of_int n /. stream_ms);
  rm_rf_dir wal_dir;
  (* --- WAL overhead: req/s and p50 per fsync policy vs no-WAL --- *)
  let ods = daemon_person ~n_entities:overhead_entities ~seed:(seed + 7) in
  let olines =
    chunked_stream ods ~chunk:(max 1 (overhead_entities / 2)) ~seed:(seed + 8)
  in
  let o_sigma = ods.Datagen.Types.sigma and o_gamma = ods.Datagen.Types.gamma in
  let run_overhead fsync =
    let dir = match fsync with None -> None | Some _ -> Some (tmp_name "") in
    let socket_path = tmp_name ".sock" in
    let config =
      let d = dir and f = fsync in
      Cr.Config.(
        match (d, f) with
        | Some d, Some f -> default |> with_wal_dir (Some d) |> with_fsync f
        | _ -> default)
    in
    let pid = fork_daemon ~config ~sigma:o_sigma ~gamma:o_gamma ~socket_path in
    let client =
      Crserver.Client.connect ~retries:20 ~retry_base_ms:20. ~socket_path ()
    in
    let lat = ref [] in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun l ->
        let t = Unix.gettimeofday () in
        match Crserver.Client.request client l with
        | Ok _ -> lat := (Unix.gettimeofday () -. t) *. 1000. :: !lat
        | Error m -> failwith ("recovery overhead: " ^ m))
      olines;
    let wall = (Unix.gettimeofday () -. t0) *. 1000. in
    ignore (Crserver.Client.request client "SHUTDOWN");
    reap pid;
    Crserver.Client.close client;
    Option.iter rm_rf_dir dir;
    let sorted = Array.of_list !lat in
    Array.sort compare sorted;
    let rps = 1000. *. float_of_int (List.length olines) /. wall in
    (rps, percentile sorted 0.50, percentile sorted 0.99)
  in
  (* Sub-ms requests on a shared host make a single pass noise-bound:
     interleave the configs over several rounds (so a slow period hits
     every config, not one) and keep each config's best pass. *)
  let overhead_passes = 3 in
  let fsyncs =
    [|
      None;
      Some Durable.Wal.Never;
      Some (Durable.Wal.Interval 0.05);
      Some Durable.Wal.Always;
    |]
  in
  let results = Array.make (Array.length fsyncs) (0., 0., 0.) in
  for _ = 1 to overhead_passes do
    Array.iteri
      (fun i f ->
        let ((rps, _, _) as pass) = run_overhead f in
        let best_rps, _, _ = results.(i) in
        if rps > best_rps then results.(i) <- pass)
      fsyncs
  done;
  let base_rps, base_p50, base_p99 = results.(0) in
  let never_rps, never_p50, never_p99 = results.(1) in
  let int_rps, int_p50, int_p99 = results.(2) in
  let alw_rps, alw_p50, alw_p99 = results.(3) in
  let interval_ratio = if base_rps > 0. then int_rps /. base_rps else 0. in
  claim "recovery: fsync=interval sustains >= 0.8x the no-WAL throughput"
    (interval_ratio >= 0.8);
  Printf.printf "  WAL overhead over %d request(s) (socket round trips):\n"
    (List.length olines);
  Printf.printf "    no WAL:         %7.0f req/s  p50 %.3f ms  p99 %.3f ms\n" base_rps
    base_p50 base_p99;
  Printf.printf "    fsync never:    %7.0f req/s  p50 %.3f ms  p99 %.3f ms\n" never_rps
    never_p50 never_p99;
  Printf.printf "    fsync interval: %7.0f req/s  p50 %.3f ms  p99 %.3f ms (%.2fx no-WAL)\n"
    int_rps int_p50 int_p99 interval_ratio;
  Printf.printf "    fsync always:   %7.0f req/s  p50 %.3f ms  p99 %.3f ms\n" alw_rps
    alw_p50 alw_p99;
  (* --- recovery time vs log length, with and without snapshots --- *)
  let mut_entities = max 8 (List.fold_left max 0 replay_lengths / 12) in
  let mds = daemon_person ~n_entities:mut_entities ~seed:(seed + 13) in
  let mut_lines =
    protocol_stream mds
      (Datagen.Update_log.replay
         ~params:
           {
             Datagen.Update_log.default_params with
             seed = seed + 14;
             resolve_rate = 0.;
             tail_reads = 0;
             final_resolve = false;
           }
         mds)
    |> List.filter is_mutating
  in
  let m_sigma = mds.Datagen.Types.sigma and m_gamma = mds.Datagen.Types.gamma in
  let time_recovery len with_snap =
    let dir = tmp_name "" in
    let config =
      let d = dir and every = if with_snap then max 1 (len / 10) else 0 in
      Cr.Config.(
        default
        |> with_wal_dir (Some d)
        |> with_fsync Durable.Wal.Never
        |> with_snapshot_every every)
    in
    let writer = Crserver.Daemon.create ~config ~sigma:m_sigma ~gamma:m_gamma () in
    List.iteri
      (fun i l -> if i < len then ignore (Crserver.Daemon.handle_line writer l))
      mut_lines;
    let t0 = Unix.gettimeofday () in
    let recovered = Crserver.Daemon.create ~config ~sigma:m_sigma ~gamma:m_gamma () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    ignore (fst (Crserver.Daemon.handle_line recovered "PING"));
    rm_rf_dir dir;
    ms
  in
  let curve =
    List.map
      (fun len ->
        let len = min len (List.length mut_lines) in
        let plain = time_recovery len false in
        let snap = time_recovery len true in
        Printf.printf
          "  recovery of %6d logged event(s): %8.1f ms full replay, %8.1f ms snapshot + tail\n"
          len plain snap;
        (len, plain, snap))
      replay_lengths
  in
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        {|{
  "scenario": "recovery",
  "dataset": "Person",
  "n_entities": %d,
  "requests": %d,
  "mutating_events": %d,
  "resolve_requests": %d,
  "kill_points": %d,
  "restarts": %d,
  "recovered_parity": %b,
  "lost_events": %d,
  "events_applied": %d,
  "redeliveries_deduped": %d,
  "stream_ms": %.1f,
  "wal_overhead": {
    "requests": %d,
    "no_wal": { "requests_per_sec": %.1f, "p50_ms": %.4f, "p99_ms": %.4f },
    "fsync_never": { "requests_per_sec": %.1f, "p50_ms": %.4f, "p99_ms": %.4f },
    "fsync_interval": { "requests_per_sec": %.1f, "p50_ms": %.4f, "p99_ms": %.4f },
    "fsync_always": { "requests_per_sec": %.1f, "p50_ms": %.4f, "p99_ms": %.4f },
    "interval_vs_no_wal": %.3f
  },
  "recovery_time": [%s
  ]
}
|}
        n_entities n n_mutating n_resolves (List.length kill_at) !restarts parity lost
        applied deduped stream_ms (List.length olines) base_rps base_p50 base_p99
        never_rps never_p50 never_p99 int_rps int_p50 int_p99 alw_rps alw_p50 alw_p99
        interval_ratio
        (String.concat ","
           (List.map
              (fun (len, plain, snap) ->
                Printf.sprintf
                  "\n    { \"events\": %d, \"full_replay_ms\": %.1f, \"snapshot_tail_ms\": %.1f }"
                  len plain snap)
              curve));
      close_out oc;
      Printf.printf "  wrote %s\n%!" path

let recovery () =
  recovery_sized ~n_entities:10_000 ~chunk:1000 ~kills:6 ~overhead_entities:600
    ~replay_lengths:[ 2_000; 10_000; 50_000 ]
    ~json:(Some "BENCH_recovery.json") ()

let recovery_smoke () =
  recovery_sized ~n_entities:60 ~chunk:30 ~kills:2 ~overhead_entities:40
    ~replay_lengths:[ 300; 1_500 ]
    ~json:(Some "BENCH_recovery_smoke.json") ()

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks                                        *)
(* ---------------------------------------------------------------- *)

let micro () =
  section "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let open Bechamel in
  let ds = Datagen.Nba.quick ~n_entities:1 ~seasons:4 () in
  let case = List.hd ds.Datagen.Types.cases in
  let spec = Datagen.Types.spec_of ds case in
  let enc = Crcore.Encode.encode spec in
  let d = Crcore.Deduce.deduce_order enc in
  let known = Crcore.Deduce.true_values d in
  let tests =
    Test.make_grouped ~name:"core"
      [
        Test.make ~name:"encode" (Staged.stage (fun () -> ignore (Crcore.Encode.encode spec)));
        Test.make ~name:"isvalid" (Staged.stage (fun () -> ignore (Crcore.Validity.check enc)));
        Test.make ~name:"deduce_order"
          (Staged.stage (fun () -> ignore (Crcore.Deduce.deduce_order enc)));
        Test.make ~name:"suggest"
          (Staged.stage (fun () -> ignore (Crcore.Rules.suggest d ~known)));
        Test.make ~name:"pick" (Staged.stage (fun () -> ignore (Crcore.Pick.run spec)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "  %-24s %12.0f ns/run\n" name est
      | _ -> Printf.printf "  %-24s (no estimate)\n" name)
    results

(* ---------------------------------------------------------------- *)
(* driver                                                           *)
(* ---------------------------------------------------------------- *)

let experiments =
  [
    ("fig8a", fig8a); ("fig8b", fig8b); ("fig8c", fig8c); ("fig8d", fig8d);
    ("fig8e", fig8e); ("fig8f", fig8f); ("fig8g", fig8g); ("fig8h", fig8h);
    ("fig8i", fig8i); ("fig8j", fig8j); ("fig8k", fig8k); ("fig8l", fig8l);
    ("fig8m", fig8m); ("fig8n", fig8n); ("fig8o", fig8o); ("fig8p", fig8p);
    ("summary", summary);
    ("batch", batch);
    ("batch2k", batch2k);
    ("batch_smoke", batch_smoke);
    ("par", par);
    ("par_smoke", par_smoke);
    ("deduce", deduce);
    ("deduce_smoke", deduce_smoke);
    ("saturate", saturate);
    ("saturate_smoke", saturate_smoke);
    ("satcore", satcore);
    ("satcore_smoke", satcore_smoke);
    ("lint", lint);
    ("lint_smoke", lint_smoke);
    ("robustness", robustness);
    ("robustness_smoke", robustness_smoke);
    ("daemon", daemon);
    ("daemon_smoke", daemon_smoke);
    ("recovery", recovery);
    ("recovery_smoke", recovery_smoke);
    ("ablation_encoding", ablation_encoding);
    ("ablation_clique", ablation_clique);
    ("ablation_maxsat", ablation_maxsat);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    match args with
    | [] ->
        List.filter
          (fun (n, _) ->
            n <> "micro" && n <> "batch_smoke" && n <> "lint_smoke" && n <> "par_smoke"
            && n <> "deduce_smoke" && n <> "saturate_smoke" && n <> "satcore_smoke"
            && n <> "robustness_smoke" && n <> "daemon_smoke" && n <> "recovery_smoke")
          experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  let t0 = Sys.time () in
  List.iter (fun (_, f) -> f ()) selected;
  Printf.printf "\n(total bench time: %.1f s)\n" (Sys.time () -. t0);
  match List.rev !failures with
  | [] -> ()
  | fs ->
      Printf.eprintf "\n%d bench disagreement(s):\n" (List.length fs);
      List.iter (fun f -> Printf.eprintf "  FAIL %s\n" f) fs;
      exit 1

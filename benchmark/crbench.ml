(* crbench: the benchmark of record for crsolve/crsolved.

     crbench run     [--workload W]... [--seed S] [--seconds T] [--trace 0|1]
                     [--out F] [--trace-out F] [--smoke]
     crbench trace   ...                       (= run --trace 1)
     crbench compare PARENT.json... -- CHANGE.json... [--bench BENCHMARK.json]

   [run] prints one line per workload, metric, value and unit, with the
   sample count and quartiles; with a single workload its last line is
   the JSON summary {correct, attempted, failed, metrics}. Each workload
   role runs in a fresh child process (crbench re-executes itself as
   [crbench worker ...]), so no workload warms the heap, interned Σ/Γ or
   templates of another. See README.md. *)

(* {1 Metrics and their bounds}

   BENCHMARK.json names the metrics the summary line reports, with their
   direction and their relative bound. An absolute floor below which a
   worsening never counts cannot be written there, so it lives here. *)

let floors = [ ("setup_s", 0.02) ]

type bench = {
  e2e : (string * Stats.better * float) list;
  layer : (string * Stats.better) list;
}

let load_bench path =
  match Json.of_string (Common.read_file path) with
  | exception Sys_error _ -> None
  | Error m -> failwith (path ^ ": " ^ m)
  | Ok j ->
      let better m =
        if Json.member "better" m = Json.Str "higher" then Stats.Higher else Stats.Lower
      in
      let name m = Json.to_str (Json.member "name" m) in
      Some
        {
          e2e =
            List.map
              (fun m -> (name m, better m, Json.to_float (Json.member "bound" m)))
              (Json.to_list (Json.member "end_to_end" j));
          layer =
            List.map (fun m -> (name m, better m)) (Json.to_list (Json.member "per_layer" j));
        }

let direction bench name unit =
  let listed =
    match bench with
    | None -> None
    | Some b -> (
        match List.find_opt (fun (n, _, _) -> n = name) b.e2e with
        | Some (_, d, _) -> Some d
        | None -> List.assoc_opt name b.layer)
  in
  match listed with Some d -> d | None -> if unit = "1/s" then Stats.Higher else Stats.Lower

let bound bench name =
  if name = "failed" then { Stats.rel = 0.; floor = 0. }
  else
    let rel =
      match bench with
      | Some b -> (
          match List.find_opt (fun (n, _, _) -> n = name) b.e2e with
          | Some (_, _, r) -> r
          | None -> 0.10)
      | None -> 0.10
    in
    { Stats.rel; floor = Option.value ~default:0. (List.assoc_opt name floors) }

(* {1 Command line} *)

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string option;
  mutable trace_out : string option;
  mutable smoke : bool;
  mutable role : string;
  mutable digests : string;
  mutable result : string;
  mutable bench : string;
  mutable positional : string list;
}

let usage =
  "usage: crbench run|trace [--workload W]... [--seed S] [--seconds T] [--trace 0|1] [--out F] \
   [--trace-out F] [--smoke]\n\
  \       crbench compare PARENT.json... -- CHANGE.json... [--bench BENCHMARK.json]"

let parse args =
  let o =
    {
      workloads = [];
      seed = 2013;
      seconds = 15.;
      trace = false;
      out = None;
      trace_out = None;
      smoke = false;
      role = "";
      digests = "";
      result = "";
      bench = "BENCHMARK.json";
      positional = [];
    }
  in
  let bad fmt = Printf.ksprintf (fun m -> raise (Arg.Bad m)) fmt in
  let num name conv v = match conv v with Some x -> x | None -> bad "%s: bad value %S" name v in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        (match flag with
        | "--workload" -> o.workloads <- o.workloads @ [ v ]
        | "--seed" -> o.seed <- num flag int_of_string_opt v
        | "--seconds" -> o.seconds <- num flag float_of_string_opt v
        | "--trace" -> o.trace <- num flag int_of_string_opt v <> 0
        | "--out" -> o.out <- Some v
        | "--trace-out" -> o.trace_out <- Some v
        | "--role" -> o.role <- v
        | "--digests" -> o.digests <- v
        | "--result" -> o.result <- v
        | "--bench" -> o.bench <- v
        | _ -> bad "unknown option %s" flag);
        go rest
    | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        bad "option %s needs a value" flag
    | x :: rest ->
        o.positional <- o.positional @ [ x ];
        go rest
  in
  go args;
  if o.smoke then o.seconds <- 0.;
  o

let min_passes o = if o.smoke then 1 else 2

(* a stream set-up sample is a daemon start (milliseconds), a batch one a
   whole process resolving a tenth of the entities *)
let setup_samples o (w : Workload.t) =
  match w.Workload.kind with
  | _ when o.smoke -> 1
  | Workload.Batch _ -> 3
  | Workload.Stream _ -> 5

let crsolved () =
  Filename.concat (Filename.dirname (Lazy.force Common.self_exe)) "../bin/crsolved.exe"

let trace_file o (w : Workload.t) =
  match o.trace_out with
  | Some f -> f
  | None ->
      Common.mkdir_p Common.work_root;
      Filename.concat Common.work_root (Printf.sprintf "trace-%s.json" w.Workload.name)

(* {1 Worker: one role of one workload, in its own process} *)

let worker o =
  let w =
    match o.workloads with
    | [ w ] -> Workload.find ~smoke:o.smoke w
    | _ -> failwith "worker: one --workload"
  in
  let seed = o.seed and seconds = o.seconds and digests = o.digests in
  let outcome =
    match (o.role, w.Workload.kind) with
    | "reference", Workload.Batch b -> Batch.reference b ~seed ~digests
    | "reference", Workload.Stream s -> Stream.reference s ~seed ~digests
    | "setup", Workload.Batch b -> Batch.setup b ~seed ~digests
    | "measure", Workload.Batch b ->
        Batch.measure b ~seed ~seconds ~min_passes:(min_passes o) ~digests
    | "trace", Workload.Batch b ->
        Batch.trace b ~seed ~seconds ~digests ~trace_out:(trace_file o w)
    | "trace", Workload.Stream s ->
        let dir = Common.fresh "daemon" in
        let env = Stream.env ~crsolved:(crsolved ()) ~dir (Workload.stream_dataset s ~seed) in
        Fun.protect
          ~finally:(fun () -> Common.rm_rf dir)
          (fun () -> Stream.trace env s ~seed ~seconds ~digests ~trace_out:(trace_file o w))
    | role, _ -> failwith (Printf.sprintf "worker: no role %s for %s" role w.Workload.name)
  in
  Common.write_outcome o.result outcome

(* {1 Orchestration} *)

let run_workload o (w : Workload.t) =
  let dir = Common.fresh w.Workload.name in
  Common.mkdir_p dir;
  let digests = Filename.concat dir "reference.txt" in
  let roles = ref 0 in
  let role name =
    incr roles;
    let result = Filename.concat dir (Printf.sprintf "%s-%d.json" name !roles) in
    Common.run_worker
      ([
         "--role"; name;
         "--workload"; w.Workload.name;
         "--seed"; string_of_int o.seed;
         "--seconds"; Printf.sprintf "%.17g" o.seconds;
         "--digests"; digests;
         "--result"; result;
         "--trace-out"; trace_file o w;
       ]
      @ if o.smoke then [ "--smoke" ] else []);
    Common.read_outcome result
  in
  Common.log "crbench: %s (%s, seed %d)\n" w.Workload.name
    (if o.trace then "traced" else "untraced")
    o.seed;
  Fun.protect
    ~finally:(fun () -> Common.rm_rf dir)
    (fun () ->
      let reference = role "reference" in
      let body =
        match (w.Workload.kind, o.trace) with
        | _, true -> role "trace"
        | Workload.Batch _, false ->
            (* each set-up sample is a fresh process; their median is reported *)
            let setups = List.init (setup_samples o w) (fun _ -> role "setup") in
            let samples =
              List.concat_map
                (fun (s : Common.outcome) ->
                  List.map (fun (m : Common.metric) -> m.Common.value) s.Common.metrics)
                setups
            in
            let measured = role "measure" in
            List.fold_left
              (fun acc (s : Common.outcome) -> Common.merge acc { s with Common.metrics = [] })
              {
                measured with
                Common.metrics =
                  Common.metric ~per_pass:samples "setup_s" "s" (Stats.median samples)
                  :: measured.Common.metrics;
              }
              setups
        | Workload.Stream s, false ->
            let env =
              Stream.env ~crsolved:(crsolved ()) ~dir (Workload.stream_dataset s ~seed:o.seed)
            in
            Stream.run env s ~seed:o.seed ~seconds:o.seconds ~min_passes:(min_passes o)
              ~setup_samples:(setup_samples o w) ~digests
      in
      { body with Common.failed = body.Common.failed + reference.Common.failed })

let fmt_num f = Printf.sprintf "%.6g" f

let print_table name (outcome : Common.outcome) =
  List.iter
    (fun (m : Common.metric) ->
      let q1, q3 =
        match m.Common.per_pass with
        | [] | [ _ ] -> (m.Common.value, m.Common.value)
        | l ->
            let q1, _, q3 = Stats.quartiles l in
            (q1, q3)
      in
      Printf.printf "%s %s %s %s n=%d q1=%s q3=%s\n" name m.Common.name (fmt_num m.Common.value)
        m.Common.unit m.Common.n (fmt_num q1) (fmt_num q3))
    outcome.Common.metrics;
  Printf.printf "%s passes %d attempted %d failed %d mismatches %d\n%!" name
    outcome.Common.passes outcome.Common.attempted outcome.Common.failed
    outcome.Common.mismatches

(* the last stdout line of a single-workload run: the metrics
   BENCHMARK.json lists for this mode (every metric without one) *)
let summary o (outcome : Common.outcome) =
  let names =
    match load_bench o.bench with
    | Some b when o.trace -> List.map fst b.layer
    | Some b -> List.map (fun (n, _, _) -> n) b.e2e
    | None -> List.map (fun (m : Common.metric) -> m.Common.name) outcome.Common.metrics
  in
  let find n =
    let same (m : Common.metric) = m.Common.name = n in
    match List.find_opt same outcome.Common.metrics with
    | Some m ->
        (n, Json.Obj [ ("value", Json.Num m.Common.value); ("unit", Json.Str m.Common.unit) ])
    | None -> failwith ("metric not measured: " ^ n)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (outcome.Common.mismatches = 0));
         ("attempted", Json.Num (float_of_int outcome.Common.attempted));
         ("failed", Json.Num (float_of_int outcome.Common.failed));
         ("metrics", Json.Obj (List.map find names));
       ])

let git_rev () =
  let read p = try Some (String.trim (Common.read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> (
          match read ".git/packed-refs" with
          | Some packed -> (
              match
                List.find_opt
                  (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = r)
                  (String.split_on_char '\n' packed)
              with
              | Some l -> String.sub l 0 40
              | None -> "unknown")
          | None -> "unknown"))
  | Some rev when String.length rev = 40 -> rev
  | _ -> "unknown"

let provenance o =
  Json.Obj
    [
      ("git_rev", Json.Str (git_rev ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("seed", Json.Num (float_of_int o.seed));
      ("seconds", Json.Num o.seconds);
      ("traced", Json.Bool o.trace);
      ("clock", Json.Str "bechamel.monotonic_clock (CLOCK_MONOTONIC)");
      ("daemon_fsync", Json.Str (Durable.Wal.fsync_to_string Workload.fsync));
      ("daemon_snapshot_every", Json.Num (float_of_int Workload.snapshot_every));
      ("daemon_session_cap", Json.Num (float_of_int Workload.session_cap));
    ]

let run o =
  let ws =
    match o.workloads with
    | [] -> Workload.all ~smoke:o.smoke
    | names -> List.map (Workload.find ~smoke:o.smoke) names
  in
  let results = List.map (fun w -> (w, run_workload o w)) ws in
  List.iter (fun ((w : Workload.t), r) -> print_table w.Workload.name r) results;
  (match o.out with
  | Some path when not o.smoke ->
      Common.write_file path
        (Json.to_string
           (Json.Obj
              [
                ("provenance", provenance o);
                ( "runs",
                  Json.Arr
                    (List.map
                       (fun ((w : Workload.t), r) ->
                         match Common.outcome_to_json r with
                         | Json.Obj fields ->
                             Json.Obj
                               (("workload", Json.Str w.Workload.name)
                               :: ("correct", Json.Bool (r.Common.mismatches = 0))
                               :: fields)
                         | j -> j)
                       results) );
              ])
        ^ "\n")
  | _ -> ());
  (match results with [ (_, r) ] -> print_endline (summary o r) | _ -> ());
  if List.exists (fun (_, r) -> r.Common.mismatches > 0) results then begin
    Common.log "crbench: outputs differ from the reference path\n";
    exit 1
  end

(* {1 Compare} *)

(* (workload, metric) -> unit, value, in file order; [failed] counts as a
   metric with the absolute-zero bound *)
let load_side files =
  List.concat_map
    (fun f ->
      match Json.of_string (Common.read_file f) with
      | Error m -> failwith (f ^ ": " ^ m)
      | Ok j ->
          List.concat_map
            (fun run ->
              let w = Json.to_str (Json.member "workload" run) in
              let o = Common.outcome_of_json run in
              ((w, "failed"), ("count", float_of_int o.Common.failed))
              :: List.map
                   (fun (m : Common.metric) ->
                     ((w, m.Common.name), (m.Common.unit, m.Common.value)))
                   o.Common.metrics)
            (Json.to_list (Json.member "runs" j)))
    files

let compare_cmd o =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let parents, changes = split [] o.positional in
  if parents = [] || changes = [] then
    raise (Arg.Bad "compare needs PARENT.json... -- CHANGE.json...");
  let bench = load_bench o.bench in
  let ps = load_side parents and cs = load_side changes in
  let keys = List.sort_uniq compare (List.map fst ps) in
  let values side k =
    List.filter_map (fun (k', (_, v)) -> if k' = k then Some v else None) side
  in
  let show l =
    match l with
    | [] -> "-"
    | _ ->
        let s = Stats.summarize l in
        Printf.sprintf "%s [%s, %s] n=%d" (fmt_num s.Stats.median) (fmt_num s.Stats.q1)
          (fmt_num s.Stats.q3) s.Stats.n
  in
  List.iter
    (fun ((w, name) as k) ->
      let unit = fst (List.assoc k ps) in
      let p = values ps k and c = values cs k in
      if c <> [] then begin
        let better = direction bench name unit and bound = bound bench name in
        Printf.printf "%s %s %s  parent %s  change %s  wins %.0f%%  %s\n" w name unit (show p)
          (show c)
          (100. *. Stats.wins better ~parent:p ~change:c)
          (Stats.verdict_to_string (Stats.verdict bound better ~parent:p ~change:c))
      end)
    keys

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let args = List.tl (Array.to_list Sys.argv) in
  match
    match args with
    | "run" :: rest -> run (parse rest)
    | "trace" :: rest ->
        let o = parse rest in
        o.trace <- true;
        run o
    | "compare" :: rest -> compare_cmd (parse rest)
    | "worker" :: rest -> worker (parse rest)
    | _ -> raise (Arg.Bad "missing command")
  with
  | () -> exit 0
  | exception Arg.Bad m ->
      Printf.eprintf "crbench: %s\n%s\n" m usage;
      exit 2
  | exception (Failure m | Sys_error m | Invalid_argument m) ->
      Printf.eprintf "crbench: %s\n" m;
      exit 2
  | exception Unix.Unix_error (e, f, a) ->
      Printf.eprintf "crbench: %s(%s): %s\n" f a (Unix.error_message e);
      exit 2

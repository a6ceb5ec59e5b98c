(* Batch workloads: Engine.run_batch over generated Person entities.
   Each role runs in its own process (see crbench.ml): the reference, the
   set-up samples and the measured passes never share a heap. *)

open Crcore

(* The reference path, run once and untimed: Framework.resolve, the
   non-incremental loop with no lint, cache, saturation or inprocessing. *)
let reference (b : Workload.batch) ~seed ~digests =
  let items = Workload.batch_items b ~seed in
  let lines =
    List.map
      (fun (it : Engine.item) ->
        let o = Framework.resolve ~mode:b.Workload.mode ~user:it.Engine.user it.Engine.spec in
        Layers.digest it.Engine.label ~valid:o.Framework.valid ~rounds:o.Framework.rounds
          o.Framework.resolved)
      items
  in
  Common.write_lines digests lines;
  { Common.empty with attempted = List.length items }

type pass = { wall : float; latencies : float list; digests : string list; failed : int }

(* One Engine.run_batch call. With jobs = 1 each entity's result is
   handed over as soon as it is resolved, so the gaps between callbacks
   are per-entity resolve times. *)
let run_pass ~config items =
  let lat = ref [] and got = ref [] and failed = ref 0 in
  let t0 = Trace.now () in
  let last = ref t0 in
  let on_result r =
    let t = Trace.now () in
    lat := (t -. !last) :: !lat;
    last := t;
    let d, bad = Layers.item_digest r in
    got := d :: !got;
    if bad then incr failed
  in
  ignore (Engine.run_batch ~config ~on_result items);
  {
    wall = Trace.now () -. t0;
    latencies = List.rev !lat;
    digests = List.rev !got;
    failed = !failed;
  }

(* Set-up: a cold pass over the first tenth of the entities in a fresh
   process — template compilation, first heap growth, first solvers. *)
let setup (b : Workload.batch) ~seed ~digests =
  let k = Workload.setup_size b in
  let prefix = Workload.batch_items ~limit:k b ~seed in
  let expected = List.filteri (fun i _ -> i < k) (Common.read_lines digests) in
  let p = run_pass ~config:(Workload.engine_config b) prefix in
  {
    Common.metrics = [ Common.metric "setup_s" "s" p.wall ];
    passes = 0;
    attempted = k;
    failed = p.failed;
    mismatches = Layers.count_mismatches expected p.digests;
  }

(* An untimed cold pass, then timed passes for about [seconds]; every
   pass must reproduce the reference. *)
let measure (b : Workload.batch) ~seed ~seconds ~min_passes ~digests =
  let items = Workload.batch_items b ~seed in
  let n = List.length items in
  let expected = Common.read_lines digests in
  let config = Workload.engine_config b in
  let cold = run_pass ~config items in
  let timed = Common.passes ~seconds ~min_passes (fun _ -> run_pass ~config items) in
  let all = cold :: timed in
  let latencies = List.concat_map (fun p -> Common.ms p.latencies) timed in
  let per_pass_p50 = List.map (fun p -> Stats.median (Common.ms p.latencies)) timed in
  let lat = Common.latency "resolve_ms" "ms" latencies in
  {
    Common.metrics =
      [
        Common.metric ~n:(List.length timed) "rss_peak_mb" "MiB" (Common.vmhwm_mb 0);
        (let per_pass = List.map (fun p -> float_of_int n /. p.wall) timed in
         Common.metric ~per_pass "entities_per_s" "1/s" (Stats.median per_pass));
      ]
      @ List.map
          (fun (m : Common.metric) ->
            if m.Common.name = "resolve_ms_p50" then { m with Common.per_pass = per_pass_p50 }
            else m)
          lat;
    passes = List.length timed;
    attempted = List.fold_left (fun a p -> a + List.length p.digests) 0 all;
    failed = List.fold_left (fun a p -> a + p.failed) 0 all;
    mismatches =
      List.fold_left (fun a p -> a + Layers.count_mismatches expected p.digests) 0 all;
  }

(* The traced run: untraced and traced engine loops alternate (their wall
   ratio is the tracing overhead), then the layer replay runs over every
   entity. End-to-end numbers never come from here. *)
let trace (b : Workload.batch) ~seed ~seconds ~digests ~trace_out =
  let items = Workload.batch_items b ~seed in
  let expected = Common.read_lines digests in
  let config = Workload.engine_config b in
  let off = Trace.create ~enabled:false () in
  let cold = Layers.engine_loop off ~config items in
  let pairs =
    Common.passes ~seconds:(seconds /. 2.) ~min_passes:1 (fun _ ->
        let u = Layers.engine_loop off ~config items in
        let t = Layers.engine_loop (Trace.create ~enabled:true ()) ~config items in
        (u, t))
  in
  let traced = List.map snd pairs in
  let path = Layers.acc () in
  List.iter (fun (st, rounds) -> Layers.add path ~rounds st) (List.hd traced).Layers.stats;
  let tracer = Trace.create ~enabled:true () in
  let replay =
    Layers.replay tracer ~mode:b.Workload.mode
      (List.map (fun (it : Engine.item) -> it.Engine.spec) items)
  in
  let replay_spans = Trace.spans tracer in
  Trace.write_chrome trace_out
    (Layers.concat_spans [ (List.hd traced).Layers.spans; replay_spans ]);
  let loops = List.concat_map (fun (u, t) -> [ u; t ]) pairs in
  let every = cold :: loops in
  {
    Common.metrics =
      Layers.metrics ~replay_spans ~replay ~loops:traced ~path
        ~overhead:(List.map (fun (u, t) -> (u.Layers.wall, t.Layers.wall)) pairs);
    passes = List.length pairs;
    attempted = List.fold_left (fun a l -> a + List.length l.Layers.digests) 0 every;
    failed = List.fold_left (fun a l -> a + l.Layers.failed) 0 every;
    mismatches =
      List.fold_left (fun a l -> a + Layers.count_mismatches expected l.Layers.digests) 0 every;
  }

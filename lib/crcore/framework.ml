type user = Rules.suggestion -> schema:Schema.t -> (string * Value.t) list

let oracle ?(max_answers = max_int) truth suggestion ~schema =
  List.filteri (fun i _ -> i < max_answers) suggestion.Rules.attrs
  |> List.map (fun a ->
         let name = Schema.name schema a in
         (name, Tuple.get_by_name truth name))

let silent _suggestion ~schema:_ = []

type timings = { mutable validity : float; mutable deduce : float; mutable suggest : float }

type outcome = {
  resolved : Value.t option array;
  valid : bool;
  rounds : int;
  per_round_known : int list;
  timings : timings;
}

(* The loop itself lives in Engine; this entry point is the one-entity,
   non-incremental configuration it grew out of, with the historical
   phase accounting (encoding counted inside IsValid, seconds). *)
let resolve ?(mode = Encode.Paper) ?(deduce = Deduce.backbone)
    ?(repair = Rules.Exact_maxsat) ?(max_rounds = 5) ~user spec =
  (* lint off: this is the pure SAT reference path the engine's lint
     short-circuit is property-tested against. The default deducer tracks
     Engine.default_config so the two entry points stay equivalent. *)
  let config =
    {
      Engine.mode;
      deduce;
      repair;
      max_rounds;
      incremental = false;
      cache = false;
      lint = false;
      (* saturate off too: this path must stay the static-free reference
         the saturation pre-phase is property-tested against *)
      saturate = false;
      jobs = 1;
      clamp_jobs = true;
      budget_conflicts = None;
      budget_ms = None;
      max_degrade = Engine.PickFallback;
      pick_strategy = Pick.Favoured;
      fail_fast = false;
    }
  in
  let r, st = Engine.resolve ~config ~user spec in
  let t = st.Engine.times in
  {
    resolved = r.Engine.resolved;
    valid = r.Engine.valid;
    rounds = r.Engine.rounds;
    per_round_known = r.Engine.per_round_known;
    timings =
      {
        validity = (t.Engine.encode_ms +. t.Engine.validity_ms) /. 1000.;
        deduce = t.Engine.deduce_ms /. 1000.;
        suggest = t.Engine.suggest_ms /. 1000.;
      };
  }

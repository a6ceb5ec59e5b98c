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

let count_known known = Array.fold_left (fun n v -> if v = None then n else n + 1) 0 known

(* The Fig. 4 loop with nothing shared between phases or rounds: every
   round encodes the (extended) specification afresh, checks it on a new
   solver and deduces and suggests from scratch. It stays independent of
   the engine, whose sessions, caches and lint are tested
   against it. Encoding counts inside IsValid, as in the paper. *)
let resolve ?(mode = Encode.Paper) ?(repair = Rules.Exact_maxsat) ?(max_rounds = 5) ~user
    spec =
  let timings = { validity = 0.; deduce = 0.; suggest = 0. } in
  let timed slot f =
    let t0 = Clock.now_ms () in
    let r = f () in
    let dt = (Clock.now_ms () -. t0) /. 1000. in
    (match slot with
    | `Validity -> timings.validity <- timings.validity +. dt
    | `Deduce -> timings.deduce <- timings.deduce +. dt
    | `Suggest -> timings.suggest <- timings.suggest +. dt);
    r
  in
  let schema = Spec.schema spec in
  let arity = Schema.arity schema in
  let analyse spec =
    let enc = timed `Validity (fun () -> Encode.encode ~mode spec) in
    if not (timed `Validity (fun () -> Validity.check enc)) then None
    else
      let d = timed `Deduce (fun () -> Deduce.backbone enc) in
      Some (d, Deduce.true_values d)
  in
  let finish ~resolved ~valid ~rounds ~per_round =
    { resolved; valid; rounds; per_round_known = List.rev per_round; timings }
  in
  let rec loop spec d known ~rounds ~per_round =
    if count_known known = arity || rounds >= max_rounds then
      finish ~resolved:known ~valid:true ~rounds ~per_round
    else
      let suggestion = timed `Suggest (fun () -> Rules.suggest ~repair d ~known) in
      match user suggestion ~schema with
      | [] -> finish ~resolved:known ~valid:true ~rounds ~per_round
      | answer -> (
          let rounds = rounds + 1 in
          (* the fresh tuple t_o of the paper's Remark (1): provided
             values, plus the already-established ones, null elsewhere *)
          let values =
            Array.init arity (fun a ->
                let name = Schema.name schema a in
                match List.assoc_opt name answer with
                | Some v -> v
                | None -> ( match known.(a) with Some v -> v | None -> Value.Null))
          in
          let current_attrs =
            List.filter_map
              (fun a -> if Value.is_null values.(a) then None else Some (Schema.name schema a))
              (List.init arity Fun.id)
          in
          let spec =
            Spec.extend_with_tuple spec (Tuple.of_array schema values) ~current_attrs
          in
          match analyse spec with
          | None -> finish ~resolved:known ~valid:false ~rounds ~per_round
          | Some (d, known) ->
              loop spec d known ~rounds ~per_round:(count_known known :: per_round))
  in
  match analyse spec with
  | None -> finish ~resolved:(Array.make arity None) ~valid:false ~rounds:0 ~per_round:[ 0 ]
  | Some (d, known) -> loop spec d known ~rounds:0 ~per_round:[ count_known known ]

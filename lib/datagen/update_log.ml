type event =
  | Arrival of { label : string; tuple : Tuple.t }
  | Assert_order of { label : string; order : Crcore.Spec.order_edge }
  | Resolve of string

type params = {
  order_rate : float;
  resolve_rate : float;
  dup_rate : float;
  tail_reads : int;
  final_resolve : bool;
  seed : int;
}

let default_params =
  {
    order_rate = 0.25;
    resolve_rate = 0.35;
    dup_rate = 0.2;
    tail_reads = 3;
    final_resolve = true;
    seed = 77;
  }

type t = {
  dataset : Types.dataset;
  events : event list;
  n_arrivals : int;
  n_orders : int;
  n_resolves : int;
}

let label_of (c : Types.case) = Printf.sprintf "e%d" c.Types.id

(* A sound asserted order after [arrived] tuples are in: two arrival
   positions whose hidden stamps are strictly ordered and whose values in
   the chosen attribute differ (equal values would assert v ≺ v). *)
let pick_order rng schema (arrived : (Tuple.t * int) array) k =
  let arity = Schema.arity schema in
  let try_once () =
    let i = Random.State.int rng k and j = Random.State.int rng k in
    let ti, si = arrived.(i) and tj, sj = arrived.(j) in
    if si >= sj then None
    else
      let a = Random.State.int rng arity in
      let vi = Tuple.get ti a and vj = Tuple.get tj a in
      if Value.equal vi vj || Value.is_null vi || Value.is_null vj then None
      else Some { Crcore.Spec.attr = Schema.name schema a; lo = i; hi = j }
  in
  let rec attempts n = if n = 0 then None else match try_once () with Some e -> Some e | None -> attempts (n - 1) in
  attempts 8

(* Per-case event sequence: arrivals in history order, order assertions
   and resolve points placed by the rng. With at-least-once delivery
   ([dup_rate]) the stream re-delivers an earlier claim verbatim — the
   accumulated entity grows by a tuple whose values are all already in
   the value universes, the shape {!Crcore.Encode.extend} serves with a
   [Delta]. A re-delivered copy keeps the original's hidden stamp (it is
   the same fact observed again). *)
let case_events p rng schema (c : Types.case) =
  let label = label_of c in
  let stamped =
    Entity.tuples c.Types.entity
    |> List.mapi (fun i t -> (t, c.Types.stamps.(i)))
    |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
    |> Array.of_list
  in
  let n = Array.length stamped in
  let events = ref [] in
  let emit e = events := e :: !events in
  (* arrivals so far, duplicates included, in arrival order — the index
     space that order edges live in *)
  let arrived = ref [] in
  let count = ref 0 in
  let arrive (t, s) =
    arrived := (t, s) :: !arrived;
    incr count;
    emit (Arrival { label; tuple = t })
  in
  for k = 0 to n - 1 do
    arrive stamped.(k);
    if k >= 1 then begin
      if Random.State.float rng 1.0 < p.dup_rate then begin
        let all = Array.of_list (List.rev !arrived) in
        arrive all.(Random.State.int rng (Array.length all))
      end;
      if Random.State.float rng 1.0 < p.order_rate then begin
        let all = Array.of_list (List.rev !arrived) in
        Option.iter
          (fun order -> emit (Assert_order { label; order }))
          (pick_order rng schema all !count)
      end;
      if Random.State.float rng 1.0 < p.resolve_rate then emit (Resolve label)
    end
  done;
  (* steady state: the history is fully delivered; readers keep polling
     the entity while the stream re-delivers old claims and users assert
     orders — the daemon's hot-entity regime *)
  for _ = 1 to p.tail_reads do
    if Random.State.float rng 1.0 < p.dup_rate then begin
      let all = Array.of_list (List.rev !arrived) in
      arrive all.(Random.State.int rng (Array.length all))
    end;
    if Random.State.float rng 1.0 < p.order_rate then begin
      let all = Array.of_list (List.rev !arrived) in
      Option.iter
        (fun order -> emit (Assert_order { label; order }))
        (pick_order rng schema all !count)
    end;
    emit (Resolve label)
  done;
  if p.final_resolve && p.tail_reads = 0 then emit (Resolve label);
  List.rev !events

let replay ?(params = default_params) (ds : Types.dataset) =
  let rng = Random.State.make [| params.seed |] in
  let queues =
    ds.Types.cases
    |> List.map (fun c -> ref (case_events params rng ds.Types.schema c))
    |> Array.of_list
  in
  (* interleave: pop the head of a random still-nonempty queue, so every
     entity's order is preserved while entities mix freely *)
  let nonempty = ref (Array.to_list (Array.mapi (fun i _ -> i) queues)) in
  let events = ref [] in
  let n_arrivals = ref 0 and n_orders = ref 0 and n_resolves = ref 0 in
  while !nonempty <> [] do
    let live = Array.of_list !nonempty in
    let qi = live.(Random.State.int rng (Array.length live)) in
    (match !(queues.(qi)) with
    | [] -> assert false
    | e :: rest ->
        (match e with
        | Arrival _ -> incr n_arrivals
        | Assert_order _ -> incr n_orders
        | Resolve _ -> incr n_resolves);
        events := e :: !events;
        queues.(qi) := rest;
        if rest = [] then nonempty := List.filter (fun i -> i <> qi) !nonempty)
  done;
  {
    dataset = ds;
    events = List.rev !events;
    n_arrivals = !n_arrivals;
    n_orders = !n_orders;
    n_resolves = !n_resolves;
  }

let open_seq = 1

let with_seqs log =
  let counters = Hashtbl.create 16 in
  let next label =
    let n = Option.value ~default:open_seq (Hashtbl.find_opt counters label) + 1 in
    Hashtbl.replace counters label n;
    n
  in
  List.map
    (fun e ->
      match e with
      | Arrival { label; _ } | Assert_order { label; _ } -> (Some (next label), e)
      | Resolve _ -> (None, e))
    log.events

let labels log = List.map label_of log.dataset.Types.cases

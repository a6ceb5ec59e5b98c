(* The four workloads and their input generators. Every generator seed
   derives from the run's [--seed]; the program under test only ever sees
   the generated inputs. *)

type batch = {
  entities : int;
  size_min : int;
  size_max : int;
  extra_events : int;
  mode : Crcore.Encode.mode;
  oracle : bool;
      (** a user who answers one suggested attribute per round (several
          interaction rounds per entity); otherwise nobody answers, as in
          [crsolve batch] without [--truth] *)
}

type stream = {
  stream_entities : int;
  chunk : int;  (** entities interleaved at once; each chunk's entities close at its end *)
  rates : Datagen.Update_log.params;  (** its [seed] is replaced per chunk *)
  kill : bool;  (** kill -9 the daemon once, at line ⌊0.9·n⌋, and restart it *)
}

type kind = Batch of batch | Stream of stream
type t = { name : string; kind : kind }

let rates = Datagen.Update_log.default_params

(* [smoke] shrinks every workload to seconds of work with all checks on. *)
let all ~smoke =
  let pick full small = if smoke then small else full in
  [
    (* the crsolve batch path: many small same-shape entities spread the
       time over lint, encode, validity and suggest; the solver is nearly
       idle *)
    {
      name = "batch-person";
      kind =
        Batch
          {
            entities = pick 2000 40;
            size_min = 4;
            size_max = 10;
            extra_events = 2;
            mode = Crcore.Encode.Paper;
            oracle = true;
          };
    };
    (* long histories in Exact mode with nobody answering (crsolve batch
       --exact): the Fig. 8(a) regime, where deduce and the SAT solver
       dominate. Entity cost varies by about a third from one history to
       the next, so a pass needs dozens of them to hold the seed-to-seed
       spread down; 30 extra life events keep each under 0.1 s. *)
    {
      name = "long-history";
      kind =
        Batch
          {
            entities = pick 48 1;
            size_min = pick 4000 300;
            size_max = pick 4000 300;
            extra_events = pick 30 10;
            mode = Crcore.Encode.Exact;
            oracle = false;
          };
    };
    (* write-heavy daemon stream with one kill -9: protocol, WAL append and
       fsync, session delta extensions and recovery *)
    {
      name = "stream-ingest";
      kind =
        Stream
          {
            stream_entities = pick 1000 60;
            chunk = pick 500 30;
            rates;
            kill = true;
          };
    };
    (* read-heavy daemon stream over a hot set: memoized resolves, the
       socket and dispatch; encode and the solver are nearly idle *)
    {
      name = "stream-reads";
      kind =
        Stream
          {
            stream_entities = pick 1000 60;
            chunk = pick 500 30;
            rates =
              {
                rates with
                tail_reads = 40;
                order_rate = 0.02;
                dup_rate = 0.03;
                resolve_rate = 0.1;
              };
            kill = false;
          };
    };
  ]

let find ~smoke name =
  match List.find_opt (fun w -> w.name = name) (all ~smoke) with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %s (known: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) (all ~smoke))))

(* the k-th generator seed of a run *)
let derive seed k = Hashtbl.hash (seed, k)

let person ~seed ~entities ~size_min ~size_max ~extra_events =
  Datagen.Person.generate
    {
      Datagen.Person.default_params with
      n_entities = entities;
      size_min;
      size_max;
      extra_events;
      seed = derive seed 0;
    }

(* {1 Batch inputs} *)

let engine_config (b : batch) = { Crcore.Engine.default_config with mode = b.mode }

let batch_items ?limit (b : batch) ~seed =
  let ds =
    person ~seed ~entities:b.entities ~size_min:b.size_min ~size_max:b.size_max
      ~extra_events:b.extra_events
  in
  let limit = Option.value limit ~default:b.entities in
  List.map
    (fun (case : Datagen.Types.case) ->
      {
        Crcore.Engine.label = string_of_int case.Datagen.Types.id;
        spec = Datagen.Types.spec_of ds case;
        user =
          (if b.oracle then Crcore.Framework.oracle ~max_answers:1 case.Datagen.Types.truth
           else Crcore.Framework.silent);
      })
    (List.filteri (fun i _ -> i < limit) ds.Datagen.Types.cases)

(* the set-up pass covers the first tenth of the entities, at least one *)
let setup_size (b : batch) = max 1 (b.entities / 10)

(* {1 Stream inputs} *)

let session_cap = 2000
let fsync = Durable.Wal.Interval 0.05
let snapshot_every = 10_000

let stream_dataset (s : stream) ~seed =
  person ~seed ~entities:s.stream_entities ~size_min:8 ~size_max:16 ~extra_events:0

let csv_line values = String.trim (Csv.to_string [ values ])

let event_label = function
  | Datagen.Update_log.Arrival { label; _ }
  | Datagen.Update_log.Assert_order { label; _ }
  | Datagen.Update_log.Resolve label ->
      label

(* One chunk's update log as the protocol lines an at-least-once client
   sends: a stamped OPEN before an entity's first event, per-entity
   monotone @seq stamps on every mutation, and a stamped CLOSE after its
   last event so finished sessions retire. *)
let chunk_lines (ds : Datagen.Types.dataset) (log : Datagen.Update_log.t) =
  let header = csv_line (Schema.attr_names ds.Datagen.Types.schema) in
  let events = Array.of_list (Datagen.Update_log.with_seqs log) in
  let last = Hashtbl.create 64 and cursor = Hashtbl.create 64 in
  Array.iteri (fun i (_, ev) -> Hashtbl.replace last (event_label ev) i) events;
  let out = ref [] in
  let emit l = out := l :: !out in
  Array.iteri
    (fun i (seq, ev) ->
      let label = event_label ev in
      if not (Hashtbl.mem cursor label) then begin
        Hashtbl.replace cursor label Datagen.Update_log.open_seq;
        emit (Printf.sprintf "@%d OPEN %s|%s" Datagen.Update_log.open_seq label header)
      end;
      Option.iter (Hashtbl.replace cursor label) seq;
      let stamp () = Option.get seq in
      emit
        (match ev with
        | Datagen.Update_log.Arrival { tuple; _ } ->
            Printf.sprintf "@%d INGEST %s|%s" (stamp ()) label
              (csv_line (List.map Value.to_string (Tuple.values tuple)))
        | Datagen.Update_log.Assert_order { order; _ } ->
            Printf.sprintf "@%d ORDER %s|%s|%d|%d" (stamp ()) label order.Crcore.Spec.attr
              order.Crcore.Spec.lo order.Crcore.Spec.hi
        | Datagen.Update_log.Resolve _ -> "RESOLVE " ^ label);
      if Hashtbl.find last label = i then
        emit (Printf.sprintf "@%d CLOSE %s" (Hashtbl.find cursor label + 1) label))
    events;
  List.rev !out

let stream_lines (s : stream) ~seed =
  let ds = stream_dataset s ~seed in
  let rec chunks k cases =
    match cases with
    | [] -> []
    | _ ->
        let here = List.filteri (fun i _ -> i < s.chunk) cases in
        let rest = List.filteri (fun i _ -> i >= s.chunk) cases in
        let sub = { ds with Datagen.Types.cases = here } in
        let log =
          Datagen.Update_log.replay ~params:{ s.rates with seed = derive seed (k + 1) } sub
        in
        chunk_lines ds log @ chunks (k + 1) rest
  in
  (ds, Array.of_list (chunks 0 ds.Datagen.Types.cases))

let is_resolve line = String.length line > 8 && String.sub line 0 8 = "RESOLVE "

(* the line index the stream-ingest daemon is killed before *)
let kill_point (s : stream) n = if s.kill then Some (n * 9 / 10) else None

type handle = {
  label : string;
  m : Mutex.t;
  eng : Engine.session;
  (* delta coalescing: arrivals buffer here and reach the engine as ONE
     pure extension at the next resolve/baseline/spec — k tuple arrivals
     between two resolves cost one [Encode.extend] (and at most one
     solver reload), not k *)
  mutable pending_tuples : Tuple.t list;  (* reversed arrival order *)
  mutable pending_orders : Spec.order_edge list;  (* reversed *)
  mutable last : Engine.result option;
  (* memoized (result, stats) of the latest resolve under the default
     (silent) user; valid only while no extension has been applied since —
     flush clears it. Resolution is deterministic for a fixed config, so
     an unchanged session serves repeated reads without touching the
     solver. *)
  mutable memo : (Engine.result * Engine.entity_stats) option;
  mutable resolves : int;
  mutable closed : bool;
}

let locked h f =
  Mutex.lock h.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.m) f

let check_open h op = if h.closed then invalid_arg ("Session." ^ op ^ ": closed handle")

let create ?config ?cache ?(label = "session") spec =
  {
    label;
    m = Mutex.create ();
    eng = Engine.create_session ?config ?cache ~label spec;
    pending_tuples = [];
    pending_orders = [];
    last = None;
    memo = None;
    resolves = 0;
    closed = false;
  }

let label h = h.label

(* apply the buffered arrivals as one pure extension; holds the lock *)
let flush h =
  if h.pending_tuples <> [] || h.pending_orders <> [] then begin
    let tuples = List.rev h.pending_tuples and orders = List.rev h.pending_orders in
    h.pending_tuples <- [];
    h.pending_orders <- [];
    h.memo <- None;
    Engine.ingest_session h.eng ~orders ~tuples ()
  end

let spec h =
  locked h (fun () ->
      flush h;
      Engine.session_spec h.eng)

let ingest h ?(orders = []) ?(tuples = []) () =
  locked h (fun () ->
      check_open h "ingest";
      h.pending_tuples <- List.rev_append tuples h.pending_tuples;
      h.pending_orders <- List.rev_append orders h.pending_orders)

let resolve ?user h =
  locked h (fun () ->
      check_open h "resolve";
      flush h;
      match (user, h.memo) with
      | None, Some cached ->
          (* nothing ingested since the last automatic resolve: the
             answer cannot have changed *)
          h.resolves <- h.resolves + 1;
          cached
      | _ ->
          Engine.refresh_budget h.eng;
          let u = Option.value user ~default:Framework.silent in
          let r, st = Engine.resolve_session h.eng ~user:u in
          h.last <- Some r;
          (* an interactive user's answers may differ next time; only the
             silent default is safe to memoize *)
          h.memo <- (if user = None then Some (r, st) else None);
          h.resolves <- h.resolves + 1;
          (r, st))

let baseline h strategy =
  locked h (fun () ->
      check_open h "baseline";
      flush h;
      Pick.run ~strategy (Engine.session_spec h.eng))

let last_result h = locked h (fun () -> h.last)
let stats h = locked h (fun () -> Engine.session_stats h.eng)
let resolves h = locked h (fun () -> h.resolves)
let close h = locked h (fun () -> h.closed <- true)
let is_closed h = locked h (fun () -> h.closed)

(* a handle's statistics and resolve count, read under one lock *)
let totals h = locked h (fun () -> (Engine.session_stats h.eng, h.resolves))

let create_handle = create

module Store = struct
  type entry = { h : handle; mutable gen : int; mutable last_used : float }

  type t = {
    config : Engine.config;
    cache : Engine.cache;
    max_sessions : int;
    ttl_s : float option;
    tbl : (string, entry) Hashtbl.t;
    (* LRU bookkeeping: a monotone generation counter; every touch stamps
       the entry and pushes (label, gen) — eviction pops until the head
       matches its entry's current stamp, so stale queue slots cost O(1)
       amortised per touch *)
    lru : (string * int) Queue.t;
    mutable gen : int;
    m : Mutex.t;
    mutable created : int;
    mutable reused : int;
    mutable evicted_lru : int;
    mutable evicted_ttl : int;
    mutable removed : int;
    (* counters of sessions no longer live *)
    mutable retired : Engine.entity_stats;
    mutable retired_resolves : int;
  }

  type stats = {
    live : int;
    created : int;
    reused : int;
    evicted_lru : int;
    evicted_ttl : int;
    removed : int;
    resolves : int;
    delta_extensions : int;
    rebuilds_renumbered : int;
    rebuilds_impure : int;
    solvers_built : int;
    template_hits : int;
    template_misses : int;
    sat : Sat.Solver.stats;
  }

  let create ?(config = Engine.default_config) ?cache ?(max_sessions = 1024) ?ttl_s () =
    let cache = match cache with Some c -> c | None -> Engine.create_cache () in
    {
      config;
      cache;
      max_sessions = max 1 max_sessions;
      ttl_s;
      tbl = Hashtbl.create 64;
      lru = Queue.create ();
      gen = 0;
      m = Mutex.create ();
      created = 0;
      reused = 0;
      evicted_lru = 0;
      evicted_ttl = 0;
      removed = 0;
      retired = Engine.zero_entity_stats ();
      retired_resolves = 0;
    }

  let config t = t.config

  let with_lock t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let touch t (e : entry) =
    t.gen <- t.gen + 1;
    e.gen <- t.gen;
    e.last_used <- Clock.now_s ();
    Queue.push (e.h.label, e.gen) t.lru

  (* store lock held; takes the handle lock (never the reverse order) *)
  let retire t e =
    let st, resolves = totals e.h in
    close e.h;
    t.retired <- Engine.add_stats t.retired st;
    t.retired_resolves <- t.retired_resolves + resolves

  let evict_lru t =
    let rec pop () =
      match Queue.take_opt t.lru with
      | None -> ()
      | Some (lbl, gen) -> (
          match Hashtbl.find_opt t.tbl lbl with
          | Some e when e.gen = gen ->
              Hashtbl.remove t.tbl lbl;
              retire t e;
              t.evicted_lru <- t.evicted_lru + 1
          | _ -> pop () (* stale slot: the entry was touched or dropped since *))
    in
    pop ()

  let find t lbl =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.tbl lbl with
        | Some e ->
            touch t e;
            t.reused <- t.reused + 1;
            Some e.h
        | None -> None)

  let get_or_create t lbl ~spec =
    match find t lbl with
    | Some h -> (h, false)
    | None -> (
        (* encode outside the store lock: creation is the expensive part *)
        let h = create_handle ~config:t.config ~cache:t.cache ~label:lbl (spec ()) in
        with_lock t (fun () ->
            match Hashtbl.find_opt t.tbl lbl with
            | Some e ->
                (* lost the race: first-in wins *)
                touch t e;
                t.reused <- t.reused + 1;
                close h;
                (e.h, false)
            | None ->
                while Hashtbl.length t.tbl >= t.max_sessions do
                  evict_lru t
                done;
                let e = { h; gen = 0; last_used = 0. } in
                Hashtbl.replace t.tbl lbl e;
                touch t e;
                t.created <- t.created + 1;
                (h, true)))

  let remove t lbl =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.tbl lbl with
        | Some e ->
            Hashtbl.remove t.tbl lbl;
            retire t e;
            t.removed <- t.removed + 1;
            true
        | None -> false)

  let sweep t =
    match t.ttl_s with
    | None -> 0
    | Some ttl ->
        with_lock t (fun () ->
            let cutoff = Clock.now_s () -. ttl in
            let stale =
              Hashtbl.fold
                (fun lbl e acc -> if e.last_used < cutoff then (lbl, e) :: acc else acc)
                t.tbl []
            in
            List.iter
              (fun (lbl, e) ->
                Hashtbl.remove t.tbl lbl;
                retire t e;
                t.evicted_ttl <- t.evicted_ttl + 1)
              stale;
            List.length stale)

  let clear t =
    with_lock t (fun () ->
        let all = Hashtbl.fold (fun lbl e acc -> (lbl, e) :: acc) t.tbl [] in
        List.iter
          (fun (lbl, e) ->
            Hashtbl.remove t.tbl lbl;
            retire t e;
            t.removed <- t.removed + 1)
          all;
        Queue.clear t.lru)

  let live t = with_lock t (fun () -> Hashtbl.length t.tbl)

  let stats t =
    with_lock t (fun () ->
        let st, resolves =
          Hashtbl.fold
            (fun _ e (st, n) ->
              let st', n' = totals e.h in
              (Engine.add_stats st st', n + n'))
            t.tbl (t.retired, t.retired_resolves)
        in
        {
          live = Hashtbl.length t.tbl;
          created = t.created;
          reused = t.reused;
          evicted_lru = t.evicted_lru;
          evicted_ttl = t.evicted_ttl;
          removed = t.removed;
          resolves;
          delta_extensions = st.Engine.delta_extensions;
          rebuilds_renumbered = st.Engine.rebuilds_renumbered;
          rebuilds_impure = st.Engine.rebuilds_impure;
          solvers_built = st.Engine.solvers_built;
          template_hits = st.Engine.template_hits;
          template_misses = st.Engine.template_misses;
          sat = st.Engine.solver;
        })

  let pp_stats ppf s =
    Format.fprintf ppf
      "@[<v>live %d (created %d, reused %d)@,evicted: lru %d, ttl %d, removed %d@,\
       resolves %d@,delta extensions %d, rebuilds %d (renumbered %d, impure %d)@,\
       solvers built %d@,templates: %d hit(s) / %d miss(es)@,\
       sat: %a@]"
      s.live s.created s.reused s.evicted_lru s.evicted_ttl s.removed s.resolves
      s.delta_extensions
      (s.rebuilds_renumbered + s.rebuilds_impure)
      s.rebuilds_renumbered s.rebuilds_impure s.solvers_built s.template_hits
      s.template_misses Sat.Solver.pp_stats s.sat
end

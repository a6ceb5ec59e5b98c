type mode = Coding.mode = Paper | Exact

type fact = { attr : int; lo : int; hi : int }

type source = From_order | From_constraint of int | From_cfd of int

type iconstraint = { premise : fact list; concl : fact; source : source }

(* ---- compiled constraint forms ----

   [Instantiation] evaluates every candidate constraint (see the constant
   index below) on every representative tuple pair; resolving attribute
   names to positions once per Σ/Γ (instead of a hashtable lookup per
   predicate per pair) and splitting the single-tuple constant predicates
   out of the pair predicates turns the inner loop into array reads and
   lets whole constraints skip pairs wholesale. *)

type cpred = CPrec of int | CCmp2 of int * Value.op

(* ---- the constant index ----

   A constraint carrying an equality with a constant can only matter to
   an entity that takes that constant, and a Person-style Σ/Γ is hundreds
   of such constraints, each about values few entities take. The index
   files each constraint under one (attribute, constant) pair; an entity
   probes it with its active-domain values and visits only the hits (plus
   the short list of constraints without an equality constant), in
   ascending constraint index, so deduplication keeps the very [source]
   a full scan would. The index only skips constraints that cannot fire:
   every exact test still runs on the candidates.

   Keys follow [Value.equal] ({!Value.Tbl}): [Int 3] meets [Float 3.],
   [0.] meets [-0.], NaN meets nothing. Equal keys are never merged: each
   constraint is its own binding ([add]) and a probe collects every
   binding equal to it ([find_all]). *)
type cindex = int Value.Tbl.t array  (* per attribute: constant -> constraint index *)

let cindex_create arity = Array.init arity (fun _ -> Value.Tbl.create 16)

let cindex_add (idx : cindex) a v k = Value.Tbl.add idx.(a) v k

(* ascending, duplicate-free indices of the constraints filed under
   [value a i] for some attribute [a] and [i < nvals a] *)
let cindex_probe (idx : cindex) ~nvals ~value =
  let hits = ref [] in
  Array.iteri
    (fun a tbl ->
      if Value.Tbl.length tbl > 0 then
        for i = 0 to nvals a - 1 do
          match Value.Tbl.find_all tbl (value a i) with
          | [] -> ()
          | ks -> hits := List.rev_append ks !hits
        done)
    idx;
  List.sort_uniq Int.compare !hits

type cconstraint = {
  c_idx : int;  (* index into Σ *)
  c_positions : int list;  (* sorted positions of every mentioned attribute *)
  c_pos : int;  (* number of [c_positions] among the distinct ones, below [s_npos] *)
  c_t1 : (int * Value.op * Value.t) list;  (* constant predicates on t1 *)
  c_t2 : (int * Value.op * Value.t) list;  (* constant predicates on t2 *)
  c_pair : cpred list;  (* pair predicates, original premise order *)
  c_nprec : int;  (* how many of [c_pair] are [CPrec]: a bound on premise facts *)
  c_concl : int;
}

type sigma_c = {
  s_schema : Schema.t;
  s_src : Currency.Constraint_ast.t list;
  s_cs : cconstraint array;  (* by Σ index *)
  s_index : cindex;  (* the constraints with an [Eq] constant predicate *)
  s_always : int list;  (* the others, ascending: visited on every entity *)
  s_npos : int;  (* how many distinct [c_positions] there are *)
}

type cgamma = { g_idx : int; g_lhs : (int * Value.t) list; g_rhs : int * Value.t }

type gamma_c = {
  g_schema : Schema.t;
  g_src : Cfd.Constant_cfd.t list;
  g_cs : cgamma array;  (* by Γ index *)
  g_index : cindex;  (* every CFD that can be relevant, under its first LHS atom *)
}

(* ---- packed facts and instances ----

   Σ and Γ ground into int arenas, not records. A fact packs into one
   int, [(attr·2^21 + lo)·2^21 + hi], whose integer order is fact order
   (attribute, then lo, then hi: polymorphic [compare] on [fact]); value
   ids stay below 2^21 and attributes below 2^20 ({!check_packable}), so
   packed facts are non-negative. A Σ or Γ source packs as [2k] or
   [2k + 1]. *)

let fact_bits = 21

let fact_mask = (1 lsl fact_bits) - 1

let pack_fact attr lo hi = (((attr lsl fact_bits) lor lo) lsl fact_bits) lor hi

let fact_attr p = p lsr (2 * fact_bits)

let fact_lo p = (p lsr fact_bits) land fact_mask

let fact_hi p = p land fact_mask

let unpack_fact p = { attr = fact_attr p; lo = fact_lo p; hi = fact_hi p }

let constraint_source k = 2 * k

let cfd_source k = (2 * k) + 1

let unpack_source s = if s land 1 = 0 then From_constraint (s lsr 1) else From_cfd (s lsr 1)

(* Instance [i] is the slice [data.(starts.(i)) .. data.(starts.(i+1) -
   1)]: its packed source, its packed conclusion ([no_fact] for a veto),
   then its premise facts. [starts] has one entry more than there are
   instances. Never mutated once built. *)
type insts = { data : int array; starts : int array }

let no_fact = -1

let n_insts ps = Array.length ps.starts - 1

let n_premise ps i = ps.starts.(i + 1) - ps.starts.(i) - 2

(* ---- per-shape templates ----

   Everything about an encoding that does not depend on the concrete
   entity: the compiled Σ/Γ with their constant indexes (a function of
   the schema and the interned constraint lists) and, in Paper mode, the
   structural-axiom clause arenas (Exact mode lists no axioms: see
   [order_axioms]). An attribute's arena is a pure function of its
   universe size d and its variable offset — the numbering is offset
   arithmetic — so the store is keyed per attribute by (d, offset):
   entities (and Renumbered re-encodes) agreeing on an attribute's size
   and offset share its cubic transitivity arena outright, even when
   their size vectors differ elsewhere. Sharing is safe: a
   [Sat.Cnf.arena] is never mutated, and [Sat.Solver.add_cnf] copies each
   clause before sorting it. *)

module Block_tbl = Hashtbl.Make (struct
  type t = int * int  (* (d, offset) *)

  let equal ((d1, o1) : t) (d2, o2) = d1 = d2 && o1 = o2
  let hash ((d, o) : t) = Hashtbl.hash (d, o)
end)

type template = {
  t_mode : mode;
  t_schema : Schema.t;
  t_sigma_c : sigma_c;
  t_gamma_c : gamma_c;
  t_lock : Mutex.t;  (* guards [t_structural]; build happens outside it *)
  t_structural : Sat.Cnf.arena Block_tbl.t;
}

type t = {
  spec : Spec.t;
  coding : Coding.t;
  mode : mode;
  sigma_c : sigma_c;
  gamma_c : gamma_c;
  template : template option;
  n_rows : int;
  sigma_ground : insts;
  gamma_ground : insts;
  veto_ground : insts;
  order_facts : int array;
  cnf : Sat.Cnf.t;
  n_structural : int;
  structural : Sat.Cnf.arena list;
}

let lit_of_fact_c coding f = Coding.lit_of coding ~attr:f.attr f.lo f.hi

(* the (attribute, constant) of each [Eq] constant predicate *)
let eq_consts preds =
  List.filter_map (fun (a, op, v) -> if op = Value.Eq then Some (a, v) else None) preds

let compile_sigma schema sigma =
  (* constraint sets routinely hold hundreds of constraints over the same
     few attribute sets (chains instantiated with different constants), so
     each distinct position list gets an id and representatives are
     memoised per id *)
  let pos_ids = Hashtbl.create 16 in
  let pos_id positions =
    match Hashtbl.find_opt pos_ids positions with
    | Some k -> k
    | None ->
        let k = Hashtbl.length pos_ids in
        Hashtbl.add pos_ids positions k;
        k
  in
  let cs =
    List.mapi
      (fun k (c : Currency.Constraint_ast.t) ->
        let t1 = ref [] and t2 = ref [] and pair = ref [] in
        let positions = ref [Schema.index schema c.Currency.Constraint_ast.concl] in
        List.iter
          (fun p ->
            match p with
            | Currency.Constraint_ast.Prec name ->
                let a = Schema.index schema name in
                positions := a :: !positions;
                pair := CPrec a :: !pair
            | Currency.Constraint_ast.Cmp2 (name, op) ->
                let a = Schema.index schema name in
                positions := a :: !positions;
                pair := CCmp2 (a, op) :: !pair
            | Currency.Constraint_ast.Cmp_const (r, name, op, v) -> (
                let a = Schema.index schema name in
                positions := a :: !positions;
                let e = (a, op, v) in
                match r with
                | Currency.Constraint_ast.T1 -> t1 := e :: !t1
                | Currency.Constraint_ast.T2 -> t2 := e :: !t2))
          c.Currency.Constraint_ast.premise;
        (* sorted positions, not name-sorted [Constraint_ast.attrs]:
           which tuples represent a distinct projection is insensitive to
           the order of the projected positions, so any canonical order
           yields the same representatives (and memo hits) *)
        let positions = List.sort_uniq compare !positions in
        {
          c_idx = k;
          c_positions = positions;
          c_pos = pos_id positions;
          c_t1 = List.rev !t1;
          c_t2 = List.rev !t2;
          c_pair = List.rev !pair;
          c_nprec = List.length (List.filter (function CPrec _ -> true | CCmp2 _ -> false) !pair);
          c_concl = Schema.index schema c.Currency.Constraint_ast.concl;
        })
      sigma
  in
  (* a constraint fires only on a tuple pair whose t1 (t2) satisfies every
     t1 (t2) constant predicate, so one with [ti.A = c] needs c in A's
     active domain: it is filed under (A, c). One with a NaN [Eq]
     constant never fires and is filed nowhere. *)
  let index = cindex_create (Schema.arity schema) in
  let always = ref [] in
  List.iter
    (fun cc ->
      match eq_consts (cc.c_t1 @ cc.c_t2) with
      | [] -> always := cc.c_idx :: !always
      | eqs when List.exists (fun (_, v) -> Value.is_nan v) eqs -> ()
      | (a, v) :: _ -> cindex_add index a v cc.c_idx)
    cs;
  {
    s_schema = schema;
    s_src = sigma;
    s_cs = Array.of_list cs;
    s_index = index;
    s_always = List.rev !always;
    s_npos = Hashtbl.length pos_ids;
  }

let compile_gamma schema gamma =
  let cs =
    List.mapi
      (fun k (c : Cfd.Constant_cfd.t) ->
        let bname, bval = c.Cfd.Constant_cfd.rhs in
        {
          g_idx = k;
          g_lhs =
            List.map (fun (a, v) -> (Schema.index schema a, v)) c.Cfd.Constant_cfd.lhs;
          g_rhs = (Schema.index schema bname, bval);
        })
      gamma
  in
  (* a CFD is relevant only when its first LHS constant occurs; one with a
     NaN LHS constant never is (a pattern matches under [Value.equal]) *)
  let index = cindex_create (Schema.arity schema) in
  List.iter
    (fun g ->
      match g.g_lhs with
      | (a, v) :: _ when not (List.exists (fun (_, v) -> Value.is_nan v) g.g_lhs) ->
          cindex_add index a v g.g_idx
      | _ -> ())
    cs;
  { g_schema = schema; g_src = gamma; g_cs = Array.of_list cs; g_index = index }

(* Reuse a compiled form when the constraint list is the very same value:
   specs share Σ/Γ physically across [Se ⊕ Ot] steps (and callers can
   share across a batch via the [?sigma_c] parameters). A one-slot
   domain-local memo backs up callers that don't pass the compiled form —
   e.g. a naive resolution loop re-encoding the same spec every round —
   without any cross-domain state. *)
let sigma_memo : sigma_c option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let gamma_memo : gamma_c option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sigma_c_for schema sigma arg =
  match arg with
  | Some sc when sc.s_src == sigma && Schema.equal sc.s_schema schema -> sc
  | _ -> (
      let slot = Domain.DLS.get sigma_memo in
      match !slot with
      | Some sc when sc.s_src == sigma && Schema.equal sc.s_schema schema -> sc
      | _ ->
          let sc = compile_sigma schema sigma in
          slot := Some sc;
          sc)

let gamma_c_for schema gamma arg =
  match arg with
  | Some gc when gc.g_src == gamma && Schema.equal gc.g_schema schema -> gc
  | _ -> (
      let slot = Domain.DLS.get gamma_memo in
      match !slot with
      | Some gc when gc.g_src == gamma && Schema.equal gc.g_schema schema -> gc
      | _ ->
          let gc = compile_gamma schema gamma in
          slot := Some gc;
          gc)

let compiled_gamma spec = gamma_c_for (Spec.schema spec) spec.Spec.gamma None

(* the Σ constraints that can fire on [coding]'s entity, ascending *)
let iter_sigma_candidates sigma_c coding f =
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: b' -> if x < y then x :: merge a' b else y :: merge a b'
  in
  let hits =
    cindex_probe sigma_c.s_index ~nvals:(Coding.adom_size coding) ~value:(Coding.value coding)
  in
  List.iter (fun k -> f sigma_c.s_cs.(k)) (merge hits sigma_c.s_always)

(* ---- instantiating currency constraints over distinct projections ----

   Instance constraints depend only on the two tuples' values at the
   attributes a constraint mentions, so we instantiate over pairs of
   distinct projections rather than pairs of tuples: same instances,
   usually far fewer pairs. *)

(* Σ instances in a canonical order, independent of which tuple pairs
   produced them: [extend] merges incrementally-found instances into a
   base set and must land on the very sequence a fresh encode would
   build. Premise lists compare lexicographically (a shorter prefix
   first), then conclusions — polymorphic [compare] on [(premise,
   concl)]. [compare_at d1 s1 i d2 s2 j] compares instance [i] of the
   slices [(d1, s1)] with instance [j] of [(d2, s2)]. *)
let rec compare_premises d1 e1 c1 d2 e2 c2 a b =
  if a = e1 then if b = e2 then Int.compare d1.(c1) d2.(c2) else -1
  else if b = e2 then 1
  else
    match Int.compare d1.(a) d2.(b) with
    | 0 -> compare_premises d1 e1 c1 d2 e2 c2 (a + 1) (b + 1)
    | c -> c

let compare_at d1 s1 i d2 s2 j =
  compare_premises d1 s1.(i + 1) (s1.(i) + 1) d2 s2.(j + 1) (s2.(j) + 1) (s1.(i) + 2) (s2.(j) + 2)

(* ---- the per-entity instantiation stage ----

   [Coding.lower] gives every cell its universe id in the same scan that
   builds the active domains, over the entity's distinct rows
   ({!Entity.distinct_rows}): [cells.(a).(k)] is the id of row [k]'s
   value at attribute [a], read column by column. Tuples equal cell by
   cell ground every constraint identically, so a history that repeats
   its records is instantiated once per distinct record; rows keep the
   tuples' order, so representatives, instance order and [fired] flags
   are those of a scan over every tuple. Everything after the lowering
   is integer compares and array reads. This rests on two facts: value
   ids are assigned by [Value.total_compare], which identifies two values
   exactly when [Value.equal] does (numerically equal Int/Float
   included), so id equality IS value equality over universe members; and
   [Value.eval] is built on [equal]/[compare_opt], so evaluating an
   operator on the universe representative ([Coding.value]) is evaluating
   it on the tuple's own value. Projection representatives keyed on ids
   coincide with the value-keyed ones up to [Value.equal]-classes, which
   is the exact equivalence instance generation factors through — the
   instance set (and the [fired] flags) is unchanged. *)

(* Hashtbl picks a bucket from the hash's low bits, and a refinement key
   [class·d + id] with d a power of two has [id] as its low bits, so an
   identity hash would chain every tuple of a column with concentrated
   ids. A multiplicative mix spreads them; [lsr] keeps it non-negative. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 17
end)

(* one multiplicative round, its high bits folded down: every input bit
   reaches the low bits a table slot is taken from *)
let mix x =
  let x = x * 0x9E3779B97F4A7C1 in
  x lxor (x lsr 29)

(* A growable slice arena: the instances being ground, packed as in
   [insts]. Slice [i < b_n] is [b_data.(b_starts.(i)) ..
   b_data.(b_starts.(i+1) - 1)]; the slice being written runs from
   [b_starts.(b_n)] to [b_len]. *)
type builder = {
  mutable b_data : int array;
  mutable b_len : int;
  mutable b_starts : int array;
  mutable b_n : int;
}

let builder_reset b =
  b.b_len <- 0;
  b.b_n <- 0

(* room for [k] more ints in the open slice *)
let reserve b k =
  let cap = Array.length b.b_data in
  if b.b_len + k > cap then begin
    let data = Array.make (max (b.b_len + k) (2 * cap)) 0 in
    Array.blit b.b_data 0 data 0 b.b_len;
    b.b_data <- data
  end

let push b x =
  reserve b 1;
  b.b_data.(b.b_len) <- x;
  b.b_len <- b.b_len + 1

(* close the open slice as slice [b_n] *)
let commit b =
  if b.b_n + 2 > Array.length b.b_starts then
    b.b_starts <- Array.append b.b_starts (Array.make (Array.length b.b_starts + 2) 0);
  b.b_n <- b.b_n + 1;
  b.b_starts.(b.b_n) <- b.b_len

(* the open slice is dropped *)
let rollback b = b.b_len <- b.b_starts.(b.b_n)

(* [Array.blit] for the few ints of one slice: a loop, not a C call *)
let copy_ints src spos dst dpos len =
  for i = 0 to len - 1 do
    dst.(dpos + i) <- src.(spos + i)
  done

(* Open-addressing tables of ints with linear probing, reused across
   calls: a slot is live iff its stamp is the current generation, so
   clearing is one increment, whatever the table grew to. Each live slot
   keeps its value's hash, to regrow without knowing what the values
   stand for. *)
type otable = {
  mutable o_stamp : int array;
  mutable o_vals : int array;
  mutable o_hash : int array;
  mutable o_gen : int;
  mutable o_count : int;
}

let otable_create cap =
  { o_stamp = Array.make cap 0; o_vals = Array.make cap 0; o_hash = Array.make cap 0; o_gen = 1; o_count = 0 }

let otable_clear t =
  t.o_gen <- t.o_gen + 1;
  t.o_count <- 0

let rec free_slot t mask j = if t.o_stamp.(j) <> t.o_gen then j else free_slot t mask ((j + 1) land mask)

let otable_set t j v h =
  t.o_stamp.(j) <- t.o_gen;
  t.o_vals.(j) <- v;
  t.o_hash.(j) <- h

(* keep the table at most half full: double it when one more value
   would pass that *)
let otable_reserve t =
  if 2 * (t.o_count + 1) > Array.length t.o_stamp then begin
    let old_stamp = t.o_stamp and old_vals = t.o_vals and old_hash = t.o_hash in
    let cap = 2 * Array.length old_stamp in
    t.o_stamp <- Array.make cap 0;
    t.o_vals <- Array.make cap 0;
    t.o_hash <- Array.make cap 0;
    let mask = cap - 1 in
    for j = 0 to Array.length old_stamp - 1 do
      if old_stamp.(j) = t.o_gen then
        otable_set t (free_slot t mask (old_hash.(j) land mask)) old_vals.(j) old_hash.(j)
    done
  end

(* the slot of the packed fact [f], or the free slot it would take *)
let rec probe_fact t mask j f =
  if t.o_stamp.(j) <> t.o_gen || t.o_vals.(j) = f then j else probe_fact t mask ((j + 1) land mask) f

(* [fset_add t f] adds the packed fact [f]; [true] iff it was absent *)
let fset_add t f =
  otable_reserve t;
  let h = mix f in
  let j = probe_fact t (Array.length t.o_stamp - 1) (h land (Array.length t.o_stamp - 1)) f in
  t.o_stamp.(j) <> t.o_gen
  && begin
       otable_set t j f h;
       t.o_count <- t.o_count + 1;
       true
     end

let fset_mem t f =
  let mask = Array.length t.o_stamp - 1 in
  t.o_stamp.(probe_fact t mask (mix f land mask) f) = t.o_gen

(* the dedup key of an instance: its conclusion and premises, not its
   source (the first instance grounded keeps its source) *)
let key_hash data lo hi =
  let h = ref 0 in
  for i = lo to hi - 1 do
    h := mix (!h lxor data.(i))
  done;
  !h

let rec keys_equal data a b stop = a = stop || (data.(a) = data.(b) && keys_equal data (a + 1) (b + 1) stop)

(* the slot of the slice of [b] whose key is that of [b]'s open slice
   ([lo], [len], hash [h]), or the free slot it would take *)
let rec probe_slice t mask j b h lo len =
  if t.o_stamp.(j) <> t.o_gen then j
  else if
    t.o_hash.(j) = h
    &&
    let s = b.b_starts.(t.o_vals.(j)) in
    b.b_starts.(t.o_vals.(j) + 1) - s = len && keys_equal b.b_data (s + 1) (lo + 1) (s + len)
  then j
  else probe_slice t mask ((j + 1) land mask) b h lo len

(* Commit the open slice of [b] unless an earlier slice has its key
   (then it is dropped). [true] iff committed. *)
let add_unique b t =
  let lo = b.b_starts.(b.b_n) in
  let h = key_hash b.b_data (lo + 1) b.b_len in
  otable_reserve t;
  let mask = Array.length t.o_stamp - 1 in
  let j = probe_slice t mask (h land mask) b h lo (b.b_len - lo) in
  if t.o_stamp.(j) = t.o_gen then begin
    rollback b;
    false
  end
  else begin
    otable_set t j b.b_n h;
    t.o_count <- t.o_count + 1;
    commit b;
    true
  end

(* Per-domain scratch, reused across encodes: the class table keeps its
   grown buckets ([Hashtbl.clear]), the builder and the open-addressing
   tables their arrays, so steady-state instantiation allocates no fresh
   tables. Never live across calls — no escape. The class table is sized
   to the entity: one far larger than this entity has rows is replaced,
   so a small stream entity does not clear buckets grown for a 4000-row
   one. *)
type scratch = {
  sc_build : builder;  (* instances being ground *)
  sc_keys_seen : otable;  (* slice indices of [sc_build], by key *)
  sc_facts : otable;  (* packed facts *)
  mutable sc_order : int array array;  (* [sort_slices]' index, merge and key arrays *)
  mutable sc_cls : int array;  (* projection class of each row *)
  mutable sc_keys : int Int_tbl.t;  (* (class, id) key -> refined class *)
  mutable sc_keys_cap : int;  (* [sc_keys]'s size: created for, or most keys held *)
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sc_build =
          { b_data = Array.make 1024 0; b_len = 0; b_starts = Array.make 256 0; b_n = 0 };
        sc_keys_seen = otable_create 256;
        sc_facts = otable_create 64;
        sc_order = [| [||]; [||]; [||] |];
        sc_cls = [||];
        sc_keys = Int_tbl.create 16;
        sc_keys_cap = 16;
      })

(* Copy slices [idx.(0)], … [idx.(n-1)] of [b], in that order, into a
   fresh, exactly sized [insts]. *)
let insts_of b idx n =
  let starts = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    starts.(k + 1) <- starts.(k) + b.b_starts.(idx.(k) + 1) - b.b_starts.(idx.(k))
  done;
  let data = Array.make starts.(n) 0 in
  for k = 0 to n - 1 do
    copy_ints b.b_data b.b_starts.(idx.(k)) data starts.(k) (starts.(k + 1) - starts.(k))
  done;
  { data; starts }

(* Sort the slice indices [first .. first + n - 1] of [(d, s)] by
   [compare_at] into the first [n] entries of the array returned, one of
   [sc_order]'s: insertion sort on runs of 8, then bottom-up merges
   between two arrays. Most comparisons are settled by one int compare
   of the slices' first premise facts ([-1] for none: an empty premise
   list comes first); only ties read the slices. *)
let sort_slices sc d s ~first n =
  let arrays = sc.sc_order in
  if Array.length arrays.(0) < n then
    sc.sc_order <- Array.map (fun _ -> Array.make (max n (2 * Array.length arrays.(0))) 0) arrays;
  let idx = sc.sc_order.(0) and merged = sc.sc_order.(1) and key = sc.sc_order.(2) in
  for k = 0 to n - 1 do
    idx.(k) <- first + k;
    key.(k) <- (if s.(first + k + 1) - s.(first + k) > 2 then d.(s.(first + k) + 2) else -1)
  done;
  let cmp i j =
    let ki = key.(i - first) and kj = key.(j - first) in
    if ki <> kj then Int.compare ki kj else compare_at d s i d s j
  in
  let run = 8 in
  for lo = 0 to (n - 1) / run do
    let lo = lo * run in
    for i = lo + 1 to min n (lo + run) - 1 do
      let x = idx.(i) in
      let j = ref (i - 1) in
      while !j >= lo && cmp idx.(!j) x > 0 do
        idx.(!j + 1) <- idx.(!j);
        decr j
      done;
      idx.(!j + 1) <- x
    done
  done;
  let src = ref idx and dst = ref merged and width = ref run in
  while !width < n do
    let a = !src and o = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || cmp a.(!i) a.(!j) <= 0) then begin
          o.(k) <- a.(!i);
          incr i
        end
        else begin
          o.(k) <- a.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := o;
    dst := a;
    width := 2 * !width
  done;
  !src

(* slices [first .. b_n - 1] of [b] in canonical order. The slices are
   unique after dedup, so every sort gives the same sequence. *)
let sorted_insts sc first =
  let b = sc.sc_build in
  let n = b.b_n - first in
  insts_of b (sort_slices sc b.b_data b.b_starts ~first n) n

(* slices [0 .. b_n - 1] of [b] in grounding order *)
let all_insts b = { data = Array.sub b.b_data 0 b.b_len; starts = Array.sub b.b_starts 0 (b.b_n + 1) }

(* the reserved null's id per attribute ({!Coding.build} guarantees one) *)
let null_ids coding =
  let arity = Schema.arity (Coding.schema coding) in
  Array.init arity (fun a -> Coding.vid coding a Value.Null)

(* value ids and attributes must fit their packed fields *)
let check_packable coding =
  let arity = Schema.arity (Coding.schema coding) in
  if arity > 1 lsl (62 - (2 * fact_bits)) then invalid_arg "Encode: too many attributes";
  for a = 0 to arity - 1 do
    if Array.length (Coding.universe coding a) > fact_mask then
      invalid_arg "Encode: a value universe exceeds 2^21 values"
  done

(* Split the classes [sc_cls.(0..n-1)] by the id column [col] (ids below
   [d]): two rows stay together iff they shared a class and agree on
   [col]. The key [class·d + id] is exact (ids are below [d]) and small
   (classes are below [n] or a universe size). New classes are numbered
   densely in first-occurrence order; returns their count. *)
let refine sc n col d =
  let cls = sc.sc_cls and keys = sc.sc_keys in
  Int_tbl.clear keys;
  let next = ref 0 in
  for i = 0 to n - 1 do
    let key = (cls.(i) * d) + col.(i) in
    match Int_tbl.find keys key with
    | c -> cls.(i) <- c
    | exception Not_found ->
        Int_tbl.add keys key !next;
        cls.(i) <- !next;
        incr next
  done;
  if !next > sc.sc_keys_cap then sc.sc_keys_cap <- !next;
  !next

(* first-occurrence representative row positions of the distinct
   projections onto [positions], in ascending order: the first position's
   ids are the initial classes, each further position refines them, and
   a class is represented by its first row *)
let projection_reps coding cells positions =
  match positions with
  | [] -> [ 0 ] (* every row projects to (); entities are non-empty *)
  | p :: rest ->
      let n = Array.length cells.(p) in
      let size a = Array.length (Coding.universe coding a) in
      let sc = Domain.DLS.get scratch_key in
      if Array.length sc.sc_cls < n then sc.sc_cls <- Array.make n 0;
      if sc.sc_keys_cap > (4 * n) + 16 then begin
        sc.sc_keys <- Int_tbl.create n;
        sc.sc_keys_cap <- n
      end;
      Array.blit cells.(p) 0 sc.sc_cls 0 n;
      let nclasses = List.fold_left (fun _ q -> refine sc n cells.(q) (size q)) (size p) rest in
      let seen = Bytes.make nclasses '\000' in
      let reps = ref [] in
      for i = 0 to n - 1 do
        let c = sc.sc_cls.(i) in
        if Bytes.get seen c = '\000' then begin
          Bytes.set seen c '\001';
          reps := i :: !reps
        end
      done;
      List.rev !reps

(* representatives memoised per position-list id ({!compile_sigma}) *)
let reps_by_positions sigma_c coding cells =
  let memo = Array.make sigma_c.s_npos None in
  fun cc ->
    match memo.(cc.c_pos) with
    | Some reps -> reps
    | None ->
        let reps = projection_reps coding cells cc.c_positions in
        memo.(cc.c_pos) <- Some reps;
        reps

let rec sat_consts coding cells i = function
  | [] -> true
  | (a, op, cst) :: rest ->
      Value.eval op (Coding.value coding a cells.(a).(i)) cst && sat_consts coding cells i rest

(* The pair predicates of a compiled constraint on rows [t1], [t2] (the
   [Constraint_ast.instantiate] semantics): each residual prec conjunct
   is written as a packed fact at [data.(pos)], [pos + 1], …; returns
   the position after the last one, or [-1] when some conjunct is
   vacuous-making. *)
let rec ground_preds data pos coding nulls cells t1 t2 = function
  | [] -> pos
  | CPrec a :: rest ->
      let i1 = cells.(a).(t1) and i2 = cells.(a).(t2) in
      (* nulls rank lowest: null ≺ v always holds (drop the conjunct),
         v ≺ null never does (the whole constraint is vacuous) *)
      if i2 = nulls.(a) || i1 = i2 then -1
      else if i1 = nulls.(a) then ground_preds data pos coding nulls cells t1 t2 rest
      else begin
        data.(pos) <- pack_fact a i1 i2;
        ground_preds data (pos + 1) coding nulls cells t1 t2 rest
      end
  | CCmp2 (a, op) :: rest ->
      if Value.eval op (Coding.value coding a cells.(a).(t1)) (Coding.value coding a cells.(a).(t2))
      then ground_preds data pos coding nulls cells t1 t2 rest
      else -1

(* sort [data.(lo .. hi-1)] ascending and drop repeats; returns the new
   end *)
let sort_uniq_slice data lo hi =
  for i = lo + 1 to hi - 1 do
    let x = data.(i) in
    let j = ref (i - 1) in
    while !j >= lo && data.(!j) > x do
      data.(!j + 1) <- data.(!j);
      decr j
    done;
    data.(!j + 1) <- x
  done;
  if hi - lo <= 1 then hi
  else begin
    let w = ref (lo + 1) in
    for i = lo + 1 to hi - 1 do
      if data.(i) <> data.(!w - 1) then begin
        data.(!w) <- data.(i);
        incr w
      end
    done;
    !w
  end

(* Ground compiled constraint [cc], whose single-tuple constant
   predicates already held, on rows [t1], [t2] into the open slice of
   [b]: source, conclusion, sorted premise facts. [true] iff it grounds
   to an instance; otherwise the open slice is left empty. *)
let ground_pair b coding nulls cc cells t1 t2 =
  let lo = b.b_starts.(b.b_n) in
  reserve b (2 + cc.c_nprec);
  let data = b.b_data in
  let stop = ground_preds data (lo + 2) coding nulls cells t1 t2 cc.c_pair in
  let a = cc.c_concl in
  let i1 = cells.(a).(t1) and i2 = cells.(a).(t2) in
  (* equal-valued conclusions hold trivially; a null on either side of
     the conclusion carries no value-level currency information (a null
     already ranks lowest; a more-current-but-unknown value constrains
     nothing) *)
  if stop < 0 || i1 = i2 || i1 = nulls.(a) || i2 = nulls.(a) then false
  else begin
    data.(lo) <- constraint_source cc.c_idx;
    data.(lo + 1) <- pack_fact a i1 i2;
    b.b_len <- sort_uniq_slice data (lo + 2) stop;
    true
  end

(* [cells] are [coding]'s id columns over the entity's rows ({!Coding.lower}) *)
let instantiate_sigma ?fired sigma_c coding cells =
  let nulls = null_ids coding in
  let reps_of = reps_by_positions sigma_c coding cells in
  let sc = Domain.DLS.get scratch_key in
  let b = sc.sc_build and seen = sc.sc_keys_seen in
  builder_reset b;
  otable_clear seen;
  iter_sigma_candidates sigma_c coding (fun cc ->
      let reps = reps_of cc in
      let cand1 =
        if cc.c_t1 = [] then reps else List.filter (fun i -> sat_consts coding cells i cc.c_t1) reps
      in
      if cand1 <> [] then begin
        let cand2 =
          if cc.c_t2 = [] then reps else List.filter (fun i -> sat_consts coding cells i cc.c_t2) reps
        in
        List.iter
          (fun i1 ->
            List.iter
              (fun i2 ->
                if i1 <> i2 && ground_pair b coding nulls cc cells i1 i2 then begin
                  (* pre-dedup: a constraint "fires" even when another
                     constraint already produced the same ground instance *)
                  (match fired with Some fd -> fd.(cc.c_idx) <- true | None -> ());
                  ignore (add_unique b seen)
                end)
              cand2)
          cand1
      end);
  sorted_insts sc 0

(* The Σ instances an extension adds: with the value universes unchanged,
   instances over pairs of pre-existing rows are exactly [base], so only
   pairs touching a projection representative introduced by a row at
   position ≥ [n_base] can contribute anything new. On the framework's
   one-fresh-tuple extensions this is O(reps) instantiation calls per
   constraint instead of O(reps²). *)
let instantiate_sigma_delta sigma_c coding cells ~base ~n_base =
  let nulls = null_ids coding in
  let reps_of = reps_by_positions sigma_c coding cells in
  let sc = Domain.DLS.get scratch_key in
  let b = sc.sc_build and seen = sc.sc_keys_seen in
  builder_reset b;
  otable_clear seen;
  for i = 0 to n_insts base - 1 do
    let lo = base.starts.(i) and len = base.starts.(i + 1) - base.starts.(i) in
    reserve b len;
    copy_ints base.data lo b.b_data b.b_len len;
    b.b_len <- b.b_len + len;
    ignore (add_unique b seen)
  done;
  let n0 = b.b_n in
  iter_sigma_candidates sigma_c coding (fun cc ->
      let reps = reps_of cc in
      let news = List.filter (fun i -> i >= n_base) reps in
      if news <> [] then begin
        let try_pair i1 i2 =
          if
            i1 <> i2
            && sat_consts coding cells i1 cc.c_t1
            && sat_consts coding cells i2 cc.c_t2
            && ground_pair b coding nulls cc cells i1 i2
          then ignore (add_unique b seen)
        in
        let olds = List.filter (fun i -> i < n_base) reps in
        List.iter (fun o -> List.iter (fun n -> try_pair o n) news) olds;
        List.iter (fun n -> List.iter (fun r -> try_pair n r) reps) news
      end);
  (* canonical order: the delta clauses a live session receives must not
     depend on hashing or pair-enumeration order *)
  sorted_insts sc n0

(* the merge of two canonically ordered instance sets with no key in
   common: the canonical order of their union *)
let merge_insts x y =
  let nx = n_insts x and ny = n_insts y in
  let starts = Array.make (nx + ny + 1) 0 in
  let data = Array.make (Array.length x.data + Array.length y.data) 0 in
  let put k src i =
    let len = src.starts.(i + 1) - src.starts.(i) in
    copy_ints src.data src.starts.(i) data starts.(k) len;
    starts.(k + 1) <- starts.(k) + len
  in
  let rec go i j =
    if i < nx && (j >= ny || compare_at x.data x.starts i y.data y.starts j < 0) then begin
      put (i + j) x i;
      go (i + 1) j
    end
    else if j < ny then begin
      put (i + j) y j;
      go i (j + 1)
    end
  in
  go 0 0;
  { data; starts }

(* ---- instantiating constant CFDs ---- *)

let relevant_gamma entity gamma =
  let schema = Entity.schema entity in
  let adoms =
    Array.init (Schema.arity schema) (fun a -> Entity.active_domain entity a)
  in
  List.mapi (fun k c -> (k, c)) gamma
  |> List.filter (fun (_, (c : Cfd.Constant_cfd.t)) ->
         List.for_all
           (fun (aname, v) ->
             let a = Schema.index schema aname in
             List.exists (Value.equal v) adoms.(a))
           c.Cfd.Constant_cfd.lhs)

(* The CFDs relevant to [coding]'s entity, ascending, each with its LHS
   as (attribute, value id) pairs: every LHS pattern constant occurs in
   the active domain. The index yields the CFDs whose first LHS constant
   occurs; the exact test runs on those alone. *)
let relevant_cfds gamma_c coding =
  let adom = Coding.adom_size coding in
  let rec lhs_ids acc = function
    | [] -> Some (List.rev acc)
    | (a, v) :: rest -> (
        match Coding.const_id coding a v with
        | Some id when id < adom a -> lhs_ids ((a, id) :: acc) rest
        | _ -> None)
  in
  List.filter_map
    (fun k ->
      let gc = gamma_c.g_cs.(k) in
      Option.map (fun ids -> (gc, ids)) (lhs_ids [] gc.g_lhs))
    (cindex_probe gamma_c.g_index ~nvals:adom ~value:(Coding.value coding))

let gamma_candidates gamma_c adom =
  List.map
    (fun k -> gamma_c.g_cs.(k))
    (cindex_probe gamma_c.g_index
       ~nvals:(fun a -> Array.length (adom a))
       ~value:(fun a i -> (adom a).(i)))

(* ω_X of a CFD's LHS: every other active-domain value sits below the
   pattern, attribute by attribute in LHS order *)
let push_omega b coding lhs =
  List.iter
    (fun (attr, target) ->
      for lo = 0 to Coding.adom_size coding attr - 1 do
        if lo <> target then push b (pack_fact attr lo target)
      done)
    lhs

(* Returns the implication instances and, for CFDs whose RHS constant the
   entity never takes, the vetoed premises (ω_X → ⊥, conclusion
   [no_fact]). A CFD whose LHS mentions a value outside the active domain
   is vacuous on this entity (its pattern can never be the current tuple)
   and contributes nothing — the compiled-form equivalent of
   {!relevant_gamma}. Pattern constants match under [Value.equal], as in
   [Cfd.Constant_cfd]: a NaN LHS constant makes the CFD dead, a NaN RHS
   constant a veto. *)
let instantiate_gamma gamma_c coding =
  let cfds = relevant_cfds gamma_c coding in
  let b = (Domain.DLS.get scratch_key).sc_build in
  builder_reset b;
  List.iter
    (fun (gc, lhs) ->
      let battr, bval = gc.g_rhs in
      match Coding.const_id coding battr bval with
      | Some btarget ->
          for lo = 0 to Coding.adom_size coding battr - 1 do
            if lo <> btarget then begin
              push b (cfd_source gc.g_idx);
              push b (pack_fact battr lo btarget);
              push_omega b coding lhs;
              commit b
            end
          done
      | None -> ())
    cfds;
  let imps = all_insts b in
  builder_reset b;
  List.iter
    (fun (gc, lhs) ->
      let battr, bval = gc.g_rhs in
      match Coding.const_id coding battr bval with
      | Some _ -> ()
      | None ->
          (* the repair value never occurs: the pattern can never be the
             current tuple, unless the premise is already vacuous *)
          push b (cfd_source gc.g_idx);
          push b no_fact;
          push_omega b coding lhs;
          commit b)
    cfds;
  (imps, all_insts b)

(* ---- units from the currency orders of It and the null-lowest rule ---- *)

(* the packed order facts, each once, in first-occurrence order *)
let order_units spec coding =
  let schema = Spec.schema spec in
  let entity = spec.Spec.entity in
  let sc = Domain.DLS.get scratch_key in
  let b = sc.sc_build and seen = sc.sc_facts in
  builder_reset b;
  otable_clear seen;
  let add f = if fset_add seen f then push b f in
  List.iter
    (fun { Spec.attr; lo; hi } ->
      let a = Schema.index schema attr in
      let v1 = Entity.value entity lo a and v2 = Entity.value entity hi a in
      if not (Value.equal v1 v2) then add (pack_fact a (Coding.vid coding a v1) (Coding.vid coding a v2)))
    spec.Spec.orders;
  (* a null value is ranked lowest in its attribute's currency order *)
  for a = 0 to Schema.arity schema - 1 do
    let univ = Coding.universe coding a in
    Array.iteri
      (fun i v ->
        if Value.is_null v then
          Array.iteri (fun j w -> if j <> i && not (Value.is_null w) then add (pack_fact a i j)) univ)
      univ
  done;
  Array.sub b.b_data 0 b.b_len

(* ---- reading the packed form back as records ---- *)

let decode_premise ps i =
  List.init (n_premise ps i) (fun j -> unpack_fact ps.data.(ps.starts.(i) + 2 + j))

let decode_inst ps i =
  {
    premise = decode_premise ps i;
    concl = unpack_fact ps.data.(ps.starts.(i) + 1);
    source = unpack_source ps.data.(ps.starts.(i));
  }

(* the instances [i] of [ps], in order, that [keep] accepts, through [f] *)
let decode_filter ps keep f =
  List.filter_map (fun i -> if keep i then Some (f ps i) else None) (List.init (n_insts ps) Fun.id)

let all_of ps = decode_filter ps (fun _ -> true) decode_inst

let premise_free ps i = n_premise ps i = 0

let with_premise ps i = n_premise ps i > 0

(* Ω(Se) as records: the units (order facts, then the premise-free Σ and
   Γ instances), the implications (the rest of Σ, then of Γ) and the
   vetoes. *)
let decode_units order sigma gamma =
  let as_unit ps i = (unpack_fact ps.data.(ps.starts.(i) + 1), unpack_source ps.data.(ps.starts.(i))) in
  List.map (fun f -> (unpack_fact f, From_order)) (Array.to_list order)
  @ decode_filter sigma (premise_free sigma) as_unit
  @ decode_filter gamma (premise_free gamma) as_unit

let decode_implications sigma gamma =
  decode_filter sigma (with_premise sigma) decode_inst
  @ decode_filter gamma (with_premise gamma) decode_inst

let decode_vetoes vetoes =
  decode_filter vetoes (fun _ -> true) (fun ps i -> (decode_premise ps i, unpack_source ps.data.(ps.starts.(i))))

let sigma_insts e = all_of e.sigma_ground

let gamma_imps e = all_of e.gamma_ground

let units e = decode_units e.order_facts e.sigma_ground e.gamma_ground

let implications e = decode_implications e.sigma_ground e.gamma_ground

let vetoes e = decode_vetoes e.veto_ground

(* ---- clause rendering ---- *)

let lit_of_packed coding p = Coding.lit_of coding ~attr:(fact_attr p) (fact_lo p) (fact_hi p)

(* Φ's instance clauses as one exactly sized arena, rendered straight
   from the packed instances. Push order is the units (order facts, then
   the premise-free Σ and Γ instances), the implications
   [concl ∨ ¬premise₁ ∨ …] (the rest of Σ, then of Γ) and the vetoes
   [¬premise₁ ∨ …]; the arena holds them in reverse push order (the
   clause order test/golden pins, which search counters depend on), so
   it is filled from its end. *)
let instance_arena coding ~order ~sigma ~gamma ~vetoes =
  let nclauses = ref (Array.length order) and nlits = ref (Array.length order) in
  let count ps ~concl =
    nclauses := !nclauses + n_insts ps;
    nlits := !nlits + Array.length ps.data - (if concl then 1 else 2) * n_insts ps
  in
  count sigma ~concl:true;
  count gamma ~concl:true;
  count vetoes ~concl:false;
  let lits = Array.make !nlits 0 and offs = Array.make (!nclauses + 1) 0 in
  offs.(!nclauses) <- !nlits;
  let q = ref !nlits and k = ref !nclauses in
  let unit f =
    decr q;
    decr k;
    lits.(!q) <- lit_of_packed coding f;
    offs.(!k) <- !q
  in
  (* instance [i] of [ps] as [concl ∨ ¬premise…], or [¬premise…] *)
  let clause ps i ~concl =
    let s = ps.starts.(i) and e = ps.starts.(i + 1) in
    let len = e - s - if concl then 1 else 2 in
    q := !q - len;
    decr k;
    offs.(!k) <- !q;
    let w = ref !q in
    if concl then begin
      lits.(!w) <- lit_of_packed coding ps.data.(s + 1);
      incr w
    end;
    for j = s + 2 to e - 1 do
      lits.(!w) <- Sat.Lit.negate (lit_of_packed coding ps.data.(j));
      incr w
    done
  in
  Array.iter unit order;
  let units ps = for i = 0 to n_insts ps - 1 do if n_premise ps i = 0 then unit ps.data.(ps.starts.(i) + 1) done in
  let imps ps = for i = 0 to n_insts ps - 1 do if n_premise ps i > 0 then clause ps i ~concl:true done in
  units sigma;
  units gamma;
  imps sigma;
  imps gamma;
  for i = 0 to n_insts vetoes - 1 do
    clause vetoes i ~concl:false
  done;
  { Sat.Cnf.lits; offs }

(* Paper mode's structural axioms for attribute [a] as one arena, in
   reverse push order: transitivity over every ordered triple plus
   asymmetry, d(d-1)(d-2) + d(d-1)/2 clauses. A pure function of (d,
   variable offset) — the part [extend] reuses verbatim across [Se ⊕ Ot]
   steps. *)
let attr_block coding a =
  let d = Array.length (Coding.universe coding a) in
  let ntrans = d * (d - 1) * (d - 2) and nasym = d * (d - 1) / 2 in
  let n = ntrans + nasym in
  let lits = Array.make ((3 * ntrans) + (2 * nasym)) 0 and offs = Array.make (n + 1) 0 in
  offs.(n) <- Array.length lits;
  let q = ref (Array.length lits) and k = ref n in
  let push c =
    q := !q - Array.length c;
    decr k;
    copy_ints c 0 lits !q (Array.length c);
    offs.(!k) <- !q
  in
  let nl lo hi = Sat.Lit.negate (Coding.lit_of coding ~attr:a lo hi) in
  (* transitivity *)
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      if j <> i then
        for k = 0 to d - 1 do
          if k <> i && k <> j then push [| nl i j; nl j k; Coding.lit_of coding ~attr:a i k |]
        done
    done
  done;
  (* asymmetry *)
  for i = 0 to d - 1 do
    for j = i + 1 to d - 1 do
      push [| nl i j; nl j i |]
    done
  done;
  { Sat.Cnf.lits; offs }

(* block(arity-1) … block(0), the order of one push pass over the
   attributes in turn, with their clause count *)
let concat_blocks blocks =
  Array.fold_left (fun (arenas, count) b -> (b :: arenas, count + Sat.Cnf.arena_length b)) ([], 0) blocks

let structural_clauses coding =
  concat_blocks (Array.init (Schema.arity (Coding.schema coding)) (fun a -> attr_block coding a))

(* The ground-instance part of Φ(Se) without any clause rendering: what a
   purely static analysis (Saturate, Analyze) needs. [p_sigma_fired.(k)]
   records whether constraint k produced any instance before global
   deduplication — distinct constraints can ground to identical instances,
   and "did σ_k fire at all" must not depend on which one won the dedup. *)
type parts = {
  p_coding : Coding.t;
  p_units : (fact * source) list;
  p_implications : iconstraint list;
  p_vetoes : (fact list * source) list;
  p_sigma_fired : bool array;
}

let rows_of spec = function
  | Some rows -> rows
  | None -> Entity.distinct_rows spec.Spec.entity

let parts ?mode ?sigma_c ?gamma_c ?rows spec =
  let schema = Spec.schema spec in
  let sigma_c = sigma_c_for schema spec.Spec.sigma sigma_c in
  let gamma_c = gamma_c_for schema spec.Spec.gamma gamma_c in
  let coding, cells = Coding.lower ?mode ~rows:(rows_of spec rows) spec.Spec.entity in
  check_packable coding;
  let fired = Array.make (List.length spec.Spec.sigma) false in
  let sigma = instantiate_sigma ~fired sigma_c coding cells in
  let gamma, vetoes = instantiate_gamma gamma_c coding in
  let order = order_units spec coding in
  {
    p_coding = coding;
    p_units = decode_units order sigma gamma;
    p_implications = decode_implications sigma gamma;
    p_vetoes = decode_vetoes vetoes;
    p_sigma_fired = fired;
  }

let parts_of_t enc =
  {
    p_coding = enc.coding;
    p_units = units enc;
    p_implications = implications enc;
    p_vetoes = vetoes enc;
    p_sigma_fired = [||];
  }

(* [structural_for tpl coding] is the structural axioms for [coding],
   each attribute's arena from the template's (d, offset)-keyed store.
   Misses are built outside the lock; first-in wins (racing builders
   produce equal arenas: an arena is a pure function of its key and the
   template's mode). *)
let structural_for tpl coding =
  let arity = Schema.arity (Coding.schema coding) in
  let key a = (Array.length (Coding.universe coding a), Coding.offset coding a) in
  let found =
    Mutex.lock tpl.t_lock;
    let r = Array.init arity (fun a -> Block_tbl.find_opt tpl.t_structural (key a)) in
    Mutex.unlock tpl.t_lock;
    r
  in
  let blocks =
    Array.mapi
      (fun a b -> match b with Some b -> b | None -> attr_block coding a)
      found
  in
  if Array.exists Option.is_none found then begin
    Mutex.lock tpl.t_lock;
    Array.iteri
      (fun a b ->
        if Option.is_none found.(a) then
          match Block_tbl.find_opt tpl.t_structural (key a) with
          | Some existing -> blocks.(a) <- existing
          | None -> Block_tbl.add tpl.t_structural (key a) b)
      blocks;
    Mutex.unlock tpl.t_lock
  end;
  concat_blocks blocks

(* Φ's order axioms as (structural arenas, their clause count, tournament
   blocks). Paper mode lists them as clauses, from the template's store
   when there is one. Exact mode's literal polarity already orders every
   pair one way or the other, and a tournament is transitive iff it has
   no 3-cycle: each attribute's pairs are one [Sat.Cnf.block], whose
   d(d-1)(d-2)/3 3-cycle exclusions the solver enforces by propagation
   and nobody lists. *)
let order_axioms template coding =
  match Coding.mode coding with
  | Exact ->
      ([], 0, List.init (Schema.arity (Coding.schema coding)) (Coding.block coding))
  | Paper ->
      let structural, n =
        match template with
        | Some tpl -> structural_for tpl coding
        | None -> structural_clauses coding
      in
      (structural, n, [])

let build_t ~mode ~sigma_c ~gamma_c ~template ~rows spec =
  let coding, cells = Coding.lower ~mode ~rows spec.Spec.entity in
  check_packable coding;
  let sigma = instantiate_sigma sigma_c coding cells in
  let gamma, vetoes = instantiate_gamma gamma_c coding in
  let order = order_units spec coding in
  let inst = instance_arena coding ~order ~sigma ~gamma ~vetoes in
  let structural, n_structural, blocks = order_axioms template coding in
  (* all literals are in range by construction: facts are coded over the
     very universes the variable space is built from. Instance clauses
     first, then the structural arenas, shared with the template *)
  let cnf = Sat.Cnf.unsafe_of_arenas ~blocks ~nvars:(Coding.nvars coding) (inst :: structural) in
  {
    spec;
    coding;
    mode;
    sigma_c;
    gamma_c;
    template;
    n_rows = Array.length rows;
    sigma_ground = sigma;
    gamma_ground = gamma;
    veto_ground = vetoes;
    order_facts = order;
    cnf;
    n_structural;
    structural;
  }

let encode ?(mode = Paper) ?sigma_c ?gamma_c spec =
  let schema = Spec.schema spec in
  let sigma_c = sigma_c_for schema spec.Spec.sigma sigma_c in
  let gamma_c = gamma_c_for schema spec.Spec.gamma gamma_c in
  build_t ~mode ~sigma_c ~gamma_c ~template:None ~rows:(Entity.distinct_rows spec.Spec.entity) spec

let template ?(mode = Paper) spec =
  let schema = Spec.schema spec in
  (* compile against the canonical interned lists, so [template_matches]
     reduces to two physical comparisons whatever spec the template was
     cut from *)
  let sigma, _ = Spec.intern_sigma spec.Spec.sigma in
  let gamma, _ = Spec.intern_gamma spec.Spec.gamma in
  {
    t_mode = mode;
    t_schema = schema;
    (* through the memos: {!compiled_gamma} on a spec of this shape (the
       engine's lint) then reuses the template's very index *)
    t_sigma_c = sigma_c_for schema sigma None;
    t_gamma_c = gamma_c_for schema gamma None;
    t_lock = Mutex.create ();
    t_structural = Block_tbl.create 16;
  }

let template_matches tpl spec =
  Schema.equal tpl.t_schema (Spec.schema spec)
  && fst (Spec.intern_sigma spec.Spec.sigma) == tpl.t_sigma_c.s_src
  && fst (Spec.intern_gamma spec.Spec.gamma) == tpl.t_gamma_c.g_src

let instantiate ?rows tpl spec =
  if template_matches tpl spec then
    build_t ~mode:tpl.t_mode ~sigma_c:tpl.t_sigma_c ~gamma_c:tpl.t_gamma_c
      ~template:(Some tpl) ~rows:(rows_of spec rows) spec
  else
    (* a template for some other shape: fall back to direct compilation
       rather than produce a wrong encoding *)
    encode ~mode:tpl.t_mode spec
(* ---- incremental re-encoding for Se ⊕ Ot extensions ---- *)

let same_universes c1 c2 =
  Schema.equal (Coding.schema c1) (Coding.schema c2)
  &&
  let arity = Schema.arity (Coding.schema c1) in
  let rec attrs_equal a =
    a >= arity
    || (Coding.adom_size c1 a = Coding.adom_size c2 a
       &&
       let u1 = Coding.universe c1 a and u2 = Coding.universe c2 a in
       Array.length u1 = Array.length u2
       && (let rec vals i =
             i >= Array.length u1 || (Value.equal u1.(i) u2.(i) && vals (i + 1))
           in
           vals 0)
       && attrs_equal (a + 1))
  in
  attrs_equal 0

(* c1's universes are per-attribute prefixes of c2's: every old value
   keeps its id, so facts (and hence Σ instances) carry over verbatim.
   One exception is allowed to float: a trailing null in [u1] (the
   reserved slot {!Coding.build} appends when no tuple is null yet) may
   sit at a later id in [u2] — a fresh tuple's genuinely new value
   displaces the reservation. That is safe precisely because no carried-
   over Σ instance can mention a null id: [Constraint_ast.instantiate]
   drops null premise conjuncts and null conclusions outright. *)
let universes_prefix c1 c2 =
  Schema.equal (Coding.schema c1) (Coding.schema c2)
  &&
  let arity = Schema.arity (Coding.schema c1) in
  let rec attrs_ok a =
    a >= arity
    ||
    let u1 = Coding.universe c1 a and u2 = Coding.universe c2 a in
    let n1 = Array.length u1 in
    Array.length u1 <= Array.length u2
    && (let rec vals i =
          i >= n1
          || (i = n1 - 1 && Value.is_null u1.(i))
          || (Value.equal u1.(i) u2.(i) && vals (i + 1))
        in
        vals 0)
    && attrs_ok (a + 1)
  in
  attrs_ok 0

let same_list eq a b = a == b || List.equal eq a b

(* [spec] must be a pure extension of [base.spec]: same Σ and Γ, the old
   tuples a prefix of the new ones (extensions append), the old order
   edges a suffix of the new ones (extensions prepend). This is what
   guarantees Ω(base) ⊆ Ω(spec) clause-for-clause, which delta solving
   needs: a clause that disappeared would leave an incremental solver
   stronger than Φ(Se ⊕ Ot). *)
let pure_extension base_spec spec =
  same_list ( = ) base_spec.Spec.sigma spec.Spec.sigma
  && same_list ( = ) base_spec.Spec.gamma spec.Spec.gamma
  && (let bt = Entity.tuples base_spec.Spec.entity
      and nt = Entity.tuples spec.Spec.entity in
      let rec prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> (x == y || x = y) && prefix a' b'
        | _ :: _, [] -> false
      in
      prefix bt nt)
  &&
  let k = List.length spec.Spec.orders - List.length base_spec.Spec.orders in
  k >= 0
  &&
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  same_list ( = ) (drop k spec.Spec.orders) base_spec.Spec.orders

type extension = Delta of t * Sat.Lit.t array list | Renumbered of t

let extend base spec =
  if not (pure_extension base.spec spec) then None
  else
    let rows = Entity.distinct_rows spec.Spec.entity in
    let coding', cells = Coding.lower ~mode:base.mode ~rows spec.Spec.entity in
    if not (universes_prefix base.coding coding') then None
    else begin
      check_packable coding';
      (* old values keep their per-attribute ids, so the Σ instances of
         the base — the expensive quadratic sweep over projection pairs —
         carry over verbatim; only pairs the new tuples touch are swept *)
      let identical = same_universes base.coding coding' in
      let coding = if identical then base.coding else coding' in
      (* Σ/Γ are unchanged on a pure extension, so the compiled forms
         carry over (they depend only on the schema and the lists) *)
      let sigma_c = base.sigma_c and gamma_c = base.gamma_c in
      (* the rows of the base's tuples come first: tuples were appended,
         and a class's first occurrence among them is its first overall.
         A tuple equal to an earlier one adds no row, and so no delta *)
      let n_old = Entity.size base.spec.Spec.entity in
      let n_base = Array.fold_left (fun k r -> if r < n_old then k + 1 else k) 0 rows in
      let delta = instantiate_sigma_delta sigma_c coding cells ~base:base.sigma_ground ~n_base in
      let sigma = merge_insts base.sigma_ground delta in
      (* the Γ instances are a function of the value universes alone:
         identical universes reuse the base's verbatim *)
      let gamma, vetoes =
        if identical then (base.gamma_ground, base.veto_ground) else instantiate_gamma gamma_c coding
      in
      let order = order_units spec coding in
      let inst = instance_arena coding ~order ~sigma ~gamma ~vetoes in
      let enc ~cnf ~n_structural ~structural =
        {
          spec;
          coding;
          mode = base.mode;
          sigma_c;
          gamma_c;
          template = base.template;
          n_rows = Array.length rows;
          sigma_ground = sigma;
          gamma_ground = gamma;
          veto_ground = vetoes;
          order_facts = order;
          cnf;
          n_structural;
          structural;
        }
      in
      if identical then begin
        (* variable numbering unchanged: the structural axioms carry over
           and a live solver only needs the delta clauses — unit clauses
           for fresh facts (new order edges, premise-free new Σ
           instances) plus the new Σ implications. Γ's part is a function
           of the unchanged universes and is identical on both sides, and
           pure extensions only add clauses, so the session stays sound. *)
        let cnf =
          Sat.Cnf.unsafe_of_arenas ~blocks:base.cnf.Sat.Cnf.blocks ~nvars:(Coding.nvars coding)
            (base.structural @ [ inst ])
        in
        let base_units = (Domain.DLS.get scratch_key).sc_facts in
        otable_clear base_units;
        let unit_facts order sigma gamma f =
          Array.iter f order;
          let premise_free ps =
            for i = 0 to n_insts ps - 1 do
              if n_premise ps i = 0 then f ps.data.(ps.starts.(i) + 1)
            done
          in
          premise_free sigma;
          premise_free gamma
        in
        unit_facts base.order_facts base.sigma_ground base.gamma_ground (fun f ->
            ignore (fset_add base_units f));
        let delta_units = ref [] in
        unit_facts order sigma gamma (fun f ->
            if not (fset_mem base_units f) then delta_units := [| lit_of_packed coding f |] :: !delta_units);
        let delta_imps = ref [] in
        for i = n_insts delta - 1 downto 0 do
          if n_premise delta i > 0 then begin
            let s = delta.starts.(i) and e = delta.starts.(i + 1) in
            delta_imps :=
              Array.init (e - s - 1) (fun j ->
                  if j = 0 then lit_of_packed coding delta.data.(s + 1)
                  else Sat.Lit.negate (lit_of_packed coding delta.data.(s + 1 + j)))
              :: !delta_imps
          end
        done;
        Some
          (Delta
             ( enc ~cnf ~n_structural:base.n_structural ~structural:base.structural,
               List.rev_append !delta_units !delta_imps ))
      end
      else begin
        (* a universe grew (e.g. the fresh tuple carries a value, or a
           null, the entity never took): variable numbers shift globally,
           so solvers must reload — but the Σ instances still carried
           over; Paper's structural axioms come from the template's
           per-attribute store when there is one (only the attributes
           whose size or offset changed can miss), else are regenerated *)
        let structural, n_structural, blocks = order_axioms base.template coding in
        let cnf = Sat.Cnf.unsafe_of_arenas ~blocks ~nvars:(Coding.nvars coding) (inst :: structural) in
        Some (Renumbered (enc ~cnf ~n_structural ~structural))
      end
    end

let lit_of_fact e f = lit_of_fact_c e.coding f

let fact_of_lit e l =
  Option.map (fun (attr, lo, hi) -> { attr; lo; hi }) (Coding.fact_of_lit e.coding l)

(* one pass over each attribute's ordered pairs, each literal written
   once: no per-literal search for its attribute and row *)
let fact_table e =
  let coding = e.coding in
  let facts = Array.make (2 * e.cnf.Sat.Cnf.nvars) None in
  for attr = 0 to Schema.arity (Coding.schema coding) - 1 do
    let d = Array.length (Coding.universe coding attr) in
    for lo = 0 to d - 1 do
      for hi = 0 to d - 1 do
        if lo <> hi then facts.(Coding.lit_of coding ~attr lo hi) <- Some { attr; lo; hi }
      done
    done
  done;
  facts

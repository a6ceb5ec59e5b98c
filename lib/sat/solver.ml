(* CDCL solver. Variables are ints; literals use the packed encoding of
   [Lit]. Truth values are represented as ints: 1 = true, -1 = false,
   0 = unassigned, so that the value of a literal is [assigns.(var) * sgn].

   Clause-database layout: unit facts live on the level-0 trail, binary
   clauses live in a dedicated implication layer ([bin], flat per-literal
   vectors of the implied literal), and only clauses of three or more
   literals enter the general watch lists. A literal's watch and binary
   lists are made at their first push; until then it reads a shared
   empty list, so allocating a variable allocates no list. A clause is
   just its literals: learnt clauses are kept for the solver's whole life
   (no database reduction), so they need no activity, score or deletion
   mark. The search runs on the clause database as loaded: there is no
   pre/inprocessing.

   Tournament blocks ([Cnf.block]) are not clauses: their order axioms
   are enforced by a pass in [propagate] over per-block successor and
   predecessor bitsets, which assignment sets and backtracking clears
   (see [theory_pass]). *)

(* in a watch list, c.(0) and c.(1) are the watched pair *)
type clause = Lit.t array

(* no clause: the reason of a decision or unit, and what [propagate]
   returns when there is no conflict (compared with [==]) *)
let dummy_clause : clause = [||]

type result = Sat | Unsat

(* A registered tournament block; [base.(u) + v] is the variable of the
   pair u < v. [succ] and [pred] hold one bitset of [nw] words per value
   x, row x at [x * nw]: bit z of succ's row x is set iff x ≺ z is
   currently true, bit z of pred's row x iff z ≺ x is. Value z is bit
   [z mod word_bits] of word [z / word_bits], so any d fits. *)
type tblock = { blk : Cnf.block; base : int array; nw : int; succ : int array; pred : int array }

let word_bits = Sys.int_size

type t = {
  (* per-variable state *)
  mutable assigns : int array;          (* 1 / -1 / 0 *)
  mutable level : int array;
  mutable reason : clause array;        (* dummy_clause = no reason *)
  mutable binreason : int array;        (* other (false) literal of a binary
                                           reason; -1 = none. Exactly one of
                                           reason/binreason is live per var. *)
  mutable activity : float array;
  mutable polarity : bool array;        (* saved phase *)
  mutable seen : bool array;            (* scratch for analyze *)
  mutable learnt : Lit.t array;         (* scratch: the clause [analyze]
                                           learns, asserting literal first *)
  mutable learnt_n : int;               (* its length *)
  mutable add_buf : Lit.t array;        (* scratch: the clause being loaded *)
  mutable pair_blk : int array;         (* index into [blocks] of the block
                                           numbering the var; -1 = none.
                                           These three stay empty until a
                                           block is registered. *)
  mutable pair_u : int array;           (* the var's pair u < v in its block *)
  mutable pair_v : int array;
  (* per-literal state *)
  mutable watches : clause Vec.t array; (* indexed by literal; clauses len >= 3 *)
  mutable bin : Lit.t Vec.t array;      (* bin.(p) = implied literals o of the
                                           binary clauses (negate p \/ o) *)
  (* trail *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* clause database *)
  clauses : clause Vec.t;               (* original long clauses *)
  blocks : tblock Vec.t;                (* tournament blocks, d >= 3 *)
  mutable n_learnts : int;              (* learnt long clauses *)
  (* heuristics *)
  order : Idx_heap.t;                   (* VSIDS heap over [activity] *)
  mutable var_inc : float;
  mutable nvars : int;
  mutable ok : bool;
  mutable model_valid : bool;
  mutable saved_model : bool array;
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;                (* clauses ever learnt (incl. binaries) *)
  mutable n_binaries : int;             (* live pairs in the binary layer *)
  (* resource budgets: absolute counter targets, -1 = no limit. Only
     [solve_limited] consults them; [solve] always runs to completion. *)
  mutable conflict_limit : int;
  mutable propagation_limit : int;
}

let var_decay = 1.0 /. 0.95
let restart_base = 100

let create () =
  {
    assigns = [||];
    level = [||];
    reason = [||];
    binreason = [||];
    activity = [||];
    polarity = [||];
    seen = [||];
    learnt = [||];
    learnt_n = 0;
    add_buf = [||];
    pair_blk = [||];
    pair_u = [||];
    pair_v = [||];
    watches = [||];
    bin = [||];
    trail = Vec.create ~dummy:0;
    trail_lim = Vec.create ~dummy:0;
    qhead = 0;
    clauses = Vec.create ~dummy:dummy_clause;
    blocks =
      Vec.create ~dummy:{ blk = { Cnf.first = 0; d = 0 }; base = [||]; nw = 0; succ = [||]; pred = [||] };
    n_learnts = 0;
    order = Idx_heap.create ();
    var_inc = 1.0;
    nvars = 0;
    ok = true;
    model_valid = false;
    saved_model = [||];
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned = 0;
    n_binaries = 0;
    conflict_limit = -1;
    propagation_limit = -1;
  }

let nvars s = s.nvars

(* The watch and binary lists a literal has before its first push: one
   shared empty list each, never pushed to ([watch_list]/[bin_list] give
   the literal its own list at its first push), so a variable that occurs
   in no long clause and no binary costs no list. Being old, they also
   spare [grow]'s [Array.make] the minor collection a young initial value
   forces. *)
let no_watches : clause Vec.t = Vec.create ~dummy:dummy_clause
let no_bins : Lit.t Vec.t = Vec.create ~dummy:0

(* Capacity doubles; growing copies the arrays and makes no list. An
   empty array is made once at its size ([Array.make]); otherwise
   [Array.append] initialises the copy, where a blit into a major-heap
   array would pay a write barrier per element. *)
let grow_arrays s n =
  let old = Array.length s.assigns in
  if n > old then begin
    let cap = max n (max 16 (2 * old)) in
    let grow len a dflt =
      if Array.length a = 0 then Array.make len dflt
      else Array.append a (Array.make (len - Array.length a) dflt)
    in
    s.assigns <- grow cap s.assigns 0;
    s.level <- grow cap s.level (-1);
    s.reason <- grow cap s.reason dummy_clause;
    s.binreason <- grow cap s.binreason (-1);
    s.activity <- grow cap s.activity 0.;
    s.polarity <- grow cap s.polarity false;
    s.seen <- grow cap s.seen false;
    if Array.length s.pair_blk > 0 then begin
      s.pair_blk <- grow cap s.pair_blk (-1);
      s.pair_u <- grow cap s.pair_u 0;
      s.pair_v <- grow cap s.pair_v 0
    end;
    s.watches <- grow (2 * cap) s.watches no_watches;
    s.bin <- grow (2 * cap) s.bin no_bins
  end

(* the watch list of [l] to push onto, made at its first push *)
let watch_list s l =
  let ws = s.watches.(l) in
  if ws != no_watches then ws
  else begin
    let ws = Vec.create ~dummy:dummy_clause in
    s.watches.(l) <- ws;
    ws
  end

(* the binary list of [l] to push onto, made at its first push *)
let bin_list s l =
  let bs = s.bin.(l) in
  if bs != no_bins then bs
  else begin
    let bs = Vec.create ~dummy:0 in
    s.bin.(l) <- bs;
    bs
  end

let new_var s =
  let v = s.nvars in
  grow_arrays s (v + 1);
  s.nvars <- v + 1;
  Idx_heap.insert s.order s.activity v;
  v

(* Capacity [ensure_nvars] leaves beyond the variables it is asked for:
   the first selector variables a loaded solver is given (a true-value
   query's, a small MaxSAT layer's) then grow no array. Growing a loaded
   solver's arrays cost ~100-150 µs at 677 variables (2-vCPU container),
   most of it GC work the new major-heap arrays set off. *)
let spare_vars = 16

(* one reallocation for the whole range, then the heap inserts [new_var]
   would make, in the same order *)
let ensure_nvars s n =
  if n > s.nvars then begin
    grow_arrays s (n + spare_vars);
    for v = s.nvars to n - 1 do
      Idx_heap.insert s.order s.activity v
    done;
    s.nvars <- n
  end

(* ---- values ---- *)

let value_var s v = s.assigns.(v)

let value_lit s l =
  let a = s.assigns.(Lit.var l) in
  if Lit.sign l then a else -a

let decision_level s = Vec.size s.trail_lim

(* No-ops: the solver has no pre/inprocessing, so there is nothing to run
   and no variable to freeze against it. Kept so existing callers still
   build. *)
let freeze_all (_ : t) = ()
let simplify (_ : t) = ()

(* ---- activity ---- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Idx_heap.update s.order s.activity v

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

(* ---- block bitsets ---- *)

(* set or clear bit z of row [row] of a block's bitsets [bits] *)
let[@inline] set_bit (bits : int array) nw row z set =
  let i = (row * nw) + (z / word_bits) in
  let b = 1 lsl (z mod word_bits) in
  bits.(i) <- (if set then bits.(i) lor b else bits.(i) land lnot b)

(* [set] the bits the true pair literal [l] of block [tb] stands for, or
   clear them: l = x ≺ y puts y in succ(x) and x in pred(y) *)
let pair_bits s tb l set =
  let v = Lit.var l in
  let x = if Lit.sign l then s.pair_u.(v) else s.pair_v.(v) in
  let y = if Lit.sign l then s.pair_v.(v) else s.pair_u.(v) in
  set_bit tb.succ tb.nw x y set;
  set_bit tb.pred tb.nw y x set

(* [pair_bits] for any assigned literal: a no-op off the blocks *)
let[@inline] track_pair s l set =
  if Array.length s.pair_blk > 0 then begin
    let b = s.pair_blk.(Lit.var l) in
    if b >= 0 then pair_bits s (Vec.get s.blocks b) l set
  end

(* ---- assignment ---- *)

let enqueue s l reason =
  assert (value_lit s l = 0);
  let v = Lit.var l in
  s.assigns.(v) <- (if Lit.sign l then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.binreason.(v) <- -1;
  track_pair s l true;
  Vec.push s.trail l

(* [l] is implied by the binary clause (l \/ other) with [other] false *)
let enqueue_bin s l other =
  assert (value_lit s l = 0);
  let v = Lit.var l in
  s.assigns.(v) <- (if Lit.sign l then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- dummy_clause;
  s.binreason.(v) <- other;
  track_pair s l true;
  Vec.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.assigns.(v) <- 0;
      s.polarity.(v) <- Lit.sign l;
      s.reason.(v) <- dummy_clause;
      s.binreason.(v) <- -1;
      track_pair s l false;
      Idx_heap.insert s.order s.activity v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* ---- watches / binary layer ---- *)

let attach_clause s (c : clause) =
  assert (Array.length c >= 2);
  Vec.push (watch_list s (Lit.negate c.(0))) c;
  Vec.push (watch_list s (Lit.negate c.(1))) c

(* record the binary clause (a \/ b) in the implication layer: enqueueing
   the negation of either literal implies the other *)
let add_binary s a b =
  Vec.push (bin_list s (Lit.negate a)) b;
  Vec.push (bin_list s (Lit.negate b)) a;
  s.n_binaries <- s.n_binaries + 1

(* ---- tournament blocks ----

   A block's axioms are the 3-cycle exclusions ¬(a≺b) ∨ ¬(b≺k) ∨ ¬(k≺a)
   over its values. Unit propagation on them is exactly: when a≺b is
   true, b≺k forces a≺k and k≺a forces k≺b. [theory_pass] applies that
   to one dequeued literal a≺b: the values k of the first rule are the
   set bits of succ(b) ∧ ¬succ(a), those of the second the set bits of
   pred(a) ∧ ¬pred(b), visited in ascending k, the first rule before the
   second at one k. The bitsets mirror the assignment: [enqueue] and
   [enqueue_bin] set a pair literal's bits, [cancel_until] clears them
   and [add_block] seeds them from the level-0 trail. An implied literal
   is enqueued with its 3-cycle clause as the reason (the implied literal
   first, as [analyze] expects), and a clause whose third literal is
   already false is the conflict. Since every reason is built when its
   literal is enqueued, conflict analysis never asks the pass to explain
   anything. Each triple is checked when the later of its two true edges
   is dequeued, so the pass derives what the clauses would. *)

(* the literal and the value of x ≺ y in a block with row bases [base];
   indices are in range by construction (x, y < d, registered vars) *)
let[@inline] order_lit base x y =
  if x < y then Lit.pos (Array.unsafe_get base x + y) else Lit.neg_of (Array.unsafe_get base y + x)

let[@inline] order_value assigns base x y =
  if x < y then Array.unsafe_get assigns (Array.unsafe_get base x + y)
  else - Array.unsafe_get assigns (Array.unsafe_get base y + x)

(* the index of the one set bit of [b] *)
let ctz_bit b =
  let k = ref 0 and b = ref b in
  if !b land 0xFFFF_FFFF = 0 then begin b := !b lsr 32; k := 32 end;
  if !b land 0xFFFF = 0 then begin b := !b lsr 16; k := !k + 16 end;
  if !b land 0xFF = 0 then begin b := !b lsr 8; k := !k + 8 end;
  if !b land 0xF = 0 then begin b := !b lsr 4; k := !k + 4 end;
  if !b land 0x3 = 0 then begin b := !b lsr 2; k := !k + 2 end;
  if !b land 0x1 = 0 then !k + 1 else !k

(* the dequeued [p] is a ≺ c; [x ≺ y] is implied by the 3-cycle clause
   x≺y ∨ ¬p ∨ ¬(w≺z): enqueue it and return [dummy_clause], or return
   that clause when x ≺ y is false. Literals are built only on this
   path. *)
let theory_imply s base p x y w z =
  let c = [| order_lit base x y; Lit.negate p; order_lit base z w |] in
  if order_value s.assigns base x y = 0 then begin
    enqueue s c.(0) c;
    dummy_clause
  end
  else c

(* the conflict clause, or [dummy_clause] *)
let theory_pass s p =
  let v = Lit.var p in
  let tb = Vec.get s.blocks s.pair_blk.(v) in
  let base = tb.base and nw = tb.nw and succ = tb.succ and pred = tb.pred in
  let a = if Lit.sign p then s.pair_u.(v) else s.pair_v.(v) in
  let c = if Lit.sign p then s.pair_v.(v) else s.pair_u.(v) in
  let ra = a * nw and rc = c * nw in
  let confl = ref dummy_clause in
  let w = ref 0 in
  while !w < nw do
    (* an implication at z changes only bit z of these rows *)
    let m1 = succ.(rc + !w) land lnot succ.(ra + !w) in
    let m2 = pred.(ra + !w) land lnot pred.(rc + !w) in
    let m = ref (m1 lor m2) in
    while !m <> 0 do
      let b = !m land - !m in
      m := !m lxor b;
      let z = (!w * word_bits) + ctz_bit b in
      (* c ≺ z gives a ≺ z: ¬(a≺c) ∨ ¬(c≺z) ∨ a≺z *)
      if m1 land b <> 0 then confl := theory_imply s base p a z c z;
      (* z ≺ a gives z ≺ c: ¬(a≺c) ∨ ¬(z≺a) ∨ z≺c *)
      if !confl == dummy_clause && m2 land b <> 0 then confl := theory_imply s base p z c z a;
      if !confl != dummy_clause then m := 0
    done;
    if !confl == dummy_clause then incr w else w := nw
  done;
  !confl

(* Propagate all enqueued facts; returns the conflicting clause, or
   [dummy_clause] when there is none. For each dequeued literal the
   binary layer fires first — a flat scan of implied literals, no clause
   records touched — then the long clauses, then, for a block's pair
   literal, the block's [theory_pass]. *)
let propagate s =
  let confl = ref dummy_clause in
  while !confl == dummy_clause && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* binary pass: every entry of bin.(p) is implied outright *)
    let bs = s.bin.(p) in
    let nb = Vec.size bs in
    let j = ref 0 in
    while !confl == dummy_clause && !j < nb do
      let o = Vec.get bs !j in
      (match value_lit s o with
      | 1 -> ()
      | 0 -> enqueue_bin s o (Lit.negate p)
      | _ ->
          (* both literals of (negate p \/ o) are false: materialise the
             pair as a throwaway clause to seed conflict analysis *)
          confl := [| o; Lit.negate p |];
          s.qhead <- Vec.size s.trail);
      incr j
    done;
    if !confl == dummy_clause then begin
      let ws = s.watches.(p) in
      let i = ref 0 in
      while !i < Vec.size ws do
        let c = Vec.get ws !i in
        let false_lit = Lit.negate p in
        (* make sure the false literal is at position 1 *)
        if c.(0) = false_lit then begin
          c.(0) <- c.(1);
          c.(1) <- false_lit
        end;
        if value_lit s c.(0) = 1 then incr i (* clause already satisfied *)
        else begin
          (* look for a new literal to watch *)
          let n = Array.length c in
          let k = ref 2 in
          while !k < n && value_lit s c.(!k) = -1 do
            incr k
          done;
          if !k < n then begin
            (* found: move it to position 1 and update watch lists *)
            c.(1) <- c.(!k);
            c.(!k) <- false_lit;
            Vec.push (watch_list s (Lit.negate c.(1))) c;
            Vec.swap_remove ws !i
          end
          else if value_lit s c.(0) = -1 then begin
            (* conflict *)
            confl := c;
            s.qhead <- Vec.size s.trail;
            incr i
          end
          else begin
            (* unit clause: propagate c.(0) *)
            enqueue s c.(0) c;
            incr i
          end
        end
      done
    end;
    if !confl == dummy_clause && Vec.size s.blocks > 0 && s.pair_blk.(Lit.var p) >= 0 then begin
      confl := theory_pass s p;
      if !confl != dummy_clause then s.qhead <- Vec.size s.trail
    end
  done;
  !confl

(* ---- clause addition (decision level 0 only) ---- *)

(* The loader's kernel (SNIPPETS §2, MiniSat's [newClause]: sort in
   place, then attach). A clause is copied into the solver's scratch
   buffer, never sorted where it lies: callers pass shared arrays
   (template structural blocks). The buffer is sorted with top-level
   int-specialised sorts and compacted by one int loop — no closure, ref
   cell or list per clause. *)

(* insert [x] into the sorted [buf.(0..j)], shifting larger entries up *)
let rec insert_sorted (buf : int array) x j =
  if j >= 0 && Array.unsafe_get buf j > x then begin
    Array.unsafe_set buf (j + 1) (Array.unsafe_get buf j);
    insert_sorted buf x (j - 1)
  end
  else Array.unsafe_set buf (j + 1) x

let rec sift_down_int (buf : int array) root len =
  let child = (2 * root) + 1 in
  if child < len then begin
    let child =
      if child + 1 < len && Array.unsafe_get buf (child + 1) > Array.unsafe_get buf child
      then child + 1
      else child
    in
    let r = Array.unsafe_get buf root and c = Array.unsafe_get buf child in
    if c > r then begin
      Array.unsafe_set buf root c;
      Array.unsafe_set buf child r;
      sift_down_int buf child len
    end
  end

(* ascending sort of [buf.(0..len-1)]: insertion sort for the short
   clauses that dominate, heapsort above the cutoff (long CFD premises) *)
let sort_prefix (buf : int array) len =
  if len <= 16 then
    for i = 1 to len - 1 do
      insert_sorted buf (Array.unsafe_get buf i) (i - 1)
    done
  else begin
    for i = (len / 2) - 1 downto 0 do
      sift_down_int buf i len
    done;
    for e = len - 1 downto 1 do
      let top = Array.unsafe_get buf 0 in
      Array.unsafe_set buf 0 (Array.unsafe_get buf e);
      Array.unsafe_set buf e top;
      sift_down_int buf 0 e
    done
  end

(* Compact the sorted [buf.(i..len-1)] onto [buf.(n..)]: drop duplicates
   and literals false at level 0, keep the rest in ascending order. [prev]
   is the last kept literal (-1 before the first). Returns the number of
   kept literals, or -1 when the clause is a tautology (p ∨ ¬p sit side by
   side once sorted) or already true at level 0. *)
let rec compact s (buf : int array) len i n prev =
  if i = len then n
  else
    let l = Array.unsafe_get buf i in
    if prev >= 0 && l = Lit.negate prev then -1
    else if l = prev then compact s buf len (i + 1) n prev
    else
      match value_lit s l with
      | 1 -> -1
      | -1 when s.level.(Lit.var l) = 0 -> compact s buf len (i + 1) n prev
      | _ ->
          Array.unsafe_set buf n l;
          compact s buf len (i + 1) (n + 1) l

(* Add the clause [lits.(off) .. lits.(off + len - 1)]: it is copied into
   [add_buf] before sorting, so [lits] is only read and no array is made
   for it unless it is stored as a long clause. *)
let add_clause_slice s lits off len =
  if s.ok then begin
    assert (decision_level s = 0);
    if Array.length s.add_buf < len then
      s.add_buf <- Array.make (max len (2 * Array.length s.add_buf)) 0;
    let buf = s.add_buf in
    for i = 0 to len - 1 do
      let l = lits.(off + i) in
      if Lit.var l >= s.nvars then invalid_arg "Solver.add_clause: unallocated variable";
      Array.unsafe_set buf i l
    done;
    sort_prefix buf len;
    match compact s buf len 0 0 (-1) with
    | -1 -> () (* tautology or satisfied *)
    | 0 -> s.ok <- false
    | 1 ->
        enqueue s buf.(0) dummy_clause;
        if propagate s != dummy_clause then s.ok <- false
    | 2 -> add_binary s buf.(1) buf.(0)
    | n ->
        let c = Array.sub buf 0 n in
        Vec.push s.clauses c;
        attach_clause s c
  end

let add_clause_a s lits = add_clause_slice s lits 0 (Array.length lits)

let add_clause s lits = add_clause_a s (Array.of_list lits)

(* Register a block's pair variables with [theory_pass]. A block of
   fewer than three values has no axioms and is not kept; registering one
   twice is a no-op. When the level-0 trail is not empty, its pair
   literals of the block seed the bitsets and it is propagated again from
   its start, so the block's consequences of facts already there are
   drawn (or their conflict makes the solver unsat). *)
let add_block s (b : Cnf.block) =
  if b.Cnf.first < 0 || b.Cnf.d < 0 || b.Cnf.first + Cnf.block_nvars b.Cnf.d > s.nvars then
    invalid_arg "Solver.add_cnf: block over unallocated variables";
  if s.ok && b.Cnf.d >= 3 && not (Vec.exists (fun tb -> tb.blk = b) s.blocks) then begin
    assert (decision_level s = 0);
    if Array.length s.pair_blk = 0 then begin
      let cap = Array.length s.assigns in
      s.pair_blk <- Array.make cap (-1);
      s.pair_u <- Array.make cap 0;
      s.pair_v <- Array.make cap 0
    end;
    let idx = Vec.size s.blocks in
    let base = Array.init b.Cnf.d (fun u -> Cnf.pair_var b u (u + 1) - (u + 1)) in
    for x = b.Cnf.first to b.Cnf.first + Cnf.block_nvars b.Cnf.d - 1 do
      if s.pair_blk.(x) >= 0 then invalid_arg "Solver.add_cnf: overlapping blocks"
    done;
    for u = 0 to b.Cnf.d - 1 do
      for v = u + 1 to b.Cnf.d - 1 do
        let x = Cnf.pair_var b u v in
        s.pair_blk.(x) <- idx;
        s.pair_u.(x) <- u;
        s.pair_v.(x) <- v
      done
    done;
    let nw = (b.Cnf.d + word_bits - 1) / word_bits in
    let tb = { blk = b; base; nw; succ = Array.make (b.Cnf.d * nw) 0; pred = Array.make (b.Cnf.d * nw) 0 } in
    Vec.push s.blocks tb;
    if Vec.size s.trail > 0 then begin
      Vec.iter (fun l -> if s.pair_blk.(Lit.var l) = idx then pair_bits s tb l true) s.trail;
      s.qhead <- 0;
      if propagate s != dummy_clause then s.ok <- false
    end
  end

let add_cnf s (f : Cnf.t) =
  ensure_nvars s f.Cnf.nvars;
  List.iter (add_block s) f.Cnf.blocks;
  Cnf.iter_packed (add_clause_slice s) f

let add_units s lits = List.iter (fun l -> add_clause s [ l ]) lits

(* ---- conflict analysis (first UIP) ----

   [analyze] writes the learnt clause into the solver's [learnt] buffer
   (asserting literal first, [learnt_n] literals) and returns its
   backtrack level; it allocates no list, vector or closure. *)

(* Mark [q] of a reason or of the conflict. Returns [true] for a literal
   of the current level, which the caller resolves on; a literal of a
   lower (non-zero) level goes into the learnt clause. *)
let analyze_mark s q =
  let v = Lit.var q in
  if (not s.seen.(v)) && s.level.(v) > 0 then begin
    var_bump s v;
    s.seen.(v) <- true;
    if s.level.(v) >= decision_level s then true
    else begin
      s.learnt.(s.learnt_n) <- q;
      s.learnt_n <- s.learnt_n + 1;
      false
    end
  end
  else false

(* a literal of reason [r] (other than [v]'s own) that is neither in the
   learnt clause nor fixed at level 0, from position [j] on *)
let rec reason_escapes s (r : clause) v j =
  j < Array.length r
  && (let w = Lit.var r.(j) in
      (w <> v && (not s.seen.(w)) && s.level.(w) > 0) || reason_escapes s r v (j + 1))

(* minimisation keeps [q] unless its reason lies within the clause and
   level 0 *)
let analyze_keep s q =
  let v = Lit.var q in
  let other = s.binreason.(v) in
  if other >= 0 then begin
    let w = Lit.var other in
    (not s.seen.(w)) && s.level.(w) > 0
  end
  else
    let r = s.reason.(v) in
    r == dummy_clause || reason_escapes s r v 0

let analyze s confl =
  (* a learnt clause holds distinct variables *)
  if Array.length s.learnt <= s.nvars then
    s.learnt <- Array.make (max (s.nvars + 1) (2 * Array.length s.learnt)) 0;
  s.learnt_n <- 1 (* position 0: the asserting literal *);
  let path_c = ref 0 in
  (* seed with the conflict clause, then walk the trail expanding reasons *)
  for j = 0 to Array.length confl - 1 do
    if analyze_mark s confl.(j) then incr path_c
  done;
  let index = ref (Vec.size s.trail - 1) in
  let p = ref (-1) in
  let continue_loop = ref true in
  while !continue_loop do
    (* select next literal to expand *)
    while not s.seen.(Lit.var (Vec.get s.trail !index)) do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    let v = Lit.var !p in
    s.seen.(v) <- false;
    decr path_c;
    if !path_c > 0 then begin
      if s.binreason.(v) >= 0 then begin
        if analyze_mark s s.binreason.(v) then incr path_c
      end
      else begin
        let c = s.reason.(v) in
        for j = 1 to Array.length c - 1 do
          if analyze_mark s c.(j) then incr path_c
        done
      end
    end
    else continue_loop := false
  done;
  let learnt = s.learnt and n = s.learnt_n in
  learnt.(0) <- Lit.negate !p;
  (* clause minimisation: drop literals implied by the rest via their
     reason. Kept literals move to the front in order, dropped ones to
     [k..n-1], where their seen flags are still cleared below. *)
  let k = ref 1 in
  for i = 1 to n - 1 do
    let q = learnt.(i) in
    if analyze_keep s q then begin
      learnt.(i) <- learnt.(!k);
      learnt.(!k) <- q;
      incr k
    end
  done;
  (* compute backtrack level; move the max-level literal to position 1 *)
  let bt_level =
    if !k > 1 then begin
      let max_i = ref 1 in
      for i = 2 to !k - 1 do
        if s.level.(Lit.var learnt.(i)) > s.level.(Lit.var learnt.(!max_i)) then max_i := i
      done;
      let tmp = learnt.(1) in
      learnt.(1) <- learnt.(!max_i);
      learnt.(!max_i) <- tmp;
      s.level.(Lit.var learnt.(1))
    end
    else 0
  in
  (* clear seen flags *)
  for i = 0 to n - 1 do
    s.seen.(Lit.var learnt.(i)) <- false
  done;
  s.learnt_n <- !k;
  bt_level

(* ---- search ---- *)

let luby y x =
  (* Finite subsequences of the Luby sequence: 1,1,2,1,1,2,4,... *)
  let rec go size seq x =
    if size - 1 = x then (seq, x)
    else
      let size' = (size - 1) / 2 in
      go size' (seq - 1) (x mod size')
  in
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let seq, _ = go !size !seq x in
  y ** float_of_int seq

let pick_branch_var s =
  let rec go () =
    if Idx_heap.is_empty s.order then -1
    else
      let v = Idx_heap.pop_max s.order s.activity in
      if value_var s v = 0 then v else go ()
  in
  go ()

(* ---- budgets (MiniSat setConfBudget / budgetOff lineage) ---- *)

let set_budget ?conflicts ?propagations s =
  (match conflicts with
  | Some n -> s.conflict_limit <- s.conflicts + max 0 n
  | None -> ());
  match propagations with
  | Some n -> s.propagation_limit <- s.propagations + max 0 n
  | None -> ()

let clear_budget s =
  s.conflict_limit <- -1;
  s.propagation_limit <- -1

let within_budget s =
  (s.conflict_limit < 0 || s.conflicts < s.conflict_limit)
  && (s.propagation_limit < 0 || s.propagations < s.propagation_limit)

let budget_exhausted s = not (within_budget s)

type search_outcome = S_sat | S_unsat_global | S_unsat_assump | S_restart | S_unknown

(* record the clause [analyze] left in [learnt] and assert its first
   literal *)
let record_learnt s =
  let lits = s.learnt and n = s.learnt_n in
  if n = 1 then enqueue s lits.(0) dummy_clause
  else if n = 2 then begin
    (* learnt binaries go straight to the implication layer *)
    add_binary s lits.(0) lits.(1);
    s.learned <- s.learned + 1;
    enqueue_bin s lits.(0) lits.(1)
  end
  else begin
    let c = Array.sub lits 0 n in
    s.learned <- s.learned + 1;
    s.n_learnts <- s.n_learnts + 1;
    attach_clause s c;
    enqueue s c.(0) c
  end

let search s ~respect_budget ~nof_conflicts ~assumptions =
  let conflict_c = ref 0 in
  let outcome = ref None in
  while Option.is_none !outcome do
    let confl = propagate s in
    if confl != dummy_clause then begin
      s.conflicts <- s.conflicts + 1;
      incr conflict_c;
      if decision_level s = 0 then outcome := Some S_unsat_global
      else if respect_budget && not (within_budget s) then
        (* budget spent mid-search: the conflict is left unresolved; the
           caller cancels to level 0, keeping the solver reusable *)
        outcome := Some S_unknown
      else begin
        let bt = analyze s confl in
        cancel_until s bt;
        record_learnt s;
        var_decay_activity s
      end
    end
    else begin
      if respect_budget && not (within_budget s) then begin
        cancel_until s 0;
        outcome := Some S_unknown
      end
      else if !conflict_c >= nof_conflicts then begin
        cancel_until s 0;
        s.restarts <- s.restarts + 1;
        outcome := Some S_restart
      end
      else begin
        (* place assumptions first, one decision level each *)
        let next = ref (-1) in
        let dl = decision_level s in
        if dl < Array.length assumptions then begin
          let p = assumptions.(dl) in
          match value_lit s p with
          | 1 ->
              (* already satisfied: open a dummy level *)
              Vec.push s.trail_lim (Vec.size s.trail)
          | -1 -> outcome := Some S_unsat_assump
          | _ -> next := p
        end
        else begin
          let v = pick_branch_var s in
          if v = -1 then outcome := Some S_sat
          else begin
            s.decisions <- s.decisions + 1;
            next := Lit.make v s.polarity.(v)
          end
        end;
        (match (!outcome, !next) with
        | None, p when p >= 0 ->
            Vec.push s.trail_lim (Vec.size s.trail);
            enqueue s p dummy_clause
        | _ -> ())
      end
    end
  done;
  match !outcome with Some o -> o | None -> assert false

module Limited = struct
  type t = Sat | Unsat | Unknown
end

let solve_driver ~respect_budget ~assumptions s =
  s.model_valid <- false;
  if not s.ok then Limited.Unsat
  else begin
    cancel_until s 0;
    List.iter
      (fun l ->
        if Lit.var l >= s.nvars then
          invalid_arg "Solver.solve: assumption over unallocated variable")
      assumptions;
    let assumptions = Array.of_list assumptions in
    let result = ref None in
    let curr_restarts = ref 0 in
    while !result = None do
      let budget =
        int_of_float (luby 2.0 !curr_restarts *. float_of_int restart_base)
      in
      (match search s ~respect_budget ~nof_conflicts:budget ~assumptions with
      | S_sat ->
          s.saved_model <- Array.init s.nvars (fun v -> value_var s v = 1);
          s.model_valid <- true;
          result := Some Limited.Sat
      | S_unsat_global ->
          s.ok <- false;
          result := Some Limited.Unsat
      | S_unsat_assump -> result := Some Limited.Unsat
      | S_unknown -> result := Some Limited.Unknown
      | S_restart -> incr curr_restarts);
      ()
    done;
    cancel_until s 0;
    match !result with Some r -> r | None -> assert false
  end

let solve ?(assumptions = []) s =
  match solve_driver ~respect_budget:false ~assumptions s with
  | Limited.Sat -> Sat
  | Limited.Unsat -> Unsat
  | Limited.Unknown -> assert false (* unreachable: budgets not consulted *)

let solve_limited ?(assumptions = []) s = solve_driver ~respect_budget:true ~assumptions s

let model_value s v =
  if not s.model_valid then invalid_arg "Solver.model_value: no model";
  if v < 0 || v >= Array.length s.saved_model then
    invalid_arg "Solver.model_value: bad variable"
  else s.saved_model.(v)

let model s =
  if not s.model_valid then invalid_arg "Solver.model: no model";
  Array.copy s.saved_model

let has_model s = s.model_valid

let value_level0 s v =
  if v < 0 || v >= s.nvars then invalid_arg "Solver.value_level0";
  if s.assigns.(v) <> 0 && s.level.(v) = 0 then Some (s.assigns.(v) = 1) else None

let set_phase s l =
  if Lit.var l >= s.nvars then invalid_arg "Solver.set_phase: unallocated variable";
  s.polarity.(Lit.var l) <- Lit.sign l

let ok s = s.ok

(* ---- export ---- *)

let export_cnf s =
  if not s.ok then Cnf.unsafe_make ~nvars:(max s.nvars 1) [ [||] ]
  else begin
    let cls = ref [] in
    (* level-0 facts *)
    Vec.iter
      (fun l -> if s.level.(Lit.var l) = 0 then cls := [| l |] :: !cls)
      s.trail;
    (* one emission per binary pair: the co-literal of bin.(p) is negate p,
       so emit only from the side where it is the smaller literal *)
    Array.iteri
      (fun p bs ->
        let a = Lit.negate p in
        Vec.iter (fun o -> if a < o then cls := [| a; o |] :: !cls) bs)
      s.bin;
    (* original long clauses (learnts are implied; skipped) *)
    Vec.iter (fun (c : clause) -> cls := Array.copy c :: !cls) s.clauses;
    Cnf.unsafe_make ~blocks:(List.map (fun tb -> tb.blk) (Vec.to_list s.blocks)) ~nvars:s.nvars !cls
  end

(* ---- statistics ---- *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnts : int;
  learned : int;
  binaries : int;
  subsumed : int;
  vars_substituted : int;
  simplify_ms : float;
}

(* [subsumed], [vars_substituted] and [simplify_ms] stay at their zero
   value: every snapshot below starts from [zero_stats] *)
let zero_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnts = 0;
    learned = 0;
    binaries = 0;
    subsumed = 0;
    vars_substituted = 0;
    simplify_ms = 0.;
  }

let stats (s : t) =
  {
    zero_stats with
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    learnts = s.n_learnts;
    learned = s.learned;
    binaries = s.n_binaries;
  }

let add_stats a b =
  {
    zero_stats with
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    learnts = b.learnts;
    learned = a.learned + b.learned;
    binaries = b.binaries;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "conflicts=%d decisions=%d propagations=%d restarts=%d learnts=%d binaries=%d"
    st.conflicts st.decisions st.propagations st.restarts st.learnts st.binaries

module VMap = Map.Make (struct
  type t = Value.t

  let compare = Value.total_compare
end)

type mode = Paper | Exact

type t = {
  mode : mode;
  schema : Schema.t;
  universes : Value.t array array;
  adom_sizes : int array;
  ids : int VMap.t array;
  offsets : int array; (* variable offset of each attribute *)
  blocks : Sat.Cnf.block array; (* each attribute's pairs as a tournament block *)
  nvars : int;
}

(* variables per attribute of universe size [d]: one per ordered pair in
   Paper mode, one per unordered pair in Exact mode *)
let pairs mode d = match mode with Paper -> d * (d - 1) | Exact -> d * (d - 1) / 2

let lower ?(mode = Paper) ~rows entity =
  let schema = Entity.schema entity in
  let arity = Schema.arity schema in
  let universes = Array.make arity [||] in
  let adom_sizes = Array.make arity 0 in
  let ids = Array.make arity VMap.empty in
  let cells = Array.make arity [||] in
  for a = 0 to arity - 1 do
    let adom_a, col = Entity.active_domain_ids ~rows entity a in
    let adom = Array.to_list adom_a in
    (* Null is pre-reserved in every universe: when no tuple takes it yet
       it sits right after the active-domain values — exactly where the
       first-occurrence order would place it if a later Se ⊕ Ot tuple
       (extensions append) introduced a null. The universe, and with it
       the variable numbering, then survives null-carrying extensions, so
       a live incremental solver session does too. *)
    let adom =
      if List.exists Value.is_null adom then adom else adom @ [ Value.Null ]
    in
    adom_sizes.(a) <- List.length adom;
    let univ = Array.of_list adom in
    universes.(a) <- univ;
    ids.(a) <- Array.to_list univ |> List.mapi (fun i v -> (v, i)) |> List.to_seq |> VMap.of_seq;
    (* a cell's id is the scan's index into the active domain, which is
       its [vid] — with one exception: NaN equals nothing under
       [Value.equal], so every NaN occurrence took an entry of its own,
       but [Value.total_compare] equates NaNs and the map keeps the last
       of equal keys, so [vid] answers the universe's last NaN. A NaN
       row never merges ({!Entity.distinct_rows}), so every occurrence
       is still scanned *)
    if Array.exists Value.is_nan adom_a then begin
      let last = ref 0 in
      Array.iteri (fun i v -> if Value.is_nan v then last := i) univ;
      Array.iteri (fun i id -> if Value.is_nan univ.(id) then col.(i) <- !last) col
    end;
    cells.(a) <- col
  done;
  let offsets = Array.make arity 0 in
  let total = ref 0 in
  for a = 0 to arity - 1 do
    offsets.(a) <- !total;
    let d = Array.length universes.(a) in
    total := !total + pairs mode d
  done;
  (* Exact mode lays each attribute's pairs out as a tournament block
     starting at the attribute's offset ({!Sat.Cnf.pair_var}) *)
  let blocks =
    Array.init arity (fun a -> { Sat.Cnf.first = offsets.(a); d = Array.length universes.(a) })
  in
  ({ mode; schema; universes; adom_sizes; ids; offsets; blocks; nvars = !total }, cells)

let build ?mode entity = fst (lower ?mode ~rows:(Entity.distinct_rows entity) entity)

let mode c = c.mode

let schema c = c.schema

let universe c a = c.universes.(a)

let adom_size c a = c.adom_sizes.(a)

let vid c a v =
  match VMap.find_opt v c.ids.(a) with Some i -> i | None -> raise Not_found

let vid_opt c a v = VMap.find_opt v c.ids.(a)

(* [vid_opt] under [total_compare] equates NaNs; a pattern constant is
   matched with [Value.equal], under which NaN equals nothing *)
let const_id c a v = if Value.is_nan v then None else vid_opt c a v

let offset c a = c.offsets.(a)

let value c a id = c.universes.(a).(id)

let nvars c = c.nvars

let block c a = c.blocks.(a)

let lit_of c ~attr lo hi =
  let d = Array.length c.universes.(attr) in
  if lo = hi || lo < 0 || hi < 0 || lo >= d || hi >= d then
    invalid_arg "Coding.lit_of: bad value pair";
  match c.mode with
  | Paper -> Sat.Lit.pos (c.offsets.(attr) + (lo * (d - 1)) + if hi < lo then hi else hi - 1)
  | Exact -> Sat.Cnf.pair_lit (block c attr) lo hi

(* the attribute whose variables hold [var]: the last of [lo .. hi] whose
   offset is at most [var] (binary search; offsets ascend) *)
let rec attr_of offsets var lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if offsets.(mid) <= var then attr_of offsets var mid hi else attr_of offsets var lo (mid - 1)

(* the [(attr, lo, hi)] the positive literal of [var] stands for *)
let decode c var =
  if var < 0 || var >= c.nvars then invalid_arg "Coding.fact_of_lit: variable out of range";
  let a = attr_of c.offsets var 0 (Array.length c.offsets - 1) in
  match c.mode with
  | Paper ->
      let d = Array.length c.universes.(a) in
      let local = var - c.offsets.(a) in
      let lo = local / (d - 1) in
      let r = local mod (d - 1) in
      (a, lo, if r >= lo then r + 1 else r)
  | Exact ->
      let u, v = Sat.Cnf.block_pair (block c a) var in
      (a, u, v)

let fact_of_lit c lit =
  let ((a, lo, hi) as f) = decode c (Sat.Lit.var lit) in
  match (c.mode, Sat.Lit.sign lit) with
  | _, true -> Some f
  | Paper, false -> None
  | Exact, false -> Some (a, hi, lo)

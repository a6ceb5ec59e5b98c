type order_edge = { attr : string; lo : int; hi : int }

type t = {
  entity : Entity.t;
  orders : order_edge list;
  sigma : Currency.Constraint_ast.t list;
  gamma : Cfd.Constant_cfd.t list;
}

type error =
  | Unknown_order_attribute of string
  | Order_index_out_of_range of { attr : string; index : int; size : int }
  | Reflexive_order_edge of { attr : string; index : int }
  | Unknown_constraint_attribute of { constraint_index : int; attr : string }
  | Unknown_cfd_attribute of { cfd_index : int; attr : string }

let pp_error ppf = function
  | Unknown_order_attribute attr ->
      Format.fprintf ppf "unknown attribute %S in order" attr
  | Order_index_out_of_range { attr; index; size } ->
      Format.fprintf ppf "order edge on %S: tuple index %d out of range [0,%d)" attr index size
  | Reflexive_order_edge { attr; index } ->
      Format.fprintf ppf "reflexive order edge on %S at tuple %d" attr index
  | Unknown_constraint_attribute { constraint_index; attr } ->
      Format.fprintf ppf "currency constraint #%d mentions unknown attribute %S"
        constraint_index attr
  | Unknown_cfd_attribute { cfd_index; attr } ->
      Format.fprintf ppf "CFD #%d mentions unknown attribute %S" cfd_index attr

exception Spec_error of error

(* ---- Σ/Γ interning ----

   Every spec of the same *shape* (same constraint lists up to structural
   equality) should carry the very same list values: Encode's compiled-
   constraint memos, Saturate.plan_for and the engine's template cache all
   key on physical identity (or on the integer ids handed out here), and a
   batch of distinct entities over one schema must share them. The pool
   maps each distinct list to a canonical representative and a dense id.

   The pool is global and mutex-guarded; a domain-local one-slot memo in
   front of it makes re-interning the canonical list (the overwhelmingly
   common case once [make_res] has interned a batch's specs) lock-free. *)
module Intern (X : sig
  type elt
end) =
struct
  type entry = { canon : X.elt list; id : int }

  let tbl : (int, entry list) Hashtbl.t = Hashtbl.create 64
  let next = ref 0
  let lock = Mutex.create ()

  let slot : (X.elt list * entry) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let intern l =
    let cell = Domain.DLS.get slot in
    match !cell with
    | Some (src, e) when src == l -> (e.canon, e.id)
    | _ ->
        let h = Hashtbl.hash_param 100 200 l in
        Mutex.lock lock;
        let entries = Option.value (Hashtbl.find_opt tbl h) ~default:[] in
        let e =
          match List.find_opt (fun e -> e.canon == l) entries with
          | Some e -> e
          | None -> (
              match List.find_opt (fun e -> e.canon = l) entries with
              | Some e -> e
              | None ->
                  let e = { canon = l; id = !next } in
                  incr next;
                  Hashtbl.replace tbl h (e :: entries);
                  e)
        in
        Mutex.unlock lock;
        cell := Some (l, e);
        (e.canon, e.id)
end

module Sigma_pool = Intern (struct
  type elt = Currency.Constraint_ast.t
end)

module Gamma_pool = Intern (struct
  type elt = Cfd.Constant_cfd.t
end)

let intern_sigma = Sigma_pool.intern
let intern_gamma = Gamma_pool.intern

let check_orders entity orders =
  let schema = Entity.schema entity in
  let n = Entity.size entity in
  List.iter
    (fun { attr; lo; hi } ->
      if not (Schema.mem schema attr) then raise (Spec_error (Unknown_order_attribute attr));
      let check_idx index =
        if index < 0 || index >= n then
          raise (Spec_error (Order_index_out_of_range { attr; index; size = n }))
      in
      check_idx lo;
      check_idx hi;
      if lo = hi then raise (Spec_error (Reflexive_order_edge { attr; index = lo })))
    orders

(* Σ and Γ checked against a schema and interned, once per shape: a
   one-slot domain-local memo keyed on the very lists and the schema
   serves every further spec of the shape (a batch of entities, each
   interaction round, each session flush) without walking |Σ| + |Γ|
   again. Only a success is remembered, so a bad list is re-checked, and
   reports its first failing index, every time. *)
type checked = {
  k_sigma : Currency.Constraint_ast.t list;  (* the lists as given *)
  k_gamma : Cfd.Constant_cfd.t list;
  k_schema : Schema.t;
  k_canon : Currency.Constraint_ast.t list * Cfd.Constant_cfd.t list;
}

let checked_memo : checked option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let check_constraints schema sigma gamma =
  let slot = Domain.DLS.get checked_memo in
  match !slot with
  | Some k when k.k_sigma == sigma && k.k_gamma == gamma && Schema.equal k.k_schema schema ->
      k.k_canon
  | _ ->
      List.iteri
        (fun k c ->
          match Currency.Constraint_ast.check_schema c schema with
          | Ok () -> ()
          | Error a ->
              raise (Spec_error (Unknown_constraint_attribute { constraint_index = k; attr = a })))
        sigma;
      List.iteri
        (fun k c ->
          match Cfd.Constant_cfd.check_schema c schema with
          | Ok () -> ()
          | Error a -> raise (Spec_error (Unknown_cfd_attribute { cfd_index = k; attr = a })))
        gamma;
      let canon = (fst (intern_sigma sigma), fst (intern_gamma gamma)) in
      slot := Some { k_sigma = sigma; k_gamma = gamma; k_schema = schema; k_canon = canon };
      canon

let make_res entity ~orders ~sigma ~gamma =
  try
    check_orders entity orders;
    let sigma, gamma = check_constraints (Entity.schema entity) sigma gamma in
    Ok { entity; orders; sigma; gamma }
  with Spec_error e -> Error e

let invalid e = invalid_arg (Format.asprintf "Spec.make: %a" pp_error e)

let make entity ~orders ~sigma ~gamma =
  match make_res entity ~orders ~sigma ~gamma with Ok s -> s | Error e -> invalid e

let sigma_id s = snd (intern_sigma s.sigma)
let gamma_id s = snd (intern_gamma s.gamma)

let schema s = Entity.schema s.entity

let size s = Entity.size s.entity

(* Σ, Γ and the schema are [s]'s, already checked: only the new edges
   need validating, against the grown entity *)
let extend s ~tuples ~orders =
  let entity =
    if tuples = [] then s.entity else Entity.make (schema s) (Entity.tuples s.entity @ tuples)
  in
  (try check_orders entity orders with Spec_error e -> invalid e);
  { s with entity; orders = orders @ s.orders }

let add_order_edges s edges = extend s ~tuples:[] ~orders:edges

let extend_with_tuple s tup ~current_attrs =
  let new_idx = size s in
  let fresh_edges =
    List.concat_map
      (fun attr -> List.init new_idx (fun i -> { attr; lo = i; hi = new_idx }))
      current_attrs
  in
  extend s ~tuples:[ tup ] ~orders:fresh_edges

let pp ppf s =
  Format.fprintf ppf "@[<v>entity:@ %a@ |Σ| = %d, |Γ| = %d, |orders| = %d@]" Entity.pp
    s.entity (List.length s.sigma) (List.length s.gamma) (List.length s.orders)

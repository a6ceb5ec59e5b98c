(* Golden clause order: the DIMACS dump of a few fixed encodings and the
   delta clauses of fixed extension steps, compared byte for byte with
   the files under [golden/]. Any change to which clauses an encoding
   lists, or in which order, shows here first.

   The files were written by this very program, run with
   [--write DIR]; rewrite them only for a change that means to alter the
   clause order, and say so where the change is described. *)

module E = Crcore.Encode

let modes = [ ("paper", E.Paper); ("exact", E.Exact) ]

let clause_line c =
  String.concat " " (List.map (fun l -> string_of_int (Sat.Lit.to_dimacs l)) (Array.to_list c))
  ^ " 0\n"

(* a fixed small Person dataset: constraint chains and CFD patterns the
   paper's fixtures do not have *)
let person_specs () =
  let ds = Datagen.Person.quick ~seed:7 ~n_entities:2 ~size:6 () in
  List.map (Datagen.Types.spec_of ds) ds.Datagen.Types.cases

let random_specs () = List.init 24 (fun seed -> Fixtures.random_spec (Random.State.make [| seed |]))

let entities () =
  [ ("edith", Fixtures.edith_spec ()); ("george", Fixtures.george_spec ()) ]
  @ List.mapi (fun i s -> (Printf.sprintf "person%d" i, s)) (person_specs ())
  @ List.mapi (fun i s -> (Printf.sprintf "random%d" i, s)) (random_specs ())

(* one dump per mode: every entity's Φ(Se), each after a comment line *)
let encode_dump mode =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, spec) ->
      Buffer.add_string b (Printf.sprintf "c entity %s\n" name);
      Buffer.add_string b (Sat.Dimacs.to_string (E.encode ~mode spec).E.cnf))
    (entities ());
  Buffer.contents b

(* extension steps: Edith with a fresh record of known values (a Delta),
   Edith with a record carrying a new value (Renumbered), an order edge on
   George, and each random spec with one record drawn from its pools
   plus an order edge from its first tuple to that record *)
let extensions () =
  let open Fixtures in
  let edith = edith_spec () in
  let known = tup [ "Edith Shain"; "retired"; "nurse"; "3"; "SFC"; "415"; "94924"; "Dogtown" ] in
  let fresh = tup [ "Edith Shain"; "deceased"; "doctor"; "4"; "LA"; "213"; "90058"; "Vermont" ] in
  let george = george_spec () in
  let random =
    List.mapi
      (fun seed spec ->
        let st = Random.State.make [| 1000 + seed |] in
        let pick l = List.nth l (Random.State.int st (List.length l)) in
        let t =
          Tuple.make small_schema (List.map (fun a -> pick (pool a)) (Schema.attr_names small_schema))
        in
        let edge = { Crcore.Spec.attr = pick (Schema.attr_names small_schema); lo = 0; hi = Crcore.Spec.size spec } in
        (Printf.sprintf "random%d" seed, spec, Crcore.Spec.extend spec ~tuples:[ t ] ~orders:[ edge ]))
      (random_specs ())
  in
  [
    ("edith+known", edith, Crcore.Spec.extend edith ~tuples:[ known ] ~orders:[]);
    ("edith+fresh", edith, Crcore.Spec.extend edith ~tuples:[ fresh ] ~orders:[]);
    ( "george+edge",
      george,
      Crcore.Spec.add_order_edges george [ { Crcore.Spec.attr = "city"; lo = 2; hi = 0 } ] );
  ]
  @ random

(* per step: its kind, then the Delta's clauses and the extended Φ *)
let extend_dump mode =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, base, spec) ->
      Buffer.add_string b (Printf.sprintf "c step %s\n" name);
      match E.extend (E.encode ~mode base) spec with
      | None -> Buffer.add_string b "c none\n"
      | Some (E.Delta (enc, clauses)) ->
          Buffer.add_string b (Printf.sprintf "c delta %d\n" (List.length clauses));
          List.iter (fun c -> Buffer.add_string b (clause_line c)) clauses;
          Buffer.add_string b (Sat.Dimacs.to_string enc.E.cnf)
      | Some (E.Renumbered enc) ->
          Buffer.add_string b "c renumbered\n";
          Buffer.add_string b (Sat.Dimacs.to_string enc.E.cnf))
    (extensions ());
  Buffer.contents b

let goldens () =
  List.concat_map
    (fun (tag, mode) ->
      [ (Printf.sprintf "encode_%s.cnf" tag, encode_dump mode); (Printf.sprintf "extend_%s.cnf" tag, extend_dump mode) ])
    modes

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_golden (file, contents) () =
  let expected = read_file (Filename.concat "golden" file) in
  if expected <> contents then begin
    (* the first differing line, not two whole dumps *)
    let el = String.split_on_char '\n' expected and cl = String.split_on_char '\n' contents in
    let rec first i = function
      | e :: el, c :: cl -> if e = c then first (i + 1) (el, cl) else (i, e, c)
      | e :: _, [] -> (i, e, "<end>")
      | [], c :: _ -> (i, "<end>", c)
      | [], [] -> (i, "", "")
    in
    let i, e, c = first 1 (el, cl) in
    Alcotest.failf "%s differs at line %d: expected %S, got %S" file i e c
  end

let () =
  match Sys.argv with
  | [| _; "--write"; dir |] ->
      List.iter
        (fun (file, contents) ->
          Out_channel.with_open_bin (Filename.concat dir file) (fun oc -> output_string oc contents))
        (goldens ())
  | _ ->
      Alcotest.run "golden"
        [
          ( "clause order",
            List.map (fun ((file, _) as g) -> Alcotest.test_case file `Quick (test_golden g)) (goldens ()) );
        ]

(* Values, schemas, tuples, entity instances, CSV. *)

let v = Value.of_string

let test_value_parse () =
  Alcotest.(check bool) "int" true (Value.equal (v "42") (Value.Int 42));
  Alcotest.(check bool) "neg int" true (Value.equal (v "-7") (Value.Int (-7)));
  Alcotest.(check bool) "float" true (Value.equal (v "3.5") (Value.Float 3.5));
  Alcotest.(check bool) "string" true (Value.equal (v "NY") (Value.Str "NY"));
  Alcotest.(check bool) "null kw" true (Value.is_null (v "null"));
  Alcotest.(check bool) "NULL kw" true (Value.is_null (v "NULL"));
  Alcotest.(check bool) "empty" true (Value.is_null (v ""));
  Alcotest.(check bool) "n/a is a string" false (Value.is_null (v "n/a"))

let test_value_compare () =
  Alcotest.(check bool) "null < int" true (Value.eval Value.Lt Value.Null (Value.Int 0));
  Alcotest.(check bool) "null < string" true (Value.eval Value.Lt Value.Null (Value.Str "a"));
  Alcotest.(check bool) "null = null" true (Value.eval Value.Eq Value.Null Value.Null);
  Alcotest.(check bool) "int cross float" true (Value.eval Value.Eq (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "int < float" true (Value.eval Value.Lt (Value.Int 2) (Value.Float 2.5));
  Alcotest.(check bool) "string lexicographic" true (Value.eval Value.Lt (Value.Str "abc") (Value.Str "abd"));
  Alcotest.(check bool) "mixed kinds not <" false (Value.eval Value.Lt (Value.Str "a") (Value.Int 5));
  Alcotest.(check bool) "mixed kinds neq" true (Value.eval Value.Neq (Value.Str "a") (Value.Int 5));
  Alcotest.(check bool) "geq" true (Value.eval Value.Geq (Value.Int 5) (Value.Int 5))

let test_value_total_order () =
  let vs = [ Value.Str "b"; Value.Int 3; Value.Null; Value.Str "a"; Value.Int 1 ] in
  let sorted = List.sort Value.total_compare vs in
  Alcotest.(check (list string)) "sorted"
    [ "null"; "1"; "3"; "a"; "b" ]
    (List.map Value.to_string sorted)

let test_value_ops () =
  Alcotest.(check (option string)) "op parse" (Some "<=")
    (Option.map Value.op_to_string (Value.op_of_string "<="));
  Alcotest.(check (option string)) "op <> alias" (Some "!=")
    (Option.map Value.op_to_string (Value.op_of_string "<>"));
  Alcotest.(check bool) "bad op" true (Value.op_of_string "~" = None)

let test_schema () =
  let s = Schema.make [ "a"; "b"; "c" ] in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index s "b");
  Alcotest.(check string) "name" "c" (Schema.name s 2);
  Alcotest.(check bool) "mem" true (Schema.mem s "a");
  Alcotest.(check bool) "not mem" false (Schema.mem s "z");
  Alcotest.(check (option int)) "index_opt missing" None (Schema.index_opt s "z");
  Alcotest.(check bool) "duplicate rejected" true
    (try ignore (Schema.make [ "a"; "a" ]); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Schema.make []); false with Invalid_argument _ -> true)

let schema3 = Schema.make [ "x"; "y"; "z" ]

let test_tuple () =
  let t = Tuple.make schema3 [ Value.Int 1; Value.Str "s"; Value.Null ] in
  Alcotest.(check string) "get" "s" (Value.to_string (Tuple.get t 1));
  Alcotest.(check string) "by name" "1" (Value.to_string (Tuple.get_by_name t "x"));
  let t2 = Tuple.set t 0 (Value.Int 9) in
  Alcotest.(check string) "set copy" "9" (Value.to_string (Tuple.get t2 0));
  Alcotest.(check string) "original unchanged" "1" (Value.to_string (Tuple.get t 0));
  Alcotest.(check bool) "equal" true (Tuple.equal t t);
  Alcotest.(check bool) "not equal" false (Tuple.equal t t2);
  Alcotest.(check bool) "arity mismatch" true
    (try ignore (Tuple.make schema3 [ Value.Int 1 ]); false with Invalid_argument _ -> true)

let test_entity () =
  let mk l = Tuple.make schema3 (List.map v l) in
  let e = Entity.make schema3 [ mk [ "1"; "a"; "p" ]; mk [ "2"; "a"; "q" ]; mk [ "1"; "a"; "r" ] ] in
  Alcotest.(check int) "size" 3 (Entity.size e);
  Alcotest.(check (list string)) "adom x (first occurrence order)" [ "1"; "2" ]
    (List.map Value.to_string (Entity.active_domain e 0));
  Alcotest.(check (list string)) "adom y" [ "a" ] (List.map Value.to_string (Entity.active_domain e 1));
  Alcotest.(check bool) "conflict on x" true (Entity.has_conflict e 0);
  Alcotest.(check bool) "no conflict on y" false (Entity.has_conflict e 1);
  Alcotest.(check (list int)) "conflicting attrs" [ 0; 2 ] (Entity.conflicting_attrs e);
  Alcotest.(check bool) "empty entity rejected" true
    (try ignore (Entity.make schema3 []); false with Invalid_argument _ -> true)

let test_csv_parse () =
  let rows = Csv.parse_string "a,b,c\n1,\"x,y\",3\n2,\"he said \"\"hi\"\"\",4\n" in
  Alcotest.(check int) "rows" 3 (List.length rows);
  Alcotest.(check (list string)) "quoted comma" [ "1"; "x,y"; "3" ] (List.nth rows 1);
  Alcotest.(check (list string)) "escaped quote" [ "2"; "he said \"hi\""; "4" ] (List.nth rows 2)

let test_csv_roundtrip () =
  let rows = [ [ "a"; "b" ]; [ "1,2"; "line\nbreak" ]; [ "\"q\""; "plain" ] ] in
  let parsed = Csv.parse_string (Csv.to_string rows) in
  Alcotest.(check int) "row count" (List.length rows) (List.length parsed);
  List.iter2 (fun r p -> Alcotest.(check (list string)) "row" r p) rows parsed

let test_csv_entity () =
  let path = Filename.temp_file "cr_test" ".csv" in
  Csv.write_file path [ [ "name"; "kids" ]; [ "edith"; "3" ]; [ "edith"; "null" ] ];
  let e = Csv.load_entity path in
  Sys.remove path;
  Alcotest.(check int) "tuples" 2 (Entity.size e);
  Alcotest.(check bool) "value typed" true (Value.equal (Entity.value e 0 1) (Value.Int 3));
  Alcotest.(check bool) "null parsed" true (Value.is_null (Entity.value e 1 1))

let prop_value_of_to_string =
  QCheck.Test.make ~count:200 ~name:"of_string . to_string is stable on ints"
    QCheck.small_int (fun i ->
      Value.equal (Value.of_string (Value.to_string (Value.Int i))) (Value.Int i))

let prop_csv_roundtrip =
  QCheck.Test.make ~count:100 ~name:"csv round trip"
    QCheck.(small_list (small_list (string_gen_of_size (QCheck.Gen.int_bound 8) QCheck.Gen.printable)))
    (fun rows ->
      (* normalise: csv cannot represent empty rows or rows of one empty field *)
      let rows = List.filter (fun r -> r <> [] && r <> [ "" ]) rows in
      let parsed = Csv.parse_string (Csv.to_string rows) in
      parsed = rows)

(* the hashed active domain against the list scan it replaced: same
   values, same first-occurrence order, under [Value.equal] — [Int 1]
   and [Float 1.] are one value, [0.] and [-0.] are one value, every NaN
   occurrence is its own *)
let prop_active_domain_list_reference =
  let value =
    QCheck.Gen.(
      frequency
        [
          (1, return Value.Null);
          (3, map (fun i -> Value.Int i) (int_range (-3) 3));
          (3, map (fun i -> Value.Float (float_of_int i)) (int_range (-3) 3));
          (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range (-2) 2));
          (1, oneofl [ Value.Float 0.; Value.Float (-0.); Value.Float Float.nan ]);
          (2, map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "1" ]));
        ])
  in
  let schema1 = Schema.make [ "x" ] in
  let reference vs =
    List.rev
      (List.fold_left
         (fun seen v -> if List.exists (Value.equal v) seen then seen else v :: seen)
         [] vs)
  in
  (* bit-level identity: the kept occurrence of [0.]/[-0.] must be the first *)
  let same a b =
    match (a, b) with
    | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> a = b
  in
  QCheck.Test.make ~count:500 ~name:"hashed active_domain == list-scan reference"
    (QCheck.make
       ~print:(fun vs -> String.concat "," (List.map Value.to_string vs))
       QCheck.Gen.(list_size (int_range 1 30) value))
    (fun vs ->
      let e = Entity.make schema1 (List.map (fun x -> Tuple.make schema1 [ x ]) vs) in
      let got = Entity.active_domain e 0 and want = reference vs in
      List.length got = List.length want && List.for_all2 same got want)

(* Numbers where [float_of_int] rounds: ints and floats near ±2^53,
   ±2^62, [max_int] and [min_int], and the edges of [Value.hash]'s
   integer range [-2^62, 2^62): [-0x1p62] (= [min_int]), the integral
   floats just inside it with their [Int] twins, [0x1p62] just outside,
   and fractions next to small ints. [Value.equal] must be an
   equivalence there (no NaN is drawn: NaN equals nothing), agree with
   [total_compare = 0] and with [hash], and [total_compare] must order
   them as one total order. *)
let prop_numbers_compare_exactly =
  let ints =
    List.concat_map
      (fun b -> List.init 5 (fun k -> b + k - 2))
      [
        1 lsl 53; -(1 lsl 53); max_int - 2; min_int + 2; 0;
        Float.to_int (Float.pred 0x1p62); Float.to_int (Float.succ (-0x1p62));
      ]
  in
  let floats =
    List.concat_map
      (fun f -> [ Float.pred f; f; Float.succ f ])
      [ 0x1p53; -0x1p53; 0x1p62; -0x1p62; 0x1p63 ]
    @ [ 0.; -0.; 0.5; -0.5; 1.5; Float.infinity; Float.neg_infinity ]
  in
  let pool =
    Array.of_list
      (List.map (fun i -> Value.Int i) ints
      @ List.map (fun f -> Value.Float f) (floats @ List.map Float.of_int ints))
  in
  let value = QCheck.Gen.(map (Array.get pool) (int_bound (Array.length pool - 1))) in
  QCheck.Test.make ~count:2000 ~name:"Int/Float equality exact beyond 2^53"
    (QCheck.make
       ~print:(fun (a, b, c) -> String.concat "," (List.map Value.to_string [ a; b; c ]))
       QCheck.Gen.(triple value value value))
    (fun (a, b, c) ->
      let le x y = Value.total_compare x y <= 0 in
      ((not (Value.equal a b && Value.equal b c)) || Value.equal a c)
      && Value.equal a b = (Value.total_compare a b = 0)
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b)
      && compare (Value.total_compare a b) 0 = compare 0 (Value.total_compare b a)
      && ((not (le a b && le b c)) || le a c))

(* Two distinct ints with one [Value.hash], built by inverting its
   integer mix (multiply by an odd constant, xor-shift by 29, drop bit
   62): rows of them must stay apart, which only the row table's
   cell-by-cell check can tell. The first check guards the construction
   against a change of mix. *)
let test_colliding_rows () =
  let c = 0x9E3779B97F4A7C1 in
  let rec inverse x k = if k = 0 then x else inverse (x * (2 - (c * x))) (k - 1) in
  (* the xor-shift maps z to bit 62 alone: z's own shifts cancel *)
  let z = (1 lsl 62) lxor (1 lsl 33) lxor (1 lsl 4) in
  let i = 12345 in
  let j = ((i * c) lxor z) * inverse c 6 in
  Alcotest.(check bool) "distinct ints, one hash" true
    (i <> j && Value.hash (Value.Int i) = Value.hash (Value.Int j));
  let schema = Schema.make [ "x"; "y" ] in
  let row a b = Tuple.make schema [ Value.Int a; Value.Str b ] in
  let e = Entity.make schema [ row i "s"; row j "s"; row i "s"; row j "t"; row j "s" ] in
  Alcotest.(check (array int)) "rows" [| 0; 1; 3 |] (Entity.distinct_rows e)

(* [Entity.distinct_rows] against a quadratic reference: the first
   index of every [Value.equal] class of rows, and every row with a NaN
   cell. Entities of 1–600 tuples copy rows of a palette of up to 300,
   each copied cell possibly swapped for a numerically equal twin, so the
   row table grows several times and twins must merge. Cells come from
   NaN, both zeros, Int/Float twins at ±2^53 and ±2^62 ([-0x1p62] is
   [min_int]; [0x1p62] is out of the int range), [max_int], [min_int],
   [Null] and short strings. *)
let prop_distinct_rows_reference =
  let top = Float.pred 0x1p62 in
  let pool =
    [|
      Value.Float Float.nan; Value.Float 0.; Value.Float (-0.); Value.Int 0;
      Value.Int (1 lsl 53); Value.Float 0x1p53; Value.Int (-(1 lsl 53)); Value.Float (-0x1p53);
      Value.Int min_int; Value.Float (-0x1p62); Value.Float 0x1p62; Value.Int max_int;
      Value.Float top; Value.Int (Float.to_int top); Value.Null; Value.Str "a";
      Value.Str "b"; Value.Str "ab";
    |]
  in
  (* a [Value.equal] value of the other kind (or sign), if there is one *)
  let twin v =
    let t =
      match v with
      | Value.Int i -> Value.Float (Float.of_int i)
      | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 -> Value.Int (Float.to_int f)
      | Value.Float f -> Value.Float (-.f)
      | v -> v
    in
    if Value.equal t v then t else v
  in
  QCheck.Test.make ~count:200 ~name:"distinct_rows == quadratic reference"
    (QCheck.make
       ~print:(fun (arity, n, k, seed) -> Printf.sprintf "arity=%d n=%d palette=%d seed=%d" arity n k seed)
       QCheck.Gen.(quad (int_range 1 3) (int_range 1 600) (int_range 1 300) (int_bound 1_000_000)))
    (fun (arity, n, k, seed) ->
      let st = Random.State.make [| seed |] in
      let schema = Schema.make (List.init arity (fun a -> "a" ^ string_of_int a)) in
      let cell () = pool.(Random.State.int st (Array.length pool)) in
      let palette = Array.init k (fun _ -> Array.init arity (fun _ -> cell ())) in
      let rows =
        Array.init n (fun _ ->
            Array.map
              (fun v -> if Random.State.bool st then twin v else v)
              palette.(Random.State.int st k))
      in
      let e = Entity.make schema (List.map (Tuple.of_array schema) (Array.to_list rows)) in
      let has_nan i = Array.exists Value.is_nan rows.(i) in
      let kept = ref [] in
      for i = 0 to n - 1 do
        if has_nan i || not (List.exists (fun j -> Array.for_all2 Value.equal rows.(j) rows.(i)) !kept)
        then kept := i :: !kept
      done;
      Entity.distinct_rows e = Array.of_list (List.rev !kept))

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "parsing" `Quick test_value_parse;
          Alcotest.test_case "comparison semantics" `Quick test_value_compare;
          Alcotest.test_case "total order" `Quick test_value_total_order;
          Alcotest.test_case "operators" `Quick test_value_ops;
        ] );
      ( "schema_tuple_entity",
        [
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "tuple" `Quick test_tuple;
          Alcotest.test_case "entity" `Quick test_entity;
          Alcotest.test_case "colliding row hashes stay apart" `Quick test_colliding_rows;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse quoting" `Quick test_csv_parse;
          Alcotest.test_case "round trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "entity loading" `Quick test_csv_entity;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_value_of_to_string;
            prop_csv_roundtrip;
            prop_active_domain_list_reference;
            prop_numbers_compare_exactly;
            prop_distinct_rows_reference;
          ] );
    ]

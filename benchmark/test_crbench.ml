(* Unit tests for crbench's statistics and span code. *)

let close = Alcotest.float 1e-9

let span ~id ~parent name start stop = { Trace.id; name; start; stop; parent; req = 0 }

let test_tail_percentile () =
  let t = Alcotest.(option (float 0.)) in
  Alcotest.check t "99 samples: median only" None (Stats.tail_percentile 99);
  Alcotest.check t "100 samples: p90" (Some 0.90) (Stats.tail_percentile 100);
  Alcotest.check t "999 samples: still p90" (Some 0.90) (Stats.tail_percentile 999);
  Alcotest.check t "1000 samples: p99" (Some 0.99) (Stats.tail_percentile 1000)

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Alcotest.check close "median interpolates" 2.5 (Stats.percentile a 0.5);
  Alcotest.check close "p0 is the minimum" 1. (Stats.percentile a 0.);
  Alcotest.check close "p100 is the maximum" 4. (Stats.percentile a 1.);
  Alcotest.check close "single sample" 7. (Stats.percentile [| 7. |] 0.99);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 0.5))

(* expected values from Python's statistics.quantiles(data, n=4) *)
let test_quartiles () =
  let q = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9)) in
  Alcotest.check q "two values" (0.75, 1.5, 2.25) (Stats.quartiles [ 1.; 2. ]);
  Alcotest.check q "one to ten" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "unsorted input" (1.5, 3., 4.5) (Stats.quartiles [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check q "three values" (10., 11., 12.5) (Stats.quartiles [ 10.; 12.5; 11. ]);
  Alcotest.check q "one value" (3., 3., 3.) (Stats.quartiles [ 3. ]);
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.check close "relative spread" (5.5 /. 5.5) (Stats.rel_spread s)

let test_self_nested () =
  (* a [0,10] ⊃ b [2,8] ⊃ c [3,4] *)
  let spans =
    [|
      span ~id:0 ~parent:(-1) "a" 0. 10.;
      span ~id:1 ~parent:0 "b" 2. 8.;
      span ~id:2 ~parent:1 "c" 3. 4.;
    |]
  in
  let self = Trace.self_times spans in
  Alcotest.check close "a" 4. self.(0);
  Alcotest.check close "b" 5. self.(1);
  Alcotest.check close "c" 1. self.(2)

let test_self_overlapping () =
  (* children [1,5] and [3,8] overlap: [1,8] is covered once; a child
     reaching past its parent [0,10] counts only inside it *)
  let spans =
    [|
      span ~id:0 ~parent:(-1) "p" 0. 10.;
      span ~id:1 ~parent:0 "x" 1. 5.;
      span ~id:2 ~parent:0 "y" 3. 8.;
      span ~id:3 ~parent:(-1) "q" 20. 30.;
      span ~id:4 ~parent:3 "z" 25. 40.;
    |]
  in
  let self = Trace.self_times spans in
  Alcotest.check close "overlapping children" 3. self.(0);
  Alcotest.check close "child past its parent" 5. self.(3);
  let by_name = Trace.self_by_name spans in
  Alcotest.(check (list string)) "names in first-seen order" [ "p"; "x"; "y"; "q"; "z" ]
    (List.map fst by_name)

let test_recording () =
  let t = Trace.create ~enabled:true () in
  let r =
    Trace.span t ~req:7 "outer" (fun () ->
        Trace.span t "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "result passes through" 42 r;
  let spans = Trace.spans t in
  Alcotest.(check int) "two spans" 2 (Array.length spans);
  let outer = spans.(0) and inner = spans.(1) in
  Alcotest.(check string) "start order" "outer" outer.Trace.name;
  Alcotest.(check int) "root parent" (-1) outer.Trace.parent;
  Alcotest.(check int) "inner parent" outer.Trace.id inner.Trace.parent;
  Alcotest.(check int) "request inherited" 7 inner.Trace.req;
  Alcotest.(check bool) "nested in time" true
    (outer.Trace.start <= inner.Trace.start && inner.Trace.stop <= outer.Trace.stop);
  let off = Trace.create ~enabled:false () in
  Alcotest.(check int) "disabled runs f" 3 (Trace.span off "x" (fun () -> 3));
  Alcotest.(check int) "disabled records nothing" 0 (Array.length (Trace.spans off));
  (match Trace.span t "raises" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "a raising span is closed" 3 (Array.length (Trace.spans t))

let test_bounds () =
  let b = { Stats.rel = 0.10; floor = 0.02 } in
  let within better ~parent ~change = Stats.within b better ~parent ~change in
  Alcotest.(check bool) "floor applies to small values" true
    (within Stats.Lower ~parent:0.1 ~change:0.115);
  Alcotest.(check bool) "beyond the floor" false (within Stats.Lower ~parent:0.1 ~change:0.125);
  Alcotest.(check bool) "relative applies to large values" true
    (within Stats.Lower ~parent:10. ~change:10.9);
  Alcotest.(check bool) "beyond relative" false (within Stats.Lower ~parent:10. ~change:11.1);
  Alcotest.(check bool) "higher-is-better within" true
    (within Stats.Higher ~parent:100. ~change:91.);
  Alcotest.(check bool) "higher-is-better beyond" false
    (within Stats.Higher ~parent:100. ~change:89.);
  Alcotest.(check bool) "improvement is always within" true
    (within Stats.Lower ~parent:10. ~change:1.);
  let zero = { Stats.rel = 0.; floor = 0. } in
  Alcotest.(check bool) "absolute zero holds at zero" true
    (Stats.within zero Stats.Lower ~parent:0. ~change:0.);
  Alcotest.(check bool) "absolute zero: one failure regresses" false
    (Stats.within zero Stats.Lower ~parent:0. ~change:1.)

let test_verdict () =
  let b = { Stats.rel = 0.10; floor = 0. } in
  let v = Alcotest.testable (Fmt.of_to_string Stats.verdict_to_string) ( = ) in
  let parent = List.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  let faster = List.map (fun x -> x -. 20.) parent in
  Alcotest.check v "ten pairs all won, gap past the spread" Stats.Improved
    (Stats.verdict b Stats.Lower ~parent ~change:faster);
  Alcotest.check v "nine pairs are too few" Stats.Unchanged
    (Stats.verdict b Stats.Lower ~parent:(List.tl parent) ~change:(List.tl faster));
  Alcotest.check v "no change" Stats.Unchanged
    (Stats.verdict b Stats.Lower ~parent ~change:parent);
  Alcotest.check v "worse beyond the bound" Stats.Regressed
    (Stats.verdict b Stats.Lower ~parent ~change:(List.map (fun x -> x *. 1.2) parent));
  let noisy = [ 50.; 150.; 60.; 140.; 100.; 70.; 130.; 90.; 110.; 100. ] in
  Alcotest.check v "parent spread wider than the bound" Stats.Unresolved
    (Stats.verdict b Stats.Lower ~parent:noisy ~change:(List.map (fun x -> x *. 1.05) noisy));
  Alcotest.(check (float 1e-9)) "ties count for neither side" 0.5
    (Stats.wins Stats.Lower ~parent:[ 1.; 1.; 2.; 2. ] ~change:[ 0.; 1.; 1.; 2. ])

let test_json () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\n");
        ("n", Json.Num 0.1);
        ("i", Json.Num 42.);
        ("l", Json.Arr [ Json.Null; Json.Bool true; Json.Bool false ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = Ok v);
  Alcotest.(check string) "integers print bare" {|{"i":42}|}
    (Json.to_string (Json.Obj [ ("i", Json.Num 42.) ]));
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (Json.of_string "{} x"))

let () =
  Alcotest.run "crbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "verdict" `Quick test_verdict;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time, nested" `Quick test_self_nested;
          Alcotest.test_case "self time, overlapping" `Quick test_self_overlapping;
          Alcotest.test_case "recording" `Quick test_recording;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json ]);
    ]

(* Vec and Idx_heap: the solver's containers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_push_pop () =
  let v = Sat.Vec.create ~dummy:0 in
  check_bool "empty" true (Sat.Vec.is_empty v);
  for i = 0 to 99 do
    Sat.Vec.push v i
  done;
  check_int "size" 100 (Sat.Vec.size v);
  check_int "get 42" 42 (Sat.Vec.get v 42);
  check_int "last" 99 (Sat.Vec.last v);
  check_int "pop" 99 (Sat.Vec.pop v);
  check_int "size after pop" 99 (Sat.Vec.size v)

let test_shrink_clear () =
  let v = Sat.Vec.of_list [ 1; 2; 3; 4; 5 ] ~dummy:0 in
  Sat.Vec.shrink v 2;
  Alcotest.(check (list int)) "shrunk" [ 1; 2 ] (Sat.Vec.to_list v);
  Sat.Vec.clear v;
  check_bool "cleared" true (Sat.Vec.is_empty v)

let test_swap_remove () =
  let v = Sat.Vec.of_list [ 10; 20; 30; 40 ] ~dummy:0 in
  Sat.Vec.swap_remove v 1;
  Alcotest.(check (list int)) "swap removed" [ 10; 40; 30 ] (Sat.Vec.to_list v)

let test_grow_to () =
  let v = Sat.Vec.create ~dummy:(-1) in
  Sat.Vec.grow_to v 5 7;
  Alcotest.(check (list int)) "grown" [ 7; 7; 7; 7; 7 ] (Sat.Vec.to_list v);
  Sat.Vec.grow_to v 3 9;
  check_int "no shrink on grow_to" 5 (Sat.Vec.size v)

let test_bounds () =
  let v = Sat.Vec.of_list [ 1 ] ~dummy:0 in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec: index 1 out of bounds (size 1)")
    (fun () -> ignore (Sat.Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      let v = Sat.Vec.create ~dummy:0 in
      ignore (Sat.Vec.pop v))

let test_fold_iter () =
  let v = Sat.Vec.of_list [ 1; 2; 3 ] ~dummy:0 in
  check_int "fold sum" 6 (Sat.Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Sat.Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !acc;
  check_bool "exists" true (Sat.Vec.exists (fun x -> x = 2) v);
  check_bool "not exists" false (Sat.Vec.exists (fun x -> x = 9) v)

let test_heap_order () =
  let score = [| 5.; 1.; 9.; 3.; 7. |] in
  let h = Sat.Idx_heap.create () in
  List.iter (Sat.Idx_heap.insert h score) [ 0; 1; 2; 3; 4 ];
  let order = List.init 5 (fun _ -> Sat.Idx_heap.pop_max h score) in
  Alcotest.(check (list int)) "descending score" [ 2; 4; 0; 3; 1 ] order;
  check_bool "emptied" true (Sat.Idx_heap.is_empty h)

let test_heap_update () =
  let score = [| 5.; 1.; 9. |] in
  let h = Sat.Idx_heap.create () in
  List.iter (Sat.Idx_heap.insert h score) [ 0; 1; 2 ];
  score.(1) <- 100.;
  Sat.Idx_heap.update h score 1;
  check_int "bumped key pops first" 1 (Sat.Idx_heap.pop_max h score)

let test_heap_mem_reinsert () =
  let score = Array.init 4 float_of_int in
  let h = Sat.Idx_heap.create () in
  Sat.Idx_heap.insert h score 3;
  Sat.Idx_heap.insert h score 3;
  check_int "no duplicate" 1 (Sat.Idx_heap.size h);
  check_bool "mem" true (Sat.Idx_heap.mem h 3);
  ignore (Sat.Idx_heap.pop_max h score);
  check_bool "gone" false (Sat.Idx_heap.mem h 3);
  Sat.Idx_heap.insert h score 3;
  check_bool "reinsertable" true (Sat.Idx_heap.mem h 3)

let test_heap_random () =
  (* heap pops must match sorting by score, for many random configurations *)
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 50 do
    let n = 1 + Random.State.int st 40 in
    let score = Array.init n (fun _ -> Random.State.float st 100.) in
    let h = Sat.Idx_heap.create () in
    List.iter (Sat.Idx_heap.insert h score) (List.init n Fun.id);
    let popped = List.init n (fun _ -> Sat.Idx_heap.pop_max h score) in
    let sorted =
      List.sort (fun a b -> compare score.(b) score.(a)) (List.init n Fun.id)
    in
    Alcotest.(check (list int)) "pop order = sort order" sorted popped
  done

let () =
  Alcotest.run "vec_heap"
    [
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "shrink/clear" `Quick test_shrink_clear;
          Alcotest.test_case "swap_remove" `Quick test_swap_remove;
          Alcotest.test_case "grow_to" `Quick test_grow_to;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "fold/iter/exists" `Quick test_fold_iter;
        ] );
      ( "idx_heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_order;
          Alcotest.test_case "update" `Quick test_heap_update;
          Alcotest.test_case "mem/reinsert" `Quick test_heap_mem_reinsert;
          Alcotest.test_case "random configurations" `Quick test_heap_random;
        ] );
    ]

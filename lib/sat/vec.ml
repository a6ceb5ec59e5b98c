type 'a t = { mutable data : 'a array; mutable sz : int; dummy : 'a }

let create ~dummy = { data = [||]; sz = 0; dummy }

let make n x ~dummy = { data = Array.make (max n 1) x; sz = n; dummy }

let size v = v.sz

let is_empty v = v.sz = 0

let check v i =
  if i < 0 || i >= v.sz then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (size %d)" i v.sz)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let ensure v n =
  let cap = Array.length v.data in
  if n > cap then begin
    let cap' = max n (max 4 (2 * cap)) in
    let data' = Array.make cap' v.dummy in
    Array.blit v.data 0 data' 0 v.sz;
    v.data <- data'
  end

let push v x =
  ensure v (v.sz + 1);
  Array.unsafe_set v.data v.sz x;
  v.sz <- v.sz + 1

let pop v =
  if v.sz = 0 then invalid_arg "Vec.pop: empty";
  v.sz <- v.sz - 1;
  let x = Array.unsafe_get v.data v.sz in
  Array.unsafe_set v.data v.sz v.dummy;
  x

let last v =
  if v.sz = 0 then invalid_arg "Vec.last: empty";
  Array.unsafe_get v.data (v.sz - 1)

let shrink v n =
  if n < 0 || n > v.sz then invalid_arg "Vec.shrink";
  for i = n to v.sz - 1 do
    Array.unsafe_set v.data i v.dummy
  done;
  v.sz <- n

let clear v = shrink v 0

let grow_to v n x =
  if n > v.sz then begin
    ensure v n;
    for i = v.sz to n - 1 do
      Array.unsafe_set v.data i x
    done;
    v.sz <- n
  end

let swap_remove v i =
  check v i;
  v.sz <- v.sz - 1;
  Array.unsafe_set v.data i (Array.unsafe_get v.data v.sz);
  Array.unsafe_set v.data v.sz v.dummy

let iter f v =
  for i = 0 to v.sz - 1 do
    f (Array.unsafe_get v.data i)
  done

let exists p v =
  let rec go i = i < v.sz && (p (Array.unsafe_get v.data i) || go (i + 1)) in
  go 0

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Array.unsafe_get v.data i :: acc) in
  go (v.sz - 1) []

let of_list l ~dummy =
  let v = create ~dummy in
  List.iter (push v) l;
  v

let copy v = { data = Array.copy v.data; sz = v.sz; dummy = v.dummy }

let fold f init v =
  let acc = ref init in
  for i = 0 to v.sz - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

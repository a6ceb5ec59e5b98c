(* Reachability is kept as two bit matrices: up.(v) holds everything above
   v, down.(v) everything below. Adding a ≺ b unions a's down-set ∪ {a}
   below everything in b's up-set ∪ {b}, and symmetrically. *)

type t = { n : int; up : Bytes.t array; down : Bytes.t array }

let row n = Bytes.make ((n + 7) / 8) '\000'

let create n =
  if n < 0 then invalid_arg "Strict_order.create";
  { n; up = Array.init (max n 1) (fun _ -> row n); down = Array.init (max n 1) (fun _ -> row n) }

let size o = o.n

let check o v = if v < 0 || v >= o.n then invalid_arg "Strict_order: bad element"

let get_bit bytes i = Bytes.get_uint8 bytes (i lsr 3) land (1 lsl (i land 7)) <> 0

let set_bit bytes i =
  Bytes.set_uint8 bytes (i lsr 3) (Bytes.get_uint8 bytes (i lsr 3) lor (1 lsl (i land 7)))

let lt o a b =
  check o a;
  check o b;
  get_bit o.up.(a) b

let compatible o a b =
  check o a;
  check o b;
  a <> b && not (lt o b a)

let union_into dst src =
  for i = 0 to Bytes.length dst - 1 do
    Bytes.set_uint8 dst i (Bytes.get_uint8 dst i lor Bytes.get_uint8 src i)
  done

let add o a b =
  check o a;
  check o b;
  if a = b || lt o b a then false
  else if lt o a b then true
  else begin
    (* members below or equal to a / above or equal to b *)
    let lower = ref [ a ] and upper = ref [ b ] in
    for v = 0 to o.n - 1 do
      if get_bit o.down.(a) v then lower := v :: !lower;
      if get_bit o.up.(b) v then upper := v :: !upper
    done;
    List.iter
      (fun u ->
        List.iter (fun w -> set_bit o.up.(u) w) !upper;
        union_into o.up.(u) o.up.(b);
        set_bit o.up.(u) b)
      !lower;
    List.iter
      (fun w ->
        List.iter (fun u -> set_bit o.down.(w) u) !lower;
        union_into o.down.(w) o.down.(a);
        set_bit o.down.(w) a)
      !upper;
    true
  end

let pairs o =
  let acc = ref [] in
  for a = o.n - 1 downto 0 do
    for b = o.n - 1 downto 0 do
      if get_bit o.up.(a) b then acc := (a, b) :: !acc
    done
  done;
  !acc

let n_pairs o =
  let total = ref 0 in
  for a = 0 to o.n - 1 do
    for b = 0 to o.n - 1 do
      if get_bit o.up.(a) b then incr total
    done
  done;
  !total

let maximal o =
  List.filter
    (fun v ->
      let above = ref false in
      for w = 0 to o.n - 1 do
        if get_bit o.up.(v) w then above := true
      done;
      not !above)
    (List.init o.n Fun.id)

let maximum o =
  let dominates v =
    let all = ref true in
    for u = 0 to o.n - 1 do
      if u <> v && not (get_bit o.down.(v) u) then all := false
    done;
    !all
  in
  let rec go v = if v >= o.n then None else if dominates v then Some v else go (v + 1) in
  if o.n = 1 then Some 0 else go 0

let copy o =
  { n = o.n; up = Array.map Bytes.copy o.up; down = Array.map Bytes.copy o.down }

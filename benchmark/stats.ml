let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = max 0 (min (n - 1) (int_of_float x)) in
    if i >= n - 1 then sorted.(n - 1)
    else
      let frac = x -. float_of_int i in
      sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of l) 0.5

let tail_percentile n = if n >= 1000 then Some 0.99 else if n >= 100 then Some 0.90 else None

let quartiles l =
  let d = sorted_of l in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: no values"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    (* statistics.quantiles(method="exclusive"), n = 4, in exact integer
       arithmetic like the reference implementation *)
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

type summary = { n : int; median : float; q1 : float; q3 : float; lo : float; hi : float }

let summarize l =
  match l with
  | [] -> { n = 0; median = nan; q1 = nan; q3 = nan; lo = nan; hi = nan }
  | _ ->
      let q1, _, q3 = quartiles l in
      let d = sorted_of l in
      {
        n = Array.length d;
        median = percentile d 0.5;
        q1;
        q3;
        lo = d.(0);
        hi = d.(Array.length d - 1);
      }

let rel_spread s =
  if s.n < 2 || s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

type better = Lower | Higher
type bound = { rel : float; floor : float }

let allowed b ~parent = Float.max (b.rel *. Float.abs parent) b.floor

let worsening better ~parent ~change =
  match better with Lower -> change -. parent | Higher -> parent -. change

let within b better ~parent ~change = worsening better ~parent ~change <= allowed b ~parent

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let rec pairs a b =
  match (a, b) with x :: a', y :: b' -> (x, y) :: pairs a' b' | _ -> []

let wins better ~parent ~change =
  match pairs parent change with
  | [] -> 0.
  | ps ->
      let won =
        List.length
          (List.filter (fun (p, c) -> worsening better ~parent:p ~change:c < 0.) ps)
      in
      float_of_int won /. float_of_int (List.length ps)

let verdict b better ~parent ~change =
  let sp = summarize parent and sc = summarize change in
  let gain = -.worsening better ~parent:sp.median ~change:sc.median in
  let n_pairs = List.length (pairs parent change) in
  let every_run_better =
    parent <> [] && change <> []
    && List.for_all
         (fun c -> List.for_all (fun p -> worsening better ~parent:p ~change:c < 0.) parent)
         change
  in
  if n_pairs >= 10 && wins better ~parent ~change >= 0.9 && gain > sp.q3 -. sp.q1 then Improved
  else if rel_spread sp > b.rel && not every_run_better then Unresolved
  else if not (within b better ~parent:sp.median ~change:sc.median) then Regressed
  else Unchanged

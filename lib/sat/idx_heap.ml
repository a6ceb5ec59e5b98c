(* Every operation takes the score array [act] it orders by: the solver
   reallocates its activity array when it grows, so the heap keeps no
   copy of it. Comparisons read [act] directly (no closure, no boxed
   float). *)
type t = {
  mutable heap : int array;   (* heap.(i) = key at heap position i, i < size *)
  mutable size : int;
  mutable pos : int array;    (* pos.(key) = position in heap, or -1 *)
}

let create () = { heap = [||]; size = 0; pos = [||] }

let size h = h.size

let is_empty h = h.size = 0

let ensure_pos h k =
  let n = Array.length h.pos in
  if k >= n then begin
    let pos' = Array.make (max (k + 1) (max 4 (2 * n))) (-1) in
    Array.blit h.pos 0 pos' 0 n;
    h.pos <- pos'
  end

let mem h k = k < Array.length h.pos && h.pos.(k) >= 0

let[@inline] key h i = Array.unsafe_get h.heap i

let[@inline] score (act : float array) h i = Array.unsafe_get act (key h i)

let swap h i j =
  let ki = key h i and kj = key h j in
  Array.unsafe_set h.heap i kj;
  Array.unsafe_set h.heap j ki;
  h.pos.(ki) <- j;
  h.pos.(kj) <- i

let rec sift_up act h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if score act h i > score act h parent then begin
      swap h i parent;
      sift_up act h parent
    end
  end

let rec sift_down act h i =
  let n = h.size in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = if l < n && score act h l > score act h i then l else i in
  let best = if r < n && score act h r > score act h best then r else best in
  if best <> i then begin
    swap h i best;
    sift_down act h best
  end

let insert h act k =
  if not (mem h k) then begin
    ensure_pos h k;
    if h.size = Array.length h.heap then begin
      let heap' = Array.make (max 4 (2 * h.size)) 0 in
      Array.blit h.heap 0 heap' 0 h.size;
      h.heap <- heap'
    end;
    Array.unsafe_set h.heap h.size k;
    h.pos.(k) <- h.size;
    h.size <- h.size + 1;
    sift_up act h (h.size - 1)
  end

let pop_max h act =
  if is_empty h then invalid_arg "Idx_heap.pop_max: empty";
  let top = key h 0 in
  let lastpos = h.size - 1 in
  swap h 0 lastpos;
  h.size <- lastpos;
  h.pos.(top) <- -1;
  if not (is_empty h) then sift_down act h 0;
  top

let update h act k =
  if mem h k then begin
    sift_up act h h.pos.(k);
    sift_down act h h.pos.(k)
  end

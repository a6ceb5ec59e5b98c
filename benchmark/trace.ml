let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = { id : int; name : string; start : float; stop : float; parent : int; req : int }

type t = {
  enabled : bool;
  mutable next : int;
  mutable open_ : (int * int) list;  (* (id, req) of open spans, innermost first *)
  mutable closed : span list;
}

let create ~enabled () = { enabled; next = 0; open_ = []; closed = [] }

let span t ?req name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent, outer_req = match t.open_ with (p, r) :: _ -> (p, r) | [] -> (-1, 0) in
    let req = Option.value req ~default:outer_req in
    t.open_ <- (id, req) :: t.open_;
    let start = now () in
    let finish () =
      let stop = now () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; name; start; stop; parent; req } :: t.closed
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let spans t =
  let a = Array.of_list t.closed in
  Array.sort (fun x y -> compare x.id y.id) a;
  a

let self_times spans =
  let index = Hashtbl.create (Array.length spans) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt index s.parent with
      | Some p -> children.(p) <- (s.start, s.stop) :: children.(p)
      | None -> ())
    spans;
  Array.mapi
    (fun i s ->
      let clipped =
        List.filter_map
          (fun (a, b) ->
            let a = Float.max a s.start and b = Float.min b s.stop in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      (* union length of the sorted intervals *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            if b <= reach then (acc, reach)
            else (acc +. (b -. Float.max a reach), b))
          (0., neg_infinity) clipped
      in
      s.stop -. s.start -. covered)
    spans

let self_by_name spans =
  let self = self_times spans in
  let groups = Hashtbl.create 32 and order = ref [] in
  Array.iteri
    (fun i s ->
      match Hashtbl.find_opt groups s.name with
      | Some l -> Hashtbl.replace groups s.name (self.(i) :: l)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace groups s.name [ self.(i) ])
    spans;
  List.rev_map (fun name -> (name, List.rev (Hashtbl.find groups name))) !order

let write_chrome path spans =
  let origin = Array.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc {|{"displayTimeUnit":"ms","traceEvents":[|};
      Array.iteri
        (fun i s ->
          if i > 0 then output_char oc ',';
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("name", Json.Str s.name);
                    ("cat", Json.Str (List.hd (String.split_on_char '.' s.name)));
                    ("ph", Json.Str "X");
                    ("ts", Json.Num ((s.start -. origin) *. 1e6));
                    ("dur", Json.Num ((s.stop -. s.start) *. 1e6));
                    ("pid", Json.Num 1.);
                    ("tid", Json.Num 1.);
                    ( "args",
                      Json.Obj
                        [
                          ("id", Json.Num (float_of_int s.id));
                          ("parent", Json.Num (float_of_int s.parent));
                          ("req", Json.Num (float_of_int s.req));
                        ] );
                  ])))
        spans;
      output_string oc "]}\n")

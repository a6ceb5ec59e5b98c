type fsync = Always | Interval of float | Never

let fsync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval s -> Printf.sprintf "interval:%g" s

let fsync_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.05)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
      let arg = String.sub s 9 (String.length s - 9) in
      match float_of_string_opt arg with
      | Some f when f > 0. -> Ok (Interval f)
      | _ -> Error (Printf.sprintf "bad fsync interval %S" arg))
  | other ->
      Error
        (Printf.sprintf
           "unknown fsync policy %S (want always, never, interval[:seconds])"
           other)

type event =
  | Open of { label : string; header : string list }
  | Ingest of { label : string; row : string list }
  | Order of { label : string; attr : string; lo : int; hi : int }
  | Close of string

type record = { seq : int option; event : event }

(* Rows and headers cross this boundary as CSV so that values containing
   '|' or '@' survive; [Csv.to_string] ends every row with '\n', which we
   strip exactly (String.trim would also eat significant trailing spaces
   inside the last value). *)
let csv_cell fields =
  let s = Csv.to_string [ fields ] in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let record_to_line { seq; event } =
  let prefix = match seq with None -> "" | Some n -> Printf.sprintf "@%d " n in
  let body =
    match event with
    | Open { label; header } -> Printf.sprintf "O %s|%s" label (csv_cell header)
    | Ingest { label; row } -> Printf.sprintf "I %s|%s" label (csv_cell row)
    | Order { label; attr; lo; hi } ->
        Printf.sprintf "R %s|%s|%d|%d" label attr lo hi
    | Close label -> Printf.sprintf "C %s" label
  in
  prefix ^ body

let split_fields s = String.split_on_char '|' s

let parse_csv_cell cell =
  match Csv.parse_string cell with
  | [ fields ] -> Ok fields
  | [] -> Ok [] (* a lone "" row is filtered by the parser *)
  | _ -> Error "multi-row CSV cell"

let record_of_line line =
  let ( let* ) = Result.bind in
  let* seq, rest =
    if String.length line > 0 && line.[0] = '@' then
      match String.index_opt line ' ' with
      | None -> Error "bad seq prefix: no space"
      | Some sp -> (
          let num = String.sub line 1 (sp - 1) in
          match int_of_string_opt num with
          | Some n when n >= 0 ->
              Ok (Some n, String.sub line (sp + 1) (String.length line - sp - 1))
          | _ -> Error (Printf.sprintf "bad seq %S" num))
    else Ok (None, line)
  in
  let* tag, body =
    if String.length rest >= 2 && rest.[1] = ' ' then
      Ok (rest.[0], String.sub rest 2 (String.length rest - 2))
    else Error (Printf.sprintf "bad record line %S" rest)
  in
  (* O/I bodies are [label|csv] where the CSV cell may itself contain
     '|' (CSV only quotes commas/quotes/newlines) — split at the first
     '|' only; labels cannot contain one. *)
  let* label_csv =
    match tag with
    | 'O' | 'I' -> (
        match String.index_opt body '|' with
        | Some i ->
            Ok
              (Some
                 ( String.sub body 0 i,
                   String.sub body (i + 1) (String.length body - i - 1) ))
        | None -> Error (Printf.sprintf "bad record line %S" rest))
    | _ -> Ok None
  in
  let* event =
    match (tag, label_csv, split_fields body) with
    | 'O', Some (label, csv), _ ->
        let* header = parse_csv_cell csv in
        Ok (Open { label; header })
    | 'I', Some (label, csv), _ ->
        let* row = parse_csv_cell csv in
        Ok (Ingest { label; row })
    | 'R', _, [ label; attr; lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi -> Ok (Order { label; attr; lo; hi })
        | _ -> Error "bad order bounds")
    | 'C', _, [ label ] -> Ok (Close label)
    | _ -> Error (Printf.sprintf "bad record tag/arity in %S" rest)
  in
  Ok { seq; event }

(* ---------------------------------------------------------------- files *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let indexed_files ~dir ~prefix ~suffix =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let plen = String.length prefix and slen = String.length suffix in
  Array.to_list entries
  |> List.filter_map (fun name ->
         let n = String.length name in
         if
           n = plen + 8 + slen
           && String.sub name 0 plen = prefix
           && String.sub name (n - slen) slen = suffix
         then
           match int_of_string_opt (String.sub name plen 8) with
           | Some idx -> Some (idx, Filename.concat dir name)
           | None -> None
         else None)
  |> List.sort compare

let seg_prefix = "wal-"
let seg_suffix = ".log"
let snap_prefix = "snap-"
let snap_suffix = ".snap"
let seg_path dir idx = Filename.concat dir (Printf.sprintf "wal-%08d.log" idx)

let segments ~dir =
  List.map fst (indexed_files ~dir ~prefix:seg_prefix ~suffix:seg_suffix)

(* A fresh writer must start past every file a previous life produced:
   past the segments (obviously) and past the snapshots too, so that a
   snapshot's "covers segments <= k" claim can never be confused by a new
   segment reusing index k. *)
let next_index dir =
  let top files = List.fold_left (fun acc (i, _) -> max acc i) 0 files in
  1
  + max
      (top (indexed_files ~dir ~prefix:seg_prefix ~suffix:seg_suffix))
      (top (indexed_files ~dir ~prefix:snap_prefix ~suffix:snap_suffix))

(* ---------------------------------------------------------------- write *)

type writer = {
  dir : string;
  fsync : fsync;
  segment_bytes : int;
  m : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable seg : int;
  mutable seg_size : int;
  mutable appended : int;
  mutable synced : int;  (* [appended] as of the last completed fsync *)
  mutable syncing : bool;  (* an interval fsync is running outside [m] *)
  mutable last_sync : float;
}

let locked w f =
  Mutex.lock w.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.m) f

let open_seg dir idx =
  Unix.openfile (seg_path dir idx) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

let open_writer ?(fsync = Interval 0.05) ?(segment_bytes = 8 * 1024 * 1024) ~dir () =
  mkdir_p dir;
  let seg = next_index dir in
  {
    dir;
    fsync;
    segment_bytes;
    m = Mutex.create ();
    fd = open_seg dir seg;
    seg;
    seg_size = 0;
    appended = 0;
    synced = 0;
    syncing = false;
    last_sync = Clock.now_s ();
  }

let sync_locked w =
  if w.appended > w.synced then Unix.fsync w.fd;
  w.synced <- w.appended;
  w.last_sync <- Clock.now_s ()

let rotate_locked w =
  sync_locked w;
  Unix.close w.fd;
  let closed = w.seg in
  w.seg <- w.seg + 1;
  w.seg_size <- 0;
  w.fd <- open_seg w.dir w.seg;
  closed

let append w record =
  let line = record_to_line record in
  locked w (fun () ->
      if w.seg_size >= w.segment_bytes then ignore (rotate_locked w);
      w.seg_size <- w.seg_size + Frame.write w.fd line;
      w.appended <- w.appended + 1;
      match w.fsync with
      | Always -> sync_locked w
      | Interval _ | Never -> ())

let flush w = locked w (fun () -> sync_locked w)

(* The interval fsync runs on a duplicate of the segment's descriptor
   with [m] released: appends go on while the disk syncs instead of
   queueing behind it for the whole fsync. It covers every record
   appended before the [dup]; a rotation meanwhile has synced the old
   segment itself, and the duplicate keeps the closed file valid. *)
let maybe_flush w =
  match w.fsync with
  | Always | Never -> ()
  | Interval s -> (
      let due =
        locked w (fun () ->
            if
              (not w.syncing) && w.appended > w.synced && Clock.now_s () -. w.last_sync >= s
            then begin
              let fd = Unix.dup ~cloexec:true w.fd in
              w.syncing <- true;
              Some (fd, w.appended)
            end
            else None)
      in
      match due with
      | None -> ()
      | Some (fd, upto) ->
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              locked w (fun () -> w.syncing <- false))
            (fun () ->
              Unix.fsync fd;
              locked w (fun () ->
                  w.synced <- max w.synced upto;
                  w.last_sync <- Clock.now_s ())))

let rotate w = locked w (fun () -> rotate_locked w)
let current_segment w = locked w (fun () -> w.seg)
let appended w = locked w (fun () -> w.appended)
let unsynced w = locked w (fun () -> w.appended - w.synced)

let last_sync_age w =
  locked w (fun () ->
      if w.appended = 0 then 0. else Clock.now_s () -. w.last_sync)

let close_writer w =
  locked w (fun () ->
      sync_locked w;
      Unix.close w.fd)

(* ----------------------------------------------------------------- read *)

type replay = {
  records : int;
  segments : int;
  torn : bool;
  truncated_bytes : int;
}

let truncate_file path keep =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd keep;
      Unix.fsync fd)

let replay ~dir ?(above = 0) ?(repair = true) f =
  let files =
    indexed_files ~dir ~prefix:seg_prefix ~suffix:seg_suffix
    |> List.filter (fun (i, _) -> i > above)
  in
  let records = ref 0 and visited = ref 0 in
  let torn = ref false and truncated = ref 0 in
  (* Everything past the first bad record — including whole later
     segments — is the torn tail: records are appended in order, so a
     valid record can never follow an invalid one in a single history. *)
  (try
     List.iter
       (fun (_, path) ->
         incr visited;
         let scan = Frame.read_file path in
         List.iter
           (fun payload ->
             match record_of_line payload with
             | Ok r ->
                 f r;
                 incr records
             | Error _ ->
                 torn := true;
                 raise Exit)
           scan.Frame.payloads;
         if scan.Frame.torn then begin
           torn := true;
           let size = (Unix.stat path).Unix.st_size in
           truncated := !truncated + (size - scan.Frame.valid_bytes);
           if repair then truncate_file path scan.Frame.valid_bytes;
           raise Exit
         end)
       files
   with Exit -> ());
  { records = !records; segments = !visited; torn = !torn; truncated_bytes = !truncated }

let remove_upto ~dir k =
  let victims =
    indexed_files ~dir ~prefix:seg_prefix ~suffix:seg_suffix
    |> List.filter (fun (i, _) -> i <= k)
  in
  List.iter (fun (_, path) -> try Sys.remove path with Sys_error _ -> ()) victims;
  List.length victims

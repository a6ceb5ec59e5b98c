type conn = { fd : Unix.file_descr; pending : Buffer.t }

type t = {
  socket_path : string;
  retries : int;
  base_ms : float;
  deadline : float option;
  mutable conn : conn option;
  mutable retries_used : int;
  rng : Random.State.t;
}

let connect ?(retries = 4) ?(retry_base_ms = 50.) ?deadline ~socket_path () =
  (* writing to a daemon that crashed under us must surface as EPIPE —
     which the retry loop absorbs — not kill the calling process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    socket_path;
    retries = max 0 retries;
    base_ms = Float.max 0. retry_base_ms;
    deadline;
    conn = None;
    retries_used = 0;
    rng = Random.State.make_self_init ();
  }

let retries_used t = t.retries_used

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let close t =
  Option.iter close_conn t.conn;
  t.conn <- None

let backoff t attempt =
  t.retries_used <- t.retries_used + 1;
  let jitter = 0.5 +. Random.State.float t.rng 1.0 in
  let ms = Float.min 5000. (t.base_ms *. (2. ** float_of_int attempt) *. jitter) in
  if ms > 0. then Thread.delay (ms /. 1000.)

(* Failures worth another attempt: the daemon is down/restarting, the
   connection died under us, or the kernel queue is full. *)
let retryable_unix = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EPIPE
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR ->
      true
  | _ -> false

let ensure_conn t =
  match t.conn with
  | Some c -> c
  | None ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      let c = { fd; pending = Buffer.create 256 } in
      t.conn <- Some c;
      c

let write_all fd s =
  let b = Bytes.of_string s in
  let total = Bytes.length b in
  let off = ref 0 in
  while !off < total do
    off := !off + Unix.write fd b !off (total - !off)
  done

exception Deadline

(* Read one response line, bounded by the per-request deadline. *)
let read_line c ~until =
  let rec go () =
    let s = Buffer.contents c.pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear c.pending;
        Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None ->
        let timeout =
          match until with
          | None -> -1. (* block *)
          | Some u ->
              let left = u -. Clock.now_s () in
              if left <= 0. then raise Deadline else left
        in
        (match Unix.select [ c.fd ] [] [] timeout with
        | [], _, _ -> raise Deadline
        | _ -> (
            let b = Bytes.create 4096 in
            match Unix.read c.fd b 0 4096 with
            | 0 -> raise End_of_file
            | n -> Buffer.add_subbytes c.pending b 0 n));
        go ()
  in
  go ()

let request t line =
  let attempts = t.retries + 1 in
  let rec go attempt last_error =
    if attempt >= attempts then
      Error
        (Printf.sprintf "request failed after %d attempt(s): %s" attempts last_error)
    else begin
      if attempt > 0 then backoff t (attempt - 1);
      let outcome =
        match
          let c = ensure_conn t in
          let until =
            Option.map (fun d -> Clock.now_s () +. d) t.deadline
          in
          write_all c.fd (line ^ "\n");
          read_line c ~until
        with
        | response ->
            if Protocol.is_overloaded response then begin
              (* the daemon is shedding; the connection itself is fine *)
              `Retry "daemon overloaded"
            end
            else `Done response
        | exception Unix.Unix_error (e, _, _) when retryable_unix e ->
            close t;
            `Retry (Unix.error_message e)
        | exception (End_of_file | Sys_error _) ->
            close t;
            `Retry "connection closed by daemon"
        | exception Deadline ->
            (* the request may still be executing server-side: drop the
               connection so a stale reply cannot pair with the retry *)
            close t;
            `Retry
              (Printf.sprintf "deadline (%gs) expired"
                 (Option.value ~default:0. t.deadline))
        | exception Unix.Unix_error (e, _, _) ->
            close t;
            raise (Failure ("client: " ^ Unix.error_message e))
      in
      match outcome with
      | `Done response -> Ok response
      | `Retry why -> go (attempt + 1) why
    end
  in
  go 0 "no attempt made"

let request_many t lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match request t line with
        | Ok r -> go (r :: acc) rest
        | Error msg -> Error (List.rev acc, msg))
  in
  go [] lines

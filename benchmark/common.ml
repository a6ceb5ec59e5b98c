(* Process, file and result plumbing shared by the workloads. Every path
   is relative to the directory crbench runs in: it reads and writes only
   under [work_root]. *)

let work_root = ".crbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let counter = ref 0

(* a fresh, empty path under the work directory; short, because Unix
   socket paths are limited to about 100 bytes *)
let fresh name =
  incr counter;
  mkdir_p work_root;
  let p =
    Filename.concat work_root (Printf.sprintf "%d-%d-%s" (Unix.getpid ()) !counter name)
  in
  rm_rf p;
  p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_lines path lines =
  write_file path (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let read_lines path = List.filter (( <> ) "") (String.split_on_char '\n' (read_file path))

let log fmt = Printf.kfprintf (fun oc -> flush oc) stderr fmt

(* Peak resident set size (VmHWM) of a live process, MiB. *)
let vmhwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  (* procfs files report length 0: read to end of file *)
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match
        List.find_opt (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' text)
      with
      | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | None -> nan)
  | exception Sys_error _ -> nan

(* {1 Child processes}

   Every process crbench starts is registered until it is reaped, so an
   exit on any path kills and waits for whatever is still running. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  Hashtbl.remove live pid

let kill_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  List.iter reap (List.of_seq (Hashtbl.to_seq_keys live))

let () = at_exit kill_all

(* child stdout goes to our stderr: our stdout carries only the report *)
let spawn prog args ~out =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out out in
  Hashtbl.replace live pid ();
  pid

let self_exe =
  lazy
    (let e = Sys.executable_name in
     if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e)

(* Run [crbench worker ARGS] to completion; [Failure] on a non-zero exit. *)
let run_worker args =
  let pid = spawn (Lazy.force self_exe) ("worker" :: args) ~out:Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  Hashtbl.remove live pid;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "worker %s exited %d" (String.concat " " args) c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      failwith (Printf.sprintf "worker %s killed by signal %d" (String.concat " " args) s)

(* {1 Results} *)

type metric = {
  name : string;
  unit : string;
  value : float;  (** the reported number *)
  per_pass : float list;  (** one value per pass or sample, in run order *)
  n : int;  (** samples behind [value] *)
}

type outcome = {
  metrics : metric list;
  passes : int;  (** timed passes (traced runs: untraced/traced pairs) *)
  attempted : int;
  failed : int;
  mismatches : int;  (** outputs that differ from the reference path *)
}

let metric ?(per_pass = []) ?n name unit value =
  let n = match n with Some n -> n | None -> max 1 (List.length per_pass) in
  { name; unit; value; per_pass; n }

let nums l = Json.Arr (List.map (fun f -> Json.Num f) l)

let metric_to_json m =
  let q1, q3 =
    match m.per_pass with
    | [] -> (m.value, m.value)
    | l ->
        let q1, _, q3 = Stats.quartiles l in
        (q1, q3)
  in
  Json.Obj
    [
      ("name", Json.Str m.name);
      ("unit", Json.Str m.unit);
      ("value", Json.Num m.value);
      ("n", Json.Num (float_of_int m.n));
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("per_pass", nums m.per_pass);
    ]

let metric_of_json j =
  {
    name = Json.to_str (Json.member "name" j);
    unit = Json.to_str (Json.member "unit" j);
    value = (match Json.member "value" j with Json.Num f -> f | _ -> nan);
    per_pass = List.map Json.to_float (Json.to_list (Json.member "per_pass" j));
    n = int_of_float (Json.to_float (Json.member "n" j));
  }

let outcome_to_json o =
  Json.Obj
    [
      ("passes", Json.Num (float_of_int o.passes));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("mismatches", Json.Num (float_of_int o.mismatches));
      ("metrics", Json.Arr (List.map metric_to_json o.metrics));
    ]

let outcome_of_json j =
  let int k = int_of_float (Json.to_float (Json.member k j)) in
  {
    passes = int "passes";
    attempted = int "attempted";
    failed = int "failed";
    mismatches = int "mismatches";
    metrics = List.map metric_of_json (Json.to_list (Json.member "metrics" j));
  }

let write_outcome path o = write_file path (Json.to_string (outcome_to_json o))

let read_outcome path =
  match Json.of_string (read_file path) with
  | Ok j -> outcome_of_json j
  | Error m -> failwith (Printf.sprintf "%s: %s" path m)

let merge a b =
  {
    metrics = a.metrics @ b.metrics;
    passes = max a.passes b.passes;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    mismatches = a.mismatches + b.mismatches;
  }

let empty = { metrics = []; passes = 0; attempted = 0; failed = 0; mismatches = 0 }

(* {1 Latency summaries} *)

let ms l = List.map (fun s -> s *. 1000.) l

(* [latency name unit samples]: the median, plus the highest percentile
   that keeps ten samples above it, named [<name>_p50] / [<name>_p99] /
   [<name>_p90]. *)
let latency name unit samples =
  match samples with
  | [] -> []
  | _ ->
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let p50 = metric ~n (name ^ "_p50") unit (Stats.percentile sorted 0.5) in
      match Stats.tail_percentile n with
      | None -> [ p50 ]
      | Some p ->
          [
            p50;
            metric ~n
              (Printf.sprintf "%s_p%.0f" name (p *. 100.))
              unit (Stats.percentile sorted p);
          ]

(* Timed passes: at least [min_passes], then more while another pass of
   the mean length so far still ends within [seconds]. *)
let passes ~seconds ~min_passes f =
  let t0 = Trace.now () in
  let rec go k acc =
    let elapsed = Trace.now () -. t0 in
    let mean = if k = 0 then 0. else elapsed /. float_of_int k in
    if k >= min_passes && elapsed +. mean > seconds then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

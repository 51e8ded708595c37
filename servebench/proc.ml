(* Serving processes: spawn [dpsyn serve] as a user runs it, talk to its
   socket, read its CPU time and peak RSS from /proc, and stop it. *)

module Json = Dp_server.Json

type conn = { fd : Unix.file_descr; reader : Dp_server.Lineio.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; reader = Dp_server.Lineio.create fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request line out, one raw response line back. *)
let rpc_line c line =
  match Dp_server.Lineio.write_line c.fd line with
  | Error d -> Error (Dp_diag.Diag.to_string d)
  | Ok () -> (
    match Dp_server.Lineio.read_line ~deadline:(Unix.gettimeofday () +. 120.0) c.reader with
    | Dp_server.Lineio.Line l -> Ok l
    | Dp_server.Lineio.Eof -> Error "connection closed"
    | Dp_server.Lineio.Truncated _ -> Error "response truncated or timed out")

let rpc_json c json =
  match rpc_line c (Json.to_string json) with
  | Error _ as e -> e
  | Ok l -> Json.of_string l

let op name = Json.Obj [ ("op", Json.Str name) ]

(* Is this response line a success envelope? *)
let answered_ok line =
  match Json.of_string line with
  | Ok j -> Json.member "ok" j = Some (Json.Bool true)
  | Error _ -> false

let once socket json =
  match connect socket with
  | None -> Error ("cannot connect to " ^ socket)
  | Some c -> Fun.protect ~finally:(fun () -> close c) (fun () -> rpc_json c json)

(* ------------------------------------------------------------------ *)
(* /proc readers *)

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let buf = Buffer.create 1024 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    Some (Buffer.contents buf)
  | exception Sys_error _ -> None

(* /proc reports utime/stime in USER_HZ ticks, which Linux fixes at 100
   per second for userspace. *)
let ticks_per_s = 100.0

(* The fields of /proc/PID/stat after the parenthesised command name,
   starting with field 3 (the process state). *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> []
  | Some s ->
    let i = String.rindex s ')' + 2 in
    String.split_on_char ' ' (String.sub s i (String.length s - i))

let state pid =
  match stat_fields pid with st :: _ when st <> "" -> Some st.[0] | _ -> None

(* User+system CPU seconds of one process (all its threads). *)
let cpu_s pid =
  match stat_fields pid with
  | fields when List.length fields > 12 ->
    (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12))
    /. ticks_per_s
  | _ -> 0.0

(* A size from /proc/PID/status, in MiB: [VmHWM] is the peak resident
   set, [VmRSS] the current one. *)
let status_mb field pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ f; v ] when f = field -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)

(* Host CPU ticks from the first line of /proc/stat: (busy, steal), where
   busy counts user, nice, system, irq and softirq time of every CPU, and
   steal the time the hypervisor ran something else while a CPU of this
   machine was runnable. *)
let host_ticks () =
  match read_file "/proc/stat" with
  | None -> (0.0, 0.0)
  | Some s -> (
    match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) |> List.filter (( <> ) "") with
    | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
      let f = float_of_string in
      (f user +. f nice +. f system +. f irq +. f softirq, f steal)
    | _ -> (0.0, 0.0))

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | a :: b :: c :: _ -> Json.List (List.map (fun x -> Json.Float (float_of_string x)) [ a; b; c ])
    | _ -> Json.Null)
  | None -> Json.Null

(* ------------------------------------------------------------------ *)
(* Topologies *)

type topology =
  | Single of { workers : int; capacity : int }
  | Sharded of { shards : int; capacity : int }

type server = {
  pid : int;
  socket : string;
  shard_sockets : string list;  (** empty for a single-process server *)
  dir : string;
}

(* Every server this process started and has not stopped yet. *)
let live : int list ref = ref []

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let wait_exit pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    if not (alive pid) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      loop ()
    end
  in
  loop ()

let kill_hard pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit pid ~timeout_s:10.0)

(* Stop every server still running; the benchmark calls this on every
   way out, signals included. *)
let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      if not (wait_exit pid ~timeout_s:10.0) then kill_hard pid)
    !live;
  live := []

let wait_ready socket ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    match once socket (op "ping") with
    | Ok _ -> true
    | Error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      loop ()
    | Error _ -> false
  in
  loop ()

(* [start ~dpsyn ~dir topology] runs [dpsyn serve] with its socket, disk
   store (and, sharded, its journal) under [dir], and waits until it
   answers a ping. *)
let start ~dpsyn ~dir topology =
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s" in
  let store = Filename.concat dir "store" in
  let args, shard_sockets =
    match topology with
    | Single { workers; capacity } ->
      ([ "--workers"; string_of_int workers; "--cache-capacity"; string_of_int capacity ], [])
    | Sharded { shards; capacity } ->
      ( [
          "--shards"; string_of_int shards;
          "--journal"; Filename.concat dir "journal";
          "--cache-capacity"; string_of_int capacity;
        ],
        List.init shards (fun i -> socket ^ "." ^ string_of_int i) )
  in
  let argv =
    Array.of_list
      ([ dpsyn; "serve"; "--socket"; socket; "--cache-dir"; store ] @ args)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid = Unix.create_process dpsyn argv null null log in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  if not (wait_ready socket ~timeout_s:60.0) then
    failwith (Printf.sprintf "dpsyn serve did not answer on %s within 60 s" socket);
  { pid; socket; shard_sockets; dir }

let stats s =
  match once s.socket (op "stats") with
  | Ok j -> Option.value ~default:Json.Null (Json.member "stats" j)
  | Error _ -> Json.Null

(* The router reports its shards' pids in [stats]. *)
let pids s =
  let shard_pids =
    match
      Option.bind (Json.member "shard_pool" (stats s)) (Json.member "detail")
      |> Fun.flip Option.bind Json.to_list
    with
    | None -> []
    | Some l -> List.filter_map (fun d -> Option.bind (Json.member "pid" d) Json.to_int) l
  in
  s.pid :: shard_pids

let stop s =
  let shard_pids = List.tl (pids s) in
  ignore (once s.socket (op "shutdown"));
  if not (wait_exit s.pid ~timeout_s:30.0) then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit s.pid ~timeout_s:10.0) then kill_hard s.pid
  end;
  live := List.filter (( <> ) s.pid) !live;
  (* The router stops its own shards; make sure none outlives it. *)
  List.iter
    (fun pid -> if state pid <> None && state pid <> Some 'Z' then kill_hard pid)
    shard_pids

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

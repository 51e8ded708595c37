(* One timed run of one workload: set the topology up (several times, for
   a steady set-up figure), drive it closed-loop in whole rounds until the
   run's seconds are spent, then check the outputs outside the timed
   window. *)

module Json = Dp_server.Json
module Protocol = Dp_server.Protocol

let now = Unix.gettimeofday
let tech = Dp_tech.Tech.lcb_like

type sample = { req : Mix.req; ms : float; resp : (string, string) result }

(* Consecutive requests between two readings of the host's speed: their
   wall time and the serving processes' CPU seconds. *)
type chunk = { samples : sample list; dt : float; cpu : float }

(* ------------------------------------------------------------------ *)
(* Closed-loop load *)

type conn = { socket : string; mutable c : Proc.conn option }

let open_conns socket n = List.init n (fun _ -> { socket; c = Proc.connect socket })

let close_conns = List.iter (fun k -> Option.iter Proc.close k.c)

let send k line =
  match k.c with
  | None ->
    k.c <- Proc.connect k.socket;
    Error "not connected"
  | Some c -> (
    match Proc.rpc_line c line with
    | Ok _ as ok -> ok
    | Error _ as e ->
      Proc.close c;
      k.c <- Proc.connect k.socket;
      e)

(* Each connection sends the round's next unsent request as soon as its
   previous one is answered. *)
let run_round conns (reqs : Mix.req list) =
  let a = Array.of_list reqs in
  let out = Array.make (Array.length a) None in
  let next = Atomic.make 0 in
  let worker k () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length a then begin
        let t0 = now () in
        let resp = send k a.(i).line in
        out.(i) <- Some { req = a.(i); ms = (now () -. t0) *. 1000.0; resp };
        loop ()
      end
    in
    loop ()
  in
  (match conns with
  | [ k ] -> worker k ()
  | ks -> List.iter Thread.join (List.map (fun k -> Thread.create (worker k) ()) ks));
  Array.to_list (Array.map Option.get out)

(* ------------------------------------------------------------------ *)
(* Responses *)

let parse line = Result.to_option (Json.of_string line)

let is_ok = function Ok line -> Proc.answered_ok line | Error _ -> false

let result_member line = Option.bind (parse line) (Json.member "result")

let number path j =
  let rec go j = function
    | [] -> (
      match j with Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None)
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  go j path

(* The raw bytes of the result record: everything from its key on. *)
let result_bytes line =
  let key = "\"result\":" in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = key then Some (String.sub line i (String.length line - i))
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile. *)
let percentile a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = Trace.median l

let geomean l =
  exp (List.fold_left (fun s x -> s +. log x) 0.0 l /. float_of_int (List.length l))

(* ------------------------------------------------------------------ *)
(* Correctness *)

let vectors rng (r : Mix.req) =
  let vars = Dp_expr.Env.bindings (Result.get_ok (Protocol.env_of_params r.params)) in
  let fill f = List.map (fun (n, (v : Dp_expr.Env.var_info)) -> (n, f v.width)) vars in
  let mask w = if w >= 62 then max_int else (1 lsl w) - 1 in
  fill (fun _ -> 0)
  :: fill mask
  :: List.init 16 (fun _ ->
         fill (fun w ->
             let b () = Random.State.bits rng in
             (b () lor (b () lsl 30) lor (b () lsl 60)) land mask w))

(* The served MD5 against an in-process synthesis of the same request,
   and that netlist against the benchmark's own evaluator. *)
let check_request rng (r : Mix.req) served =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := (r.design ^ ": " ^ m) :: !errors) fmt in
  (match Result.bind (Protocol.serve_request ~tech r.params) (fun sr -> Dp_cache.Serve.run sr) with
  | Error d -> err "in-process synthesis failed: %s" (Dp_diag.Diag.to_string d)
  | Ok o ->
    let md5 = Digest.to_hex (Digest.string o.verilog) in
    (match Option.bind (result_member served) (Json.member "verilog_md5") with
    | Some (Json.Str s) when s = md5 -> ()
    | _ -> err "served verilog_md5 differs from in-process synthesis %s" md5);
    let expr = Eval.parse r.text in
    List.iter
      (fun v ->
        let value x = List.assoc x v in
        let got = Dp_sim.Simulator.eval_output o.result.netlist ~assign:value "out" in
        let want = Eval.eval ~width:r.width ~value expr in
        if got <> want then
          err "netlist gives %d, expression %d, on %s" got want
            (String.concat "," (List.map (fun (n, x) -> Printf.sprintf "%s=%d" n x) v)))
      (vectors rng r));
  !errors

let sample_of rng n l =
  if n >= List.length l then l
  else List.filteri (fun i _ -> i < n) (Mix.shuffle rng l)

(* ------------------------------------------------------------------ *)
(* Set-up *)

let send_all_ok socket (reqs : Mix.req list) =
  let conns = open_conns socket 1 in
  Fun.protect ~finally:(fun () -> close_conns conns) @@ fun () ->
  List.iter
    (fun s -> if not (is_ok s.resp) then failwith ("set-up request failed on " ^ socket))
    (run_round conns reqs)

(* Spawn, warm one request per strategy into every serving process (the
   first use of a strategy pays its one-time costs here, not in the
   timed window), and for mixed-warm store the working set. *)
let setup ~dpsyn ~dir w ~smoke ~fill =
  let t0 = now () in
  let srv = Proc.start ~dpsyn ~dir (Mix.topology ~smoke w) in
  let targets = match srv.shard_sockets with [] -> [ srv.socket ] | l -> l in
  List.iter (fun s -> send_all_ok s (Mix.warmups w)) targets;
  let filled =
    match fill with
    | [] -> []
    | reqs ->
      let conns = open_conns srv.socket (Mix.connections w) in
      Fun.protect ~finally:(fun () -> close_conns conns) (fun () -> run_round conns reqs)
  in
  if not (List.for_all (fun s -> is_ok s.resp) filled) then
    failwith "a working-set request failed during set-up";
  (srv, now () -. t0, filled)

(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  context : (string * Json.t) list;
}

let cache_counts stats =
  let n k = Option.value ~default:0.0 (number [ "cache"; k ] stats) in
  (n "hits", n "disk_hits", n "misses")

let run ~dpsyn ~smoke ~seed ~seconds (w : Mix.workload) =
  let rng = Random.State.make [| seed; 77 |] in
  let catalog_set, heavy_set =
    if w <> Mix.Mixed_warm then ([], [])
    else
      let cat, heavy = Mix.working_set ~seed in
      if smoke then (sample_of rng 10 cat, [ List.hd heavy ]) else (cat, heavy)
  in
  let fill = Mix.shuffle rng (catalog_set @ heavy_set) in
  let round r =
    match w with
    | Mix.Paper_fresh | Mix.Crypto_fresh ->
      if smoke then Mix.smoke_round w ~seed ~round:r else Mix.fresh_round w ~seed ~round:r
    | Mix.Mixed_warm ->
      if smoke then Mix.shuffle rng (fill @ Mix.smoke_round w ~seed ~round:r)
      else Mix.warm_round ~seed ~round:r ~catalog_set ~heavy_set
  in
  Host.start ~streams:(Mix.connections w);
  (* Set up several times; the last topology serves the timed window. *)
  let setups = if smoke then 1 else match w with Mix.Mixed_warm -> 3 | _ -> 9 in
  (* The host's speed is read three times before the first set-up and
     after each. *)
  let setup_readings = ref [] in
  let read_setup () = setup_readings := List.init 3 (fun _ -> Host.sample ()) @ !setup_readings in
  read_setup ();
  let setup_host0 = Proc.host_ticks () in
  let rec set_up k acc =
    let dir = Printf.sprintf "setup-%d" k in
    let srv, s, filled = setup ~dpsyn ~dir w ~smoke ~fill in
    read_setup ();
    if k < setups then begin
      Proc.stop srv;
      Proc.remove_tree dir;
      set_up (k + 1) (s :: acc)
    end
    else (srv, s :: acc, filled)
  in
  let srv, setup_samples, filled = set_up 1 [] in
  let setup_host1 = Proc.host_ticks () in
  let conns = open_conns srv.socket (Mix.connections w) in
  let pids = Proc.pids srv in
  let cpu () = List.fold_left (fun s p -> s +. Proc.cpu_s p) 0.0 pids in
  let stats0 = Proc.stats srv in
  let load0 = Proc.loadavg () in
  (* A round runs in chunks, with readings of the host's speed before
     the first and after each, so that the readings cover the window:
     about one every 0.3-0.5 s (crypto-fresh: four every 2.5 s). *)
  let chunk = match w with Mix.Paper_fresh -> 112 | Mix.Crypto_fresh | Mix.Mixed_warm -> max_int in
  let per_chunk = match w with Mix.Crypto_fresh -> 4 | Mix.Paper_fresh | Mix.Mixed_warm -> 1 in
  let rec chunks l =
    if List.length l <= chunk then [ l ]
    else List.filteri (fun i _ -> i < chunk) l :: chunks (List.filteri (fun i _ -> i >= chunk) l)
  in
  let host0 = Proc.host_ticks () in
  let read () = List.init per_chunk (fun _ -> Host.sample ()) in
  let readings = ref (read ()) in
  (* The serving processes' resident set, summed, after every chunk. *)
  let rss = ref [] in
  let run_chunk reqs =
    let cpu0 = cpu () in
    let t0 = now () in
    let samples = run_round conns reqs in
    let dt = now () -. t0 in
    let c = { samples; dt; cpu = cpu () -. cpu0 } in
    rss := List.fold_left (fun m p -> m +. Proc.status_mb "VmRSS" p) 0.0 pids :: !rss;
    readings := read () @ !readings;
    c
  in
  let rec drive r elapsed acc =
    if (smoke && r = 1) || ((not smoke) && elapsed >= seconds) then (r, elapsed, List.rev acc)
    else begin
      let cs = List.map run_chunk (chunks (round r)) in
      drive (r + 1) (List.fold_left (fun e c -> e +. c.dt) elapsed cs) (cs :: acc)
    end
  in
  let rounds, elapsed, timed = drive 0 0.0 [] in
  let peak_rss = List.fold_left (fun m p -> Float.max m (Proc.status_mb "VmHWM" p)) 0.0 pids in
  let all_chunks = List.concat timed in
  let by_round = List.map (List.concat_map (fun c -> c.samples)) timed in
  let host1 = Proc.host_ticks () in
  (* The timed figures are reported at the reference speed: CPU times
     are scaled by how much faster or slower than nominal the reference
     block ran over the window (set-up: over the set-ups), and wall times
     also by the share of busy time the hypervisor left to this machine,
     which CPU times already leave out. *)
  let steal_share (busy0, stolen0) (busy1, stolen1) =
    let busy = busy1 -. busy0 and stolen = stolen1 -. stolen0 in
    stolen /. Float.max 1.0 (busy +. stolen)
  in
  let steal = steal_share host0 host1 and setup_steal = steal_share setup_host0 setup_host1 in
  let reference_ms = median (List.map fst !readings) and reference_cpu_ms = median (List.map snd !readings) in
  let setup_reference_cpu_ms = median (List.map snd !setup_readings) in
  let cpu_scale = Host.nominal_cpu_ms /. reference_cpu_ms in
  let scale = (1.0 -. steal) *. cpu_scale in
  let setup_scale = (1.0 -. setup_steal) *. Host.nominal_cpu_ms /. setup_reference_cpu_ms in
  let stats1 = Proc.stats srv in
  let load1 = Proc.loadavg () in
  close_conns conns;
  (* A request answered twice in a row: the second answer is a memory hit. *)
  let repeated =
    match w with
    | Mix.Mixed_warm ->
      let conns = open_conns srv.socket 1 in
      let again = run_round conns (List.concat_map (fun (r : Mix.req) -> [ r; r ]) (sample_of rng 3 catalog_set)) in
      close_conns conns;
      again
    | _ -> []
  in
  Proc.stop srv;
  Proc.remove_tree srv.dir;
  Host.stop ();
  let samples = List.concat by_round in
  let attempted = List.length samples in
  let good = List.filter (fun s -> is_ok s.resp) samples in
  let failed = attempted - List.length good in
  (* Latency percentiles are medians over windows of whole rounds holding
     at least 100 requests each, so that p90 has ten samples beyond it in
     every window and a burst of outside load moves one window only. *)
  let windows =
    let rec group acc cur = function
      | [] -> (acc, cur)
      | r :: rest ->
        let cur = cur @ r in
        if List.length cur >= 100 then group (cur :: acc) [] rest else group acc cur rest
    in
    match group [] [] by_round with
    | [], cur -> [ cur ]
    | ws, [] -> List.rev ws
    | w :: ws, tail -> List.rev ((w @ tail) :: ws) (* a short tail joins the last window *)
  in
  let latency ?(scale = scale) q =
    median
      (List.filter_map
         (fun win ->
           match sorted (List.filter_map (fun s -> if is_ok s.resp then Some (s.ms *. scale) else None) win) with
           | [||] -> None
           | a -> Some (percentile a q))
         windows)
  in
  (* ---- checks, outside the timed window ---- *)
  let errors = ref [] in
  let line_of s = match s.resp with Ok l -> l | Error e -> e in
  (* The circuit figures and the checks cover the working set, or the
     first rounds' distinct requests: at least 96, so that the figures
     average over several probability profiles. *)
  let distinct =
    match w with
    | Mix.Mixed_warm -> filled
    | _ ->
      let rec first acc = function
        | r :: rest when List.length acc < 96 -> first (acc @ r) rest
        | _ -> acc
      in
      first [] by_round
  in
  let checked =
    match w with
    | Mix.Mixed_warm ->
      let heavy, cat =
        List.partition (fun s -> List.exists (fun (h : Mix.req) -> h.line = s.req.line) heavy_set) filled
      in
      sample_of rng (if smoke then max_int else 16) cat @ sample_of rng 1 heavy
    | _ -> sample_of rng (if smoke then max_int else match w with Mix.Crypto_fresh -> 3 | _ -> 32) distinct
  in
  List.iter
    (fun s -> if is_ok s.resp then errors := check_request rng s.req (line_of s) @ !errors)
    checked;
  (match w with
  | Mix.Mixed_warm ->
    (* Every answer to one request carries the same record bytes, whether
       it was synthesized, a memory hit or a disk read. *)
    let first = Hashtbl.create 512 in
    List.iter
      (fun s ->
        if is_ok s.resp then
          match (Hashtbl.find_opt first s.req.line, result_bytes (line_of s)) with
          | None, Some b -> Hashtbl.replace first s.req.line b
          | Some b0, Some b when b0 <> b ->
            errors := (s.req.design ^ ": record bytes differ between serves") :: !errors
          | _ -> ())
      (filled @ samples @ repeated)
  | _ ->
    List.iter
      (fun s ->
        match Option.bind (parse (line_of s)) (Json.member "cached") with
        | Some (Json.Bool false) | None -> ()
        | Some _ -> errors := (s.req.design ^ ": a fresh request was a cache hit") :: !errors)
      good);
  List.iter prerr_endline (List.rev !errors);
  let circuit path =
    geomean
      (List.filter_map (fun s -> Option.bind (result_member (line_of s)) (number path))
         (List.filter (fun s -> is_ok s.resp) distinct))
  in
  let h0, d0, m0 = cache_counts stats0 and h1, d1, m1 = cache_counts stats1 in
  let completed = float_of_int (List.length good) in
  let ok_count c = float_of_int (List.length (List.filter (fun s -> is_ok s.resp) c.samples)) in
  let throughput ~scale =
    median
      (List.map
         (fun cs ->
           List.fold_left (fun n c -> n +. ok_count c) 0.0 cs
           /. (List.fold_left (fun t c -> t +. c.dt) 0.0 cs *. scale))
         timed)
  in
  let server_cpu ~scale =
    List.fold_left (fun t c -> t +. c.cpu) 0.0 all_chunks *. scale *. 1000.0 /. completed
  in
  {
    correct = !errors = [] && good <> [];
    attempted;
    failed;
    metrics =
      [
        (* The median round, so that a burst of load from outside the
           benchmark during a few rounds does not move the figure. *)
        ("throughput_rps", throughput ~scale);
        ("latency_p50_ms", latency 0.5);
        ("latency_p90_ms", latency 0.9);
        ("server_cpu_ms_per_req", server_cpu ~scale:cpu_scale);
        ("rss_mb", median !rss);
        ("setup_s", median setup_samples *. setup_scale);
        ("circuit_delay_ns", circuit [ "stats"; "delay" ]);
        ("circuit_cells", circuit [ "stats"; "cells" ]);
        ("circuit_switching", circuit [ "total_switching" ]);
      ];
    context =
      [
        ("rounds", Json.Int rounds);
        ("timed_s", Json.Float elapsed);
        ("mean_throughput_rps", Json.Float (completed /. elapsed));
        ("host_steal_share", Json.Float steal);
        ("setup_host_steal_share", Json.Float setup_steal);
        ("latency_samples", Json.Int (List.length good));
        ("latency_windows", Json.Int (List.length windows));
        ("connections", Json.Int (Mix.connections w));
        ("setup_samples_s", Json.List (List.rev_map (fun s -> Json.Float s) setup_samples));
        ( "at_measured_speed",
          Json.Obj
            [
              ("throughput_rps", Json.Float (throughput ~scale:1.0));
              ("latency_p50_ms", Json.Float (latency ~scale:1.0 0.5));
              ("latency_p90_ms", Json.Float (latency ~scale:1.0 0.9));
              ("server_cpu_ms_per_req", Json.Float (server_cpu ~scale:1.0));
              ("setup_s", Json.Float (median setup_samples));
            ] );
        ("peak_rss_mb", Json.Float peak_rss);
        ("reference_ms", Json.Float reference_ms);
        ("reference_cpu_ms", Json.Float reference_cpu_ms);
        ("setup_reference_cpu_ms", Json.Float setup_reference_cpu_ms);
        ("reference_readings", Json.Int (List.length !readings));
        ("distinct_for_circuit", Json.Int (List.length distinct));
        ("checked_requests", Json.Int (List.length checked));
        ("check_errors", Json.Int (List.length !errors));
        ( "cache",
          Json.Obj
            [
              ("hits", Json.Float (h1 -. h0));
              ("disk_hits", Json.Float (d1 -. d0));
              ("misses", Json.Float (m1 -. m0));
            ] );
        ("loadavg_start", load0);
        ("loadavg_end", load1);
      ];
  }

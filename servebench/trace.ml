(* The traced pass: replay a sample of a workload's requests in-process,
   one public entry point at a time, timing each call and counting the
   words it allocates; then time the socket and the router against a
   live sharded topology.

   The replay follows the serving path of [Dp_cache.Serve.run] (key,
   synthesis as in [Dp_flow.Synth.build], strict lint, emission), then
   the store and the response record.  Each replay's Verilog must equal
   what [Serve.run] produces for the same request, so the layer times
   describe the served computation. *)

open Dp_netlist
module Json = Dp_server.Json
module Protocol = Dp_server.Protocol
module Store = Dp_cache.Store
module Strategy = Dp_flow.Strategy

let tech = Dp_tech.Tech.lcb_like
let now = Unix.gettimeofday

(* Words allocated on the minor heap, which OCaml counts exactly; the
   major heap counts its own allocations by the 4096-word pool, which
   would make the figures jitter by several kilowords per call.  Blocks
   over 256 words go straight to the major heap and are not counted. *)
let alloc_words () = Gc.minor_words ()

(* Accumulated per-layer sums over one pass. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) name v =
  Hashtbl.replace acc name (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc name))

(* [timed acc name f] runs [f], adding its milliseconds to [name ^ "_ms"]
   and, with [~alloc], its allocated kilowords to [name ^ "_alloc_kw"]. *)
let timed ?(alloc = false) acc name f =
  let w0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = alloc_words () in
  add acc (name ^ "_ms") ((t1 -. t0) *. 1000.0);
  if alloc then add acc (name ^ "_alloc_kw") ((w1 -. w0) /. 1000.0);
  r

let allocate (strategy : Strategy.t) nl m =
  match strategy with
  | Fa_aot -> Dp_core.Fa_aot.allocate nl m
  | Fa_aot_combined -> Dp_core.Fa_aot.allocate ~tie_break:Dp_core.Sc_t.Prefer_high_q nl m
  | Fa_aot_fa3 -> Dp_core.Fa_aot.allocate ~three_policy:Dp_core.Sc_t.Fa_finish nl m
  | Fa_alp -> Dp_core.Fa_alp.allocate nl m
  | Fa_alp_combined -> Dp_core.Fa_alp.allocate ~tie_break:Dp_core.Sc_lp.Prefer_early nl m
  | Fa_random seed -> Dp_core.Fa_random.allocate ~seed nl m
  | Wallace -> Dp_core.Wallace.allocate nl m
  | Dadda -> Dp_core.Dadda.allocate nl m
  | Column_isolation -> Dp_core.Column_isolation.allocate nl m
  | Sc_t_gpc -> Dp_core.Gpc.allocate_t nl m
  | Sc_lp_gpc -> Dp_core.Gpc.allocate_lp nl m
  | Dadda_gpc -> Dp_core.Gpc.allocate_dadda nl m
  | Conventional | Csa_opt -> invalid_arg "Trace.allocate: not a matrix strategy"

let max_arrival nl (a, b) =
  let row acc r =
    Array.fold_left
      (fun acc -> function None -> acc | Some n -> Float.max acc (Netlist.arrival nl n))
      acc r
  in
  row (row 0.0 a) b

let ok = function Ok v -> v | Error d -> failwith (Dp_diag.Diag.to_string d)

(* One replay of [r] with the store in [dir]; returns the Verilog MD5. *)
let replay acc ~dir (r : Mix.req) =
  let p = r.params in
  ignore (timed acc "expr.parse" (fun () -> Dp_expr.Parse.expr r.text));
  let sr = ok (Protocol.serve_request ~tech p) in
  let key =
    timed acc "cache.key" (fun () ->
        let key =
          Dp_cache.Key.make ~tech ~adder:sr.adder ~lower_config:sr.lower_config
            ~check_level:sr.check_level ?width:sr.width sr.strategy sr.env sr.expr
        in
        ignore (Dp_cache.Key.digest key);
        key)
  in
  let width = key.width in
  let nl = Netlist.create ~tech in
  let lower () =
    let m =
      timed ~alloc:true acc "bitmatrix.lower" (fun () ->
          Dp_bitmatrix.Lower.lower ~config:key.lower_config nl key.env key.expr ~width)
    in
    add acc "bitmatrix.matrix_height" (float_of_int (Dp_bitmatrix.Matrix.height m));
    add acc "matrix_requests" 1.0;
    m
  in
  let adder rows =
    timed acc "adders.final_adder" (fun () ->
        Dp_adders.Adder.build_rows key.adder nl ~width rows)
  in
  let out, reduced_max_arrival =
    match key.strategy with
    | Conventional ->
      let config = { Dp_baselines.Conventional.default_config with adder = key.adder } in
      ( timed ~alloc:true acc "core.reduce" (fun () ->
            Dp_baselines.Conventional.synthesize ~config nl key.env key.expr ~width),
        None )
    | Csa_opt ->
      let m = lower () in
      let rows =
        timed ~alloc:true acc "core.reduce" (fun () ->
            Dp_baselines.Csa_opt.allocate nl ~width (Dp_baselines.Rows.of_matrix ~width m))
      in
      (adder rows, Some (max_arrival nl rows))
    | _ ->
      let m = lower () in
      timed ~alloc:true acc "core.reduce" (fun () -> allocate key.strategy nl m);
      let rows = Dp_bitmatrix.Matrix.operand_rows m in
      (adder rows, Some (max_arrival nl rows))
  in
  let result =
    timed acc "netlist.annotate" (fun () ->
        Netlist.set_output nl "out" out;
        {
          Dp_flow.Synth.strategy = key.strategy;
          netlist = nl;
          output = "out";
          width;
          stats = Stats.of_netlist nl;
          tree_switching = Dp_power.Switching.tree_switching nl;
          total_switching = Dp_power.Switching.total_switching nl;
          reduced_max_arrival;
        })
  in
  ok (timed ~alloc:true acc "verify.lint" (fun () -> Dp_verify.Lint.gate ~level:key.check_level nl));
  Netlist.detach_gov nl;
  let verilog = timed ~alloc:true acc "netlist.verilog_emit" (fun () -> Verilog.emit nl) in
  add acc "netlist.verilog_kb" (float_of_int (String.length verilog) /. 1024.0);
  let digest = Dp_cache.Key.digest key in
  let outcome = { Dp_cache.Serve.result; verilog; digest; width; cached = false } in
  ignore
    (timed acc "server.protocol" (fun () ->
         Json.to_string (Protocol.result_record p outcome)));
  let store = Store.create ~dir () in
  let entry = { Store.fingerprint = Dp_cache.Key.fingerprint key; result; verilog } in
  timed acc "cache.store_write" (fun () -> Store.add store key entry);
  ignore (timed acc "cache.store_hit" (fun () -> Store.find store key));
  let cold = Store.create ~dir () in
  (match timed ~alloc:true acc "cache.store_disk_read" (fun () -> Store.find cold key) with
  | Some _ -> ()
  | None -> failwith ("disk read missed " ^ digest));
  add acc "cache.entry_kb"
    (float_of_int (Unix.stat (Filename.concat dir (digest ^ ".dpc"))).st_size /. 1024.0);
  Digest.to_hex (Digest.string verilog)

let inprocess_ms (r : Mix.req) =
  let sr = ok (Protocol.serve_request ~tech r.params) in
  let t0 = now () in
  let o = ok (Dp_cache.Serve.run sr) in
  ((now () -. t0) *. 1000.0, Digest.to_hex (Digest.string o.verilog))

(* Layers whose per-pass sums are shares of the in-process request. *)
let synthesis_layers =
  [
    "cache.key_ms"; "bitmatrix.lower_ms"; "core.reduce_ms"; "adders.final_adder_ms";
    "netlist.annotate_ms"; "verify.lint_ms"; "netlist.verilog_emit_ms";
  ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Socket layers *)

let rtt_ms c line =
  let t0 = now () in
  match Proc.rpc_line c line with
  | Ok l -> Ok ((now () -. t0) *. 1000.0, l)
  | Error _ as e -> e

(* Memory-hit request [r] timed straight to a shard and through the
   router, and a ping to the shard; the same request served in-process
   from a memory hit is the baseline the socket overhead is taken from. *)
let socket_layers ~dpsyn ~dir ~iterations (r : Mix.req) =
  let srv = Proc.start ~dpsyn ~dir (Proc.Sharded { shards = 2; capacity = 48 }) in
  Fun.protect ~finally:(fun () -> Proc.stop srv) @@ fun () ->
  let conn s = match Proc.connect s with Some c -> c | None -> failwith ("connect " ^ s) in
  let router = conn srv.socket in
  let shard = conn (List.hd srv.shard_sockets) in
  let ping = Json.to_string (Proc.op "ping") in
  let failed = ref 0 in
  let sample c line =
    match rtt_ms c line with
    | Ok (ms, resp) when Proc.answered_ok resp -> Some ms
    | _ ->
      incr failed;
      None
  in
  (* Through the router once (stored), then into every shard's memory. *)
  ignore (sample router r.line);
  List.iter (fun s -> ignore (Proc.once s (Result.get_ok (Json.of_string r.line)))) srv.shard_sockets;
  let pings = ref [] and direct = ref [] and routed = ref [] in
  for _ = 1 to iterations do
    Option.iter (fun v -> pings := v :: !pings) (sample shard ping);
    Option.iter (fun v -> direct := v :: !direct) (sample shard r.line);
    Option.iter (fun v -> routed := v :: !routed) (sample router r.line)
  done;
  Proc.close router;
  Proc.close shard;
  let store = Store.create () in
  let sr = ok (Protocol.serve_request ~tech r.params) in
  ignore (Dp_cache.Serve.run ~store sr);
  let inproc =
    List.init iterations (fun _ ->
        let t0 = now () in
        (match Protocol.request_of_line r.line with
        | Ok { Protocol.req = Protocol.Synth p; id } ->
          let sr = ok (Protocol.serve_request ~tech p) in
          let o = ok (Dp_cache.Serve.run ~store sr) in
          ignore (Json.to_string (Protocol.synth_response ~id p o))
        | _ -> failwith "request line does not parse");
        (now () -. t0) *. 1000.0)
  in
  let direct_ms = median !direct in
  ( [
      ("server.ping_ms", median !pings);
      ("server.overhead_ms", direct_ms -. median inproc);
      ("router.relay_ms", median !routed -. direct_ms);
    ],
    (3 * iterations) + 1,
    !failed )

(* ------------------------------------------------------------------ *)

type result = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  mismatches : int;
  context : (string * Json.t) list;
}

(* [run ~dpsyn ~seconds ~passes_min sample] replays [sample] pass after
   pass until [seconds] have gone and at least [passes_min] passes ran;
   every layer reports the median over passes of its mean per request. *)
let run ~dpsyn ~seconds ~passes_min ~socket_iterations (sample : Mix.req list) =
  (* First use of the counter library in this process: the certified
     bodies are searched for here. *)
  let t0 = now () in
  Dp_counters.Certify.ensure tech;
  let certify_ms = (now () -. t0) *. 1000.0 in
  let n = float_of_int (List.length sample) in
  let per_pass = Hashtbl.create 32 in
  let record name v =
    Hashtbl.replace per_pass name (v :: Option.value ~default:[] (Hashtbl.find_opt per_pass name))
  in
  let mismatches = ref 0 and replays = ref 0 and passes = ref 0 in
  let deadline = now () +. seconds in
  let dir = "trace-store" in
  while !passes < passes_min || now () < deadline do
    let acc : acc = Hashtbl.create 32 in
    List.iter
      (fun r ->
        let md5 = replay acc ~dir r in
        let ms, served_md5 = inprocess_ms r in
        add acc "inprocess_ms" ms;
        incr replays;
        if md5 <> served_md5 then incr mismatches)
      sample;
    Hashtbl.iter
      (fun name v ->
        let denom =
          if name = "bitmatrix.matrix_height" then
            Option.value ~default:n (Hashtbl.find_opt acc "matrix_requests")
          else n
        in
        record name (v /. denom))
      acc;
    incr passes
  done;
  Proc.remove_tree dir;
  let m name = median (Option.value ~default:[] (Hashtbl.find_opt per_pass name)) in
  let socket, socket_attempted, socket_failed =
    socket_layers ~dpsyn ~dir:"trace-topology" ~iterations:socket_iterations (List.hd sample)
  in
  Proc.remove_tree "trace-topology";
  let layer_sum = List.fold_left (fun s l -> s +. m l) 0.0 synthesis_layers in
  let names =
    [
      "expr.parse_ms"; "cache.key_ms"; "cache.store_hit_ms"; "cache.store_disk_read_ms";
      "cache.store_write_ms"; "bitmatrix.lower_ms"; "core.reduce_ms"; "adders.final_adder_ms";
      "netlist.annotate_ms"; "verify.lint_ms"; "netlist.verilog_emit_ms"; "server.protocol_ms";
      "bitmatrix.lower_alloc_kw"; "core.reduce_alloc_kw"; "verify.lint_alloc_kw";
      "netlist.verilog_emit_alloc_kw"; "cache.store_disk_read_alloc_kw";
      "bitmatrix.matrix_height"; "netlist.verilog_kb"; "cache.entry_kb";
    ]
  in
  {
    metrics =
      (("counters.certify_ms", certify_ms) :: List.map (fun l -> (l, m l)) names) @ socket;
    attempted = !replays + socket_attempted;
    failed = socket_failed;
    mismatches = !mismatches;
    context =
      [
        ("trace_passes", Json.Int !passes);
        ("trace_sample", Json.Int (List.length sample));
        ("inprocess_serve_ms", Json.Float (m "inprocess_ms"));
        ("synthesis_layers_ms", Json.Float layer_sum);
        ("unaccounted_pct", Json.Float (100.0 *. (m "inprocess_ms" -. layer_sum) /. m "inprocess_ms"));
      ];
  }

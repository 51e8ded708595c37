(* Served-path benchmark for [dpsyn serve].

     main.exe --workload W --seed N --seconds S --trace 0|1 [--dpsyn EXE]
     main.exe --smoke [--workload W] [--benchmark BENCHMARK.json]
     main.exe compare [--benchmark BENCHMARK.json] A B
     main.exe --reference-echo      (started by a run: see host.ml)

   A run prints a context line and then, as its last line, the result:
   the end-to-end metrics with --trace 0, the per-layer metrics of the
   traced pass with --trace 1.  See README.md. *)

module Json = Dp_server.Json

let units =
  [
    ("throughput_rps", "1/s"); ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms");
    ("server_cpu_ms_per_req", "ms"); ("rss_mb", "MiB"); ("setup_s", "s");
    ("circuit_delay_ns", "ns"); ("circuit_cells", "count"); ("circuit_switching", "activity");
    ("bitmatrix.matrix_height", "addends"); ("netlist.verilog_kb", "KiB");
    ("cache.entry_kb", "KiB");
  ]

let unit_of name =
  match List.assoc_opt name units with
  | Some u -> u
  | None ->
    if Filename.check_suffix name "_ms" then "ms"
    else if Filename.check_suffix name "_kw" then "kword"
    else invalid_arg ("no unit for " ^ name)

let command_output cmd =
  let ic = Unix.open_process_in cmd in
  let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> line
  | _ -> None

(* A digest of the program's sources, for checkouts without git. *)
let source_md5 () =
  let rec files dir =
    match Sys.readdir dir with
    | names ->
      Array.to_list names |> List.sort compare
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files p
             else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli" then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  match files "lib" @ files "bin" with
  | [] -> Json.Null
  | fs -> Json.Str (Digest.to_hex (Digest.string (String.concat "" (List.map Proc.read_file fs |> List.map Option.get))))

let print_run ~context ~correct ~attempted ~failed metrics =
  print_endline (Json.to_string (Json.Obj [ ("servebench", Json.Obj context) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v) ->
                     (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of n)) ]))
                   metrics) );
          ]))

(* The seeded sample of a workload's distinct requests the traced pass
   replays. *)
let trace_sample ~smoke ~seed (w : Mix.workload) =
  let rng = Random.State.make [| seed; 78 |] in
  let pick n l = Bench.sample_of rng (if smoke then min n 3 else n) l in
  match w with
  | Mix.Paper_fresh -> pick 28 (Mix.fresh_round w ~seed ~round:0)
  | Mix.Crypto_fresh -> pick 6 (Mix.fresh_round w ~seed ~round:0)
  | Mix.Mixed_warm ->
    let cat, heavy = Mix.working_set ~seed in
    pick 20 cat @ pick 2 heavy

(* One run; returns whether it was correct with no failed request. *)
let run_one ~dpsyn ~smoke ~seed ~seconds ~trace ~base_context (w : Mix.workload) =
  let context =
    base_context
    @ [
        ("workload", Json.Str (Mix.name w)); ("seed", Json.Int seed);
        ("seconds", Json.Float seconds); ("trace", Json.Bool trace); ("smoke", Json.Bool smoke);
        ("loadavg_at_start", Proc.loadavg ());
      ]
  in
  let correct, attempted, failed, metrics, extra =
    if trace then
      let r =
        Trace.run ~dpsyn ~seconds:(if smoke then 0.0 else seconds) ~passes_min:(if smoke then 1 else 3)
          ~socket_iterations:(if smoke then 5 else 200)
          (trace_sample ~smoke ~seed w)
      in
      (r.mismatches = 0, r.attempted, r.failed, r.metrics, r.context)
    else
      let r = Bench.run ~dpsyn ~smoke ~seed ~seconds w in
      (r.correct, r.attempted, r.failed, r.metrics, r.context)
  in
  let context =
    context
    @ [ ("attempted", Json.Int attempted); ("failed", Json.Int failed) ]
    @ extra
    @ [ ("loadavg_at_end", Proc.loadavg ()) ]
  in
  print_run ~context ~correct ~attempted ~failed metrics;
  (correct && failed = 0, List.map fst metrics)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let benchmark = ref "BENCHMARK.json" in
  match args with
  | "compare" :: rest ->
    let files = ref [] in
    Arg.parse_argv (Array.of_list ("compare" :: rest))
      [ ("--benchmark", Arg.Set_string benchmark, "FILE metric specs (BENCHMARK.json)") ]
      (fun f -> files := !files @ [ f ])
      "main.exe compare [--benchmark FILE] A B";
    (match !files with
    | [ a; b ] -> Compare.run ~benchmark:!benchmark a b
    | _ ->
      prerr_endline "compare needs two result sets";
      exit 2)
  | [ "--reference-echo" ] -> Host.echo_main ()
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
    let smoke = ref false and dpsyn = ref "_build/default/bin/dpsyn.exe" in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME paper-fresh | crypto-fresh | mixed-warm");
        ("--seed", Arg.Set_int seed, "N input seed");
        ("--seconds", Arg.Set_float seconds, "S length of the timed window");
        ("--trace", Arg.Set_int trace, "0|1 timed run or traced per-layer pass");
        ("--smoke", Arg.Set smoke, " a handful of requests per workload, every check on");
        ("--dpsyn", Arg.Set_string dpsyn, "EXE the dpsyn executable");
        ("--benchmark", Arg.Set_string benchmark, "FILE metric names to expect (smoke)");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "main.exe --workload W --seed N --seconds S --trace 0|1";
    let workloads =
      match (Mix.of_name !workload, !smoke) with
      | Some w, _ -> [ w ]
      | None, true when !workload = "" -> Mix.all
      | None, _ ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
    in
    if not (Sys.file_exists !dpsyn) then begin
      prerr_endline ("no dpsyn executable at " ^ !dpsyn);
      exit 2
    end;
    let dpsyn = if Filename.is_relative !dpsyn then Filename.concat (Sys.getcwd ()) !dpsyn else !dpsyn in
    let base_context =
      [
        ( "git_rev",
          match command_output "git rev-parse HEAD 2>/dev/null" with
          | Some r -> Json.Str r
          | None -> Json.Null );
        ("source_md5", source_md5 ());
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
      ]
    in
    let expected = if !smoke && Sys.file_exists !benchmark then Some (Compare.load_specs !benchmark) else None in
    (* Every file the run makes lives in one directory of the checkout,
       removed at the end; socket paths stay short relative to it.  Any
       way out, a signal included, stops the servers and removes it. *)
    let root = Sys.getcwd () in
    let work = Filename.concat ".servebench" (string_of_int (Unix.getpid ())) in
    if not (Sys.file_exists ".servebench") then Unix.mkdir ".servebench" 0o755;
    Unix.mkdir work 0o755;
    at_exit (fun () ->
        Proc.stop_all ();
        Sys.chdir root;
        Proc.remove_tree work);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
      [ Sys.sigint; Sys.sigterm; Sys.sighup ];
    Sys.chdir work;
    let ok =
      List.for_all Fun.id
        (List.concat_map
           (fun w ->
             List.map
               (fun trace ->
                 let ok, names =
                   run_one ~dpsyn ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~trace ~base_context w
                 in
                 match expected with
                 | None -> ok
                 | Some specs ->
                   (* The smoke setting holds the names and units to
                      BENCHMARK.json: end-to-end metrics carry a bound. *)
                   let want =
                     List.filter_map
                       (fun (n, (s : Compare.spec)) ->
                         if (s.bound = None) = trace then Some (n, s.unit) else None)
                       specs
                   in
                   let got = List.map (fun n -> (n, unit_of n)) names in
                   let diff a b = List.filter (fun x -> not (List.mem x b)) a in
                   List.iter
                     (fun (n, u) -> prerr_endline ("BENCHMARK.json lists " ^ n ^ " in " ^ u ^ ", not reported"))
                     (diff want got);
                   List.iter
                     (fun (n, u) -> prerr_endline ("reported " ^ n ^ " in " ^ u ^ ", not in BENCHMARK.json"))
                     (diff got want);
                   ok && diff want got = [] && diff got want = [])
               (if !smoke then [ false; true ] else [ !trace = 1 ]))
           workloads)
    in
    if !smoke && not ok then exit 1

(* [main.exe compare A B]: two sets of run results side by side.

   A set is a file holding the standard output of one or more runs, or a
   directory of such files.  Each run prints a context line (naming its
   workload) before its result line.  For every workload × metric the
   table gives both sides' median and quartiles and a verdict for B
   against A:

   - worse: B's median is worse than A's by more than the metric's bound
     (for a metric without a bound: by more than either side's spread,
     with the quartile ranges apart);
   - better: B's median is better than A's by more than either side's
     spread, with the quartile ranges apart;
   - unresolved: neither — the runs do not separate the two sides. *)

module Json = Dp_server.Json

type spec = { better_lower : bool; bound : float option; unit : string }

let read_file path = Option.get (Proc.read_file path)

let load_specs path =
  let doc =
    match Json.of_string (read_file path) with
    | Ok d -> d
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list key = Option.value ~default:[] (Option.bind (Json.member key doc) Json.to_list) in
  List.filter_map
    (fun m ->
      match Option.bind (Json.member "name" m) Json.to_str with
      | None -> None
      | Some name ->
        Some
          ( name,
            {
              better_lower = Json.member "better" m = Some (Json.Str "lower");
              bound = Option.bind (Json.member "bound" m) Json.to_float;
              unit = Option.value ~default:"" (Option.bind (Json.member "unit" m) Json.to_str);
            } ))
    (list "end_to_end" @ list "per_layer")

(* (workload, metric) -> values, in file order. *)
let load_runs path =
  let files =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path) |> List.sort compare |> List.map (Filename.concat path)
    else [ path ]
  in
  let table = Hashtbl.create 64 in
  List.iter
    (fun file ->
      let workload = ref "?" in
      List.iter
        (fun line ->
          match Json.of_string line with
          | Error _ -> ()
          | Ok j -> (
            (match Option.bind (Json.member "servebench" j) (Json.member "workload") with
            | Some (Json.Str w) -> workload := w
            | _ -> ());
            match Json.member "metrics" j with
            | Some (Json.Obj ms) ->
              List.iter
                (fun (name, v) ->
                  match Option.bind (Json.member "value" v) Json.to_float with
                  | Some x ->
                    let key = (!workload, name) in
                    Hashtbl.replace table key
                      (Option.value ~default:[] (Hashtbl.find_opt table key) @ [ x ])
                  | None -> ())
                ms
            | _ -> ()))
        (String.split_on_char '\n' (read_file file)))
    files;
  table

(* Quartiles as Python's [statistics.quantiles(data, n=4)] gives them
   (its default, exclusive method). *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let verdict spec (a1, am, a3) (b1, bm, b3) =
  (* Positive [change] is worse, as a share of A's median. *)
  let sign = if spec.better_lower then 1.0 else -1.0 in
  let change = sign *. (bm -. am) /. am in
  let spread = Float.max ((a3 -. a1) /. am) ((b3 -. b1) /. am) in
  let apart = b3 < a1 || b1 > a3 in
  match spec.bound with
  | Some bound when change > bound -> "worse"
  | None when change > spread && apart -> "worse"
  | _ when -.change > spread && apart -> "better"
  | _ -> "unresolved"

let run ~benchmark a b =
  let specs = load_specs benchmark in
  let ta = load_runs a and tb = load_runs b in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem tb k then k :: acc else acc) ta []
    |> List.sort compare
  in
  Printf.printf "%-13s %-30s %5s %-36s %-36s %8s  %s\n" "workload" "metric" "n" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun ((w, m) as k) ->
      let va = Hashtbl.find ta k and vb = Hashtbl.find tb k in
      let qa = quartiles va and qb = quartiles vb in
      let spec =
        Option.value ~default:{ better_lower = true; bound = None; unit = "" }
          (List.assoc_opt m specs)
      in
      let show (q1, qm, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" qm q1 q3 in
      let _, am, _ = qa and _, bm, _ = qb in
      Printf.printf "%-13s %-30s %2d/%-2d %-36s %-36s %+7.2f%%  %s\n" w m (List.length va)
        (List.length vb) (show qa) (show qb)
        (100.0 *. (bm -. am) /. am)
        (verdict spec qa qb))
    keys

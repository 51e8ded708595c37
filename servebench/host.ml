(* The host's speed, read from a fixed reference computation.

   A shared host changes speed by up to 1.75x over tens of seconds, on
   every core at once and in CPU time as well as in wall time (see
   README.md).  A run therefore times a reference block again and again
   between its requests: code of the benchmark's own (its expression
   parser and evaluator on expressions generated from a fixed seed),
   which no change to the program touches.  The timed figures are
   reported at the speed at which one block takes [nominal_cpu_ms] of
   CPU time; wall times are also scaled by the hypervisor's steal share
   (bench.ml). *)

let nominal_cpu_ms = 0.35

(* Fixed expressions over eight variables, in the syntax [Eval] parses. *)
let texts =
  lazy
    (let rng = Random.State.make [| 20_261_018 |] in
     let var () = Printf.sprintf "v%d" (Random.State.int rng 8) in
     let rec gen depth =
       if depth = 0 || Random.State.int rng 4 = 0 then
         if Random.State.int rng 5 = 0 then string_of_int (Random.State.int rng 1000) else var ()
       else
         match Random.State.int rng 6 with
         | 0 | 1 -> Printf.sprintf "%s + %s" (gen (depth - 1)) (gen (depth - 1))
         | 2 -> Printf.sprintf "%s - (%s)" (gen (depth - 1)) (gen (depth - 1))
         | 3 | 4 -> Printf.sprintf "(%s) * (%s)" (gen (depth - 1)) (gen (depth - 1))
         | _ -> Printf.sprintf "-(%s)^%d" (gen (depth - 1)) (2 + Random.State.int rng 3)
     in
     List.init 64 (fun _ -> gen 7))

let vectors = Array.init 8 (fun i -> Array.init 8 (fun j -> ((i * 8 + j) * 2_654_435_761) land 0xffff_ffff))

let block () =
  let acc = ref 0 in
  List.iter
    (fun text ->
      let e = Eval.parse text in
      Array.iter
        (fun v ->
          let value x = v.(Char.code x.[1] - Char.code '0') in
          acc := !acc lxor Eval.eval ~width:32 ~value e)
        vectors)
    (Lazy.force texts);
  !acc

let sink = ref 0

(* The reference runs in child processes, echoes, each of which answers
   a byte with the CPU time it took to run [blocks_per_message] blocks
   (about 3 ms, the size of a catalog request).  A reading drives as
   many echoes at once, closed-loop over pipes, as the workload has
   connections, so that it reads as many vCPUs as the workload keeps
   busy. *)
let blocks_per_message = 8

let echo_main () =
  let rec loop () =
    match input_char stdin with
    | _ ->
      let t0 = Sys.time () in
      for _ = 1 to blocks_per_message do
        sink := !sink lxor block ()
      done;
      Printf.printf "%.9f\n%!" (Sys.time () -. t0);
      loop ()
    | exception End_of_file -> ()
  in
  loop ();
  exit 0

type echo = { pid : int; to_echo : out_channel; from_echo : in_channel }

let echoes = ref []

let start ~streams =
  let exe = Sys.executable_name in
  echoes :=
    List.init streams (fun _ ->
        let r1, w1 = Unix.pipe ~cloexec:true () and r2, w2 = Unix.pipe ~cloexec:true () in
        let pid = Unix.create_process exe [| exe; "--reference-echo" |] r1 w2 Unix.stderr in
        Unix.close r1;
        Unix.close w2;
        Proc.live := pid :: !Proc.live;
        { pid; to_echo = Unix.out_channel_of_descr w1; from_echo = Unix.in_channel_of_descr r2 })

(* Closing its pipe ends an echo. *)
let stop () =
  List.iter
    (fun e ->
      close_out_noerr e.to_echo;
      close_in_noerr e.from_echo;
      if not (Proc.wait_exit e.pid ~timeout_s:10.0) then Proc.kill_hard e.pid;
      Proc.live := List.filter (( <> ) e.pid) !Proc.live)
    !echoes;
  echoes := []

(* One round trip: wall and CPU ms per block. *)
let round_trip e =
  let t0 = Unix.gettimeofday () in
  output_char e.to_echo 'x';
  flush e.to_echo;
  let cpu = float_of_string (input_line e.from_echo) in
  let n = float_of_int blocks_per_message in
  ((Unix.gettimeofday () -. t0) *. 1000.0 /. n, cpu *. 1000.0 /. n)

let median3 l = List.nth (List.sort compare l) 1

(* One reading, in ms per block, wall and CPU: on every echo at once,
   the median of three round trips (about 10 ms), so that one preemption
   does not move it; then the mean over the echoes. *)
let sample () =
  let one e () =
    let trips = List.init 3 (fun _ -> round_trip e) in
    (median3 (List.map fst trips), median3 (List.map snd trips))
  in
  let results =
    match !echoes with
    | [] -> invalid_arg "Host.sample: no echo"
    | [ e ] -> [ one e () ]
    | es ->
      let out = Array.make (List.length es) (0.0, 0.0) in
      List.iter Thread.join
        (List.mapi (fun i e -> Thread.create (fun () -> out.(i) <- one e ()) ()) es);
      Array.to_list out
  in
  let mean f = List.fold_left (fun s r -> s +. f r) 0.0 results /. float_of_int (List.length results) in
  (mean fst, mean snd)

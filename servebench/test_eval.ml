(* The reference evaluator against values computed by hand (arbitrary
   precision, then reduced mod 2^W), one case per catalog expression
   shape, on the exact text the benchmark sends to the server. *)

let vars prefix n f = List.init n (fun i -> (Printf.sprintf "%s%d" prefix i, f i))

let cases =
  [
    ("X2", [ ("x", 7) ], 49);
    ("X3", [ ("x", 15) ], 3375);
    ("X2+X+Y", [ ("x", 255); ("y", 255) ], 65535);
    ("(x+y+1)^2", [ ("x", 255); ("y", 255) ], 261121);
    ("x+y-z+xy-yz+10", [ ("x", 3); ("y", 4); ("z", 200) ], 261173);
    ("IIR", [ ("x", 10); ("w1", 20); ("w2", 30) ], 65156);
    ( "Kalman",
      List.map (fun v -> (v, 65535)) [ "x1"; "x2"; "x3"; "x4"; "u" ],
      4063170 );
    ("IDCT", vars "f" 8 (fun i -> (1000 * (i + 1)) + 7), 82762887);
    ("Complex", [ ("a", 1); ("b", 3); ("c", 2); ("d", 4) ], 4294967286);
    ( "Serial-Adapter",
      [ ("a1", 1); ("a2", 2); ("a3", 3); ("b1", 4095); ("b2", 4095); ("b3", 4095) ],
      28687 );
    ("FIR8", vars "x" 8 (fun i -> 4095 - (i * 300)), 6459885);
    ( "Butterfly",
      [ ("ar", 100); ("wr", 4095); ("br", 4095); ("wi", 4095); ("bi", 4095) ],
      100 );
    ("Conv3x3", vars "p" 9 (fun i -> if i = 4 then 50 else (10 * i) + 5), 40);
    ( "Dot4",
      List.concat_map
        (fun i -> [ (Printf.sprintf "a%d" i, 255); (Printf.sprintf "b%d" i, 255) ])
        [ 1; 2; 3; 4 ],
      260100 );
    ("MAC", [ ("acc", 65535); ("x", 255); ("y", 255) ], 130560);
    ("Horner3", [ ("x", 255) ], 117568010);
    ( "Crypto-MulModDiag256",
      vars "a" 8 (fun i -> 0xFFFFFFFF - (i * 12345))
      @ vars "b" 8 (fun i -> 0xDEADBEEF + (i * 777)),
      3848807401057960272 );
    ( "Crypto-MacChain",
      (("acc", (1 lsl 56) - 1) :: vars "x" 8 (fun i -> (1 lsl 28) - 1 - i))
      @ vars "y" 8 (fun i -> (1 lsl 28) - 1 - (3 * i)),
      648518311981613595 );
  ]

(* Silent on success, so the suite's output stays the program's own. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline m)
    fmt

let check_catalog (name, assign, expected) =
  let d = Option.get (Dp_designs.Catalog.find name) in
  let text = Dp_expr.Ast.to_string d.expr in
  let value x = List.assoc x assign in
  if List.sort compare (List.map fst assign) <> Eval.vars (Eval.parse text) then
    fail "%s: the case does not assign exactly the variables of %s" name text;
  let got = Eval.eval_text ~width:d.width ~value text in
  if got <> expected then fail "%s: %s gives %d, expected %d" name text got expected

let check_syntax (text, width, value, expected) =
  let got = Eval.eval_text ~width ~value:(fun _ -> value) text in
  if got <> expected then fail "%s gives %d, expected %d" text got expected

let check_rejects text =
  match Eval.parse text with
  | _ -> fail "%S parsed" text
  | exception Eval.Syntax _ -> ()

let () =
  List.iter check_catalog cases;
  List.iter check_syntax
    [
      (* ^ binds tighter than unary minus: -(3^2) = -9 = 7 mod 16 *)
      ("-x^2", 4, 3, 7);
      ("(-3)*x", 8, 5, 241);
      ("x - (x - 1)", 8, 200, 1);
      ("x^0", 5, 9, 1);
      ("(x + 1)^2 - x*x - 2*x", 62, (1 lsl 61) + 5, 1);
    ];
  List.iter check_rejects [ "x +"; "(x"; "x ^"; "x $ y"; "" ];
  if !failures > 0 then exit 1

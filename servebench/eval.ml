(* The benchmark's own reference for what a served netlist must compute.

   It reads the expression text the benchmark sends to the server with its
   own parser and evaluates it on native ints.  OCaml ints wrap modulo
   2^63, and 2^W divides 2^63 for every W <= 62, so masking the wrapped
   result of every +, - and * gives the exact value mod 2^W. *)

type t =
  | Var of string
  | Num of int
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t
  | Pow of t * int

exception Syntax of string

let syntax fmt = Printf.ksprintf (fun m -> raise (Syntax m)) fmt
let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c

(* Precedence, loosest first: [+ -], [*], unary [-], [^]. *)
let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let rec skip () =
    if !pos < n && (text.[!pos] = ' ' || text.[!pos] = '\t') then begin
      incr pos;
      skip ()
    end
  in
  let peek () =
    skip ();
    if !pos < n then Some text.[!pos] else None
  in
  let take_while p =
    let start = !pos in
    while !pos < n && p text.[!pos] do
      incr pos
    done;
    String.sub text start (!pos - start)
  in
  let rec sum () =
    let rec loop acc =
      match peek () with
      | Some '+' -> incr pos; loop (Add (acc, product ()))
      | Some '-' -> incr pos; loop (Sub (acc, product ()))
      | _ -> acc
    in
    loop (product ())
  and product () =
    let rec loop acc =
      match peek () with
      | Some '*' -> incr pos; loop (Mul (acc, unary ()))
      | _ -> acc
    in
    loop (unary ())
  and unary () =
    match peek () with
    | Some '-' -> incr pos; Neg (unary ())
    | _ -> power ()
  and power () =
    let base = atom () in
    match peek () with
    | Some '^' ->
      incr pos;
      skip ();
      let digits = take_while is_digit in
      if digits = "" then syntax "exponent expected at %d" !pos;
      Pow (base, int_of_string digits)
    | _ -> base
  and atom () =
    match peek () with
    | Some '(' ->
      incr pos;
      let e = sum () in
      if peek () <> Some ')' then syntax "')' expected at %d" !pos;
      incr pos;
      e
    | Some c when is_digit c -> (
      let digits = take_while is_digit in
      match int_of_string_opt digits with
      | Some v -> Num v
      | None -> syntax "constant %s out of range" digits)
    | Some c when is_ident_char c -> Var (take_while is_ident_char)
    | Some c -> syntax "unexpected '%c' at %d" c !pos
    | None -> syntax "unexpected end of expression"
  in
  let e = sum () in
  if peek () <> None then syntax "trailing input at %d" !pos;
  e

let rec vars = function
  | Var x -> [ x ]
  | Num _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> vars a @ vars b
  | Neg a | Pow (a, _) -> vars a

let vars e = List.sort_uniq compare (vars e)

let eval ~width ~value e =
  if width < 1 || width > 62 then invalid_arg "Eval.eval: width outside [1, 62]";
  let mask = (1 lsl width) - 1 in
  let rec go = function
    | Var x -> value x land mask
    | Num c -> c land mask
    | Add (a, b) -> (go a + go b) land mask
    | Sub (a, b) -> (go a - go b) land mask
    | Mul (a, b) -> go a * go b land mask
    | Neg a -> -go a land mask
    | Pow (a, k) ->
      let b = go a in
      let rec pow acc k = if k = 0 then acc else pow (acc * b land mask) (k - 1) in
      pow (1 land mask) k
  in
  go e

let eval_text ~width ~value text = eval ~width ~value (parse text)

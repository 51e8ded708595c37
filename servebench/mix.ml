(* The request mixes: which synthesis requests each workload sends, in
   which order, all derived from the run's seed. *)

module Json = Dp_server.Json
module Design = Dp_designs.Design
module Strategy = Dp_flow.Strategy
module Adder = Dp_adders.Adder

type req = {
  design : string;
  text : string;  (** the expression exactly as sent *)
  width : int;
  params : Dp_server.Protocol.synth_params;
  line : string;  (** the request line *)
}

let request ?(strategy = Strategy.Fa_aot) ?(adder = Adder.Cla) (d : Design.t) =
  let text = Dp_expr.Ast.to_string d.expr in
  let vars =
    List.map
      (fun (name, (v : Dp_expr.Env.var_info)) ->
        Dp_server.Protocol.var_spec ~arrival:v.arrival ~prob:v.prob ~signed:v.signed
          name ~width:v.width)
      (Dp_expr.Env.bindings d.env)
  in
  let params =
    match
      Dp_server.Protocol.synth_params ~vars ~width:(Some d.width) ~strategy ~adder
        ~check_level:Dp_verify.Lint.Strict text
    with
    | Ok p -> p
    | Error diag -> failwith (Dp_diag.Diag.to_string diag)
  in
  let line =
    Json.to_string
      (Dp_server.Protocol.request_to_json
         { Dp_server.Protocol.id = Json.Null; req = Dp_server.Protocol.Synth params })
  in
  { design = d.name; text; width = d.width; params; line }

(* Every request draws its own input probabilities, from a seed made of
   the run seed, the round and the request's place in the product, so no
   request shares a digest with another and the circuit figures average
   over many profiles. *)
let product ~seed ~round designs strategies adders =
  List.concat
    (List.mapi
       (fun i (d : Design.t) ->
         List.concat_map
           (fun strategy ->
             List.map
               (fun adder ->
                 let key = (seed, round, i, Strategy.name strategy, Adder.name adder) in
                 request ~strategy ~adder
                   (Design.with_random_probs ~seed:(Hashtbl.hash key) d))
               adders)
           strategies)
       designs)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let catalog = Dp_designs.Catalog.all

let heavy =
  List.map
    (fun n -> Option.get (Dp_designs.Catalog.find n))
    [ "Crypto-MacChain"; "Crypto-MulModDiag256" ]

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = Paper_fresh | Crypto_fresh | Mixed_warm

let all = [ Paper_fresh; Crypto_fresh; Mixed_warm ]

let name = function
  | Paper_fresh -> "paper-fresh"
  | Crypto_fresh -> "crypto-fresh"
  | Mixed_warm -> "mixed-warm"

let of_name n = List.find_opt (fun w -> name w = n) all

(* crypto-fresh's in-memory LRU holds a few rounds' worth of heavy
   entries (several MB each), so the server's resident set levels off
   early in the run instead of growing with the number of requests
   served.  mixed-warm's per-shard LRU holds a fifth of the shard's share
   of the working set, so most warm requests read from disk; the smoke
   setting shrinks it with the working set. *)
let topology ~smoke = function
  | Paper_fresh -> Proc.Single { workers = 2; capacity = 256 }
  | Crypto_fresh -> Proc.Single { workers = 2; capacity = 32 }
  | Mixed_warm -> Proc.Sharded { shards = 2; capacity = (if smoke then 2 else 48) }

let connections = function Paper_fresh -> 1 | Crypto_fresh | Mixed_warm -> 2

let strategies = function
  | Paper_fresh -> Strategy.all
  | Crypto_fresh -> Strategy.[ Fa_aot; Fa_alp; Sc_t_gpc ]
  | Mixed_warm -> Strategy.[ Conventional; Wallace; Csa_opt; Fa_aot; Fa_alp; Sc_t_gpc; Dadda_gpc ]

(* One small request per strategy; its expression is in no mix, so it
   never answers a timed request from the cache. *)
let warmups w =
  let d =
    {
      Design.name = "warm-up";
      description = "";
      expr = Dp_expr.Parse.expr "u*v + w";
      env = Dp_expr.Env.of_widths [ ("u", 4); ("v", 4); ("w", 4) ];
      width = 9;
    }
  in
  List.map (fun strategy -> request ~strategy d) (strategies w)

(* Round [r] of a fresh workload: the full design × strategy × adder
   product, in seeded order. *)
let fresh_round w ~seed ~round =
  let designs = match w with Crypto_fresh -> heavy | Paper_fresh | Mixed_warm -> catalog in
  let rng = Random.State.make [| seed; round; 1 |] in
  shuffle rng (product ~seed ~round designs (strategies w) Adder.all)

(* mixed-warm's working set, stored during set-up: every catalog design
   × seven strategies × every adder, plus four heavy 256-bit entries. *)
let working_set ~seed =
  ( product ~seed ~round:(-1) catalog (strategies Mixed_warm) Adder.all,
    product ~seed ~round:(-2) heavy Strategy.[ Fa_aot; Sc_t_gpc ] [ Adder.Cla ] )

let warm_round_size = 100
let warm_new_per_round = 10

(* Round [r] of mixed-warm: one request for each heavy entry, ten never
   seen before, and the rest drawn from the catalog working set, in
   seeded order. *)
let warm_round ~seed ~round ~catalog_set ~heavy_set =
  let rng = Random.State.make [| seed; round; 2 |] in
  let cat = Array.of_list catalog_set in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fresh =
    List.concat
      (List.init warm_new_per_round (fun i ->
           let d = pick catalog in
           let strategy = pick (strategies Mixed_warm) in
           let adder = pick Adder.all in
           product ~seed ~round:(1_000_000 + (round * warm_new_per_round) + i)
             [ d ] [ strategy ] [ adder ]))
  in
  let drawn =
    List.init
      (warm_round_size - warm_new_per_round - List.length heavy_set)
      (fun _ -> cat.(Random.State.int rng (Array.length cat)))
  in
  shuffle rng (heavy_set @ fresh @ drawn)

(* The smoke setting: the first few requests of a fresh round. *)
let smoke_round w ~seed ~round =
  let n = match w with Crypto_fresh -> 2 | Paper_fresh | Mixed_warm -> 12 in
  List.filteri (fun i _ -> i < n) (fresh_round w ~seed ~round)

(** The benchmark's own evaluator of an expression mod 2^W.

    It shares no code with the program's parser or evaluators, so it can
    check what the server builds.  The syntax is the one [dpsyn] accepts:
    identifiers, decimal constants, [+ - *], [^n], unary minus and
    parentheses, with [^] > unary [-] > [*] > [+ -]. *)

type t =
  | Var of string
  | Num of int
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t
  | Pow of t * int

exception Syntax of string

(** @raise Syntax on malformed text. *)
val parse : string -> t

(** Distinct variable names, sorted. *)
val vars : t -> string list

(** [eval ~width ~value e] is [e] mod 2^width, in [0, 2^width), with every
    variable read as the unsigned value [value x].
    @raise Invalid_argument if [width] is outside [1, 62]. *)
val eval : width:int -> value:(string -> int) -> t -> int

val eval_text : width:int -> value:(string -> int) -> string -> int

(** Tuning parameters with interdependent constraints, in the style of the
    Auto-Tuning Framework (ATF; Rasch et al., TACO 2021 / pyATF, CC 2025)
    used by the paper's MDH pipeline.

    A parameter's domain is a function of the values chosen for *earlier*
    parameters — ATF's signature feature ("interdependent tuning
    parameters"), which lets a space express constraints such as "the
    product of all tile sizes must fit the cache" natively instead of by
    rejection. *)

type config = (string * int) list
(** Chosen values, in parameter order (earlier parameters first). *)

type t = {
  p_name : string;
  domain : config -> int list;
      (** legal values given the earlier choices; may be empty (dead end) *)
}

val independent : string -> int list -> t
(** A parameter whose domain ignores earlier choices. *)

val dependent : string -> (config -> int list) -> t

val value : config -> string -> int
(** Raises [Not_found]. *)

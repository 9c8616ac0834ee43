(** Multi-dimensional extents and row-major index arithmetic. *)

type t = int array
(** Extent per dimension; every extent must be positive. The empty array is
    the shape of a scalar (one element). *)

val validate : t -> unit
(** Raises [Invalid_argument] if any extent is non-positive. *)

val rank : t -> int
val num_elements : t -> int

val equal : t -> t -> bool
val to_string : t -> string

val linearize : t -> int array -> int
(** Row-major linear offset of a multi-index; bounds-checked. *)

val delinearize : t -> int -> int array
(** Inverse of {!linearize}. *)

val iter : t -> (int array -> unit) -> unit
(** Iterate over all multi-indices in lexicographic (row-major) order. The
    index array passed to the callback is reused between calls; copy it if
    retained. *)

val fold : t -> init:'a -> f:('a -> int array -> 'a) -> 'a

val concat_extent : t -> dim:int -> int -> t
(** [concat_extent shape ~dim n] replaces the extent of [dim] with [n]. *)

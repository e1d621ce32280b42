(** Growable (index, value) sequence in ascending index order — the
    intermediate representation flowing between operation kernels and the
    masked output-write step. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> int -> 'a -> unit
(** Appends; indices must be pushed in strictly ascending order
    (checked by assertion). *)

val get_idx : 'a t -> int -> int
val get_val : 'a t -> int -> 'a
val iter : (int -> 'a -> unit) -> 'a t -> unit
val to_alist : 'a t -> (int * 'a) list
val of_alist : (int * 'a) list -> 'a t
(** Sorts by index; duplicate indices are an error (assertion). *)

val of_arrays_unsafe : int array -> 'a array -> len:int -> 'a t
(** Adopts the arrays without copying; indices must already be strictly
    ascending over the first [len] cells. *)

val to_arrays_unsafe : 'a t -> int array * 'a array * int
(** [(indices, values, len)]: the live arrays, only the first [len]
    cells meaningful.  Read-only for the caller. *)

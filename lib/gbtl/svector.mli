(** GraphBLAS vector with two storage representations: [Sparse] — sorted
    (index, value) arrays, the original layout — and [Dense] — a full
    value array plus a validity bitmap.  Stored entries are explicit — a
    stored zero is distinct from an absent entry, per the GraphBLAS data
    model.  Outputs of operations are written in place (GBTL's
    pass-by-reference convention).

    Logical content is representation-independent: iteration always runs
    in ascending index order over stored entries, and {!equal} compares
    entries, not layouts.  Reads never switch the representation.
    Conversions are explicit ({!densify} / {!sparsify}); bulk writes
    ({!replace_contents}, {!adopt_sparse}, {!commit_dense}, {!of_dense},
    ...) keep the vector's representation and then auto-switch on fill
    ratio (dense at ≥ 1/4 fill for sizes ≥ 32, back to sparse below
    1/16) when {!Format_stats.enabled} is set. *)

type 'a t

exception Dimension_mismatch of string
(** Rebinding of {!Error.Dim_mismatch}: every dimension conformance
    failure across gbtl raises this one exception. *)

exception Index_out_of_bounds of string

val create : 'a Dtype.t -> int -> 'a t
(** Empty vector of the given logical size (sparse representation). *)

val dtype : 'a t -> 'a Dtype.t
val size : 'a t -> int
val nvals : 'a t -> int

val is_dense : 'a t -> bool
val rep_name : 'a t -> string
(** ["sparse"] or ["dense"] — the format component kernels put in their
    {!Jit.Kernel_sig} cache keys. *)

val densify : 'a t -> unit
(** Switch to the dense representation (no-op if already dense);
    O(size). *)

val sparsify : 'a t -> unit
(** Switch to the sorted-pairs representation (no-op if already sparse);
    O(size). *)

val of_coo : ?dup:'a Binop.t -> 'a Dtype.t -> int -> (int * 'a) list -> 'a t
(** Build from coordinate data; duplicates are combined with [dup]
    (default: last one wins, matching GrB_SECOND).
    @raise Index_out_of_bounds *)

val of_dense : 'a Dtype.t -> 'a array -> 'a t
(** Stores every element, including zeros (PyGB's copy-from-list
    constructor). *)

val of_dense_drop_zeros : 'a Dtype.t -> 'a array -> 'a t
(** Stores only elements that are not the dtype's zero — the adjacency
    convention used by the graph converters. *)

val get : 'a t -> int -> 'a option
val get_exn : 'a t -> int -> 'a
(** @raise Not_found *)

val mem : 'a t -> int -> bool
val set : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val clear : 'a t -> unit
val dup : 'a t -> 'a t
(** Same entries, same representation. *)

val replace_contents : 'a t -> 'a Entries.t -> unit
(** Overwrite the stored entries wholesale (the unmasked, unaccumulated
    write step): in place when the vector is dense, into its own arrays
    when sparse; indices must lie within [size].  [e] may be the
    vector's own {!entries}.  May auto-switch representation.
    @raise Index_out_of_bounds *)

val entries : 'a t -> 'a Entries.t
(** The stored entries as a read-only view: a sparse vector's own arrays
    (valid until its next write), or a fresh compacted copy of a dense
    one.  Never switches the representation. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_alist : 'a t -> (int * 'a) list
val to_dense : fill:'a -> 'a t -> 'a array
val cast : into:'b Dtype.t -> 'a t -> 'b t
val map : 'a t -> f:('a -> 'a) -> 'a t
val map_inplace : 'a t -> f:('a -> 'a) -> unit

val to_bool_dense : 'a t -> bool array
(** Value-coerced truthiness per index (absent = [false]) — the mask
    interpretation of a vector. *)

val equal : 'a t -> 'a t -> bool
(** Same size, same stored positions, same values — independent of the
    representation on either side. *)

val pp : Format.formatter -> 'a t -> unit

(** {2 Direct access for kernels and the write step}

    Live internal buffers that callers must not mutate unless stated. *)

val sparse_view : 'a t -> int array * 'a array * int
(** [(indices, values, nvals)] in ascending index order, only the first
    [nvals] cells meaningful: a sparse vector's own arrays, or a fresh
    compacted copy of a dense one.  Read-only; never switches the
    representation, so concurrent readers of one vector never write
    it. *)

val dense_payload : 'a t -> ('a array * bool array) option
(** [Some (values, validity)] — the live dense payload (length [size],
    1 for size-0 vectors) — when the vector is dense; [None] when
    sparse.  The write step edits it in place and then calls
    {!commit_dense}. *)

val commit_dense : 'a t -> nvals:int -> unit
(** Record the valid-cell count after an in-place edit of the
    {!dense_payload}; may auto-sparsify. *)

val adopt_sparse : 'a t -> idx:int array -> vals:'a array -> nvals:int -> unit
(** Make the first [nvals] cells of [idx]/[vals] (strictly ascending,
    within [size]) the vector's contents, without copying; the vector
    owns the arrays afterwards.  May auto-densify. *)

val of_entries_unsafe : 'a Dtype.t -> int -> 'a Entries.t -> 'a t
(** A sparse vector adopting the arrays of fresh kernel-result entries
    without copying or switching representation (expression
    temporaries).  Indices must lie within the size. *)

val of_dense_unsafe : 'a Dtype.t -> vals:'a array -> valid:bool array -> 'a t
(** Adopt well-formed dense arrays without copying (kernel results);
    [nvals] is counted from [valid]. @raise Dimension_mismatch *)

val replace_dense_unsafe : 'a t -> vals:'a array -> valid:bool array -> unit
(** Adopt dense arrays (length [size]) as the vector's new contents.
    @raise Dimension_mismatch *)

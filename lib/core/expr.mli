(** Deferred expression objects (paper §IV "deferred operator
    evaluation").

    Building an expression captures the operators currently in context —
    a [+] built under [with_ops [binary "Minus"]] stays a Minus even if
    evaluated later — and no kernel runs until the expression reaches a
    terminating operation: assignment into a container ({!Ops.set} /
    {!Ops.update}), {!force}, or a scalar reduce.  Assignment-site
    evaluation is what lets the output's mask reach the [mxm] kernel (the
    triangle-counting [B[L] = L @ L.T] optimization). *)

exception Eval_error of string

type t =
  | Leaf of Container.t
  | Transpose of t
  | MatMul of { a : t; b : t; sr : Jit.Op_spec.semiring }
  | EwiseAdd of { a : t; b : t; op : string }
  | EwiseMult of { a : t; b : t; op : string }
  | Apply of { f : Jit.Op_spec.unary; x : t }
  | ReduceRows of { op : string; identity : string; x : t }
  | ExtractVec of { x : t; idx : Gbtl.Index_set.t }
  | ExtractMat of { x : t; rows : Gbtl.Index_set.t; cols : Gbtl.Index_set.t }
  | Select of { pred : Gbtl.Select.predicate; x : t }

val of_container : Container.t -> t

(** {2 Constructors that capture the operator context} *)

val matmul : t -> t -> t
(** [A @ B] with the nearest semiring. *)

val add : t -> t -> t
(** [A + B] (eWiseAdd) with the nearest binary operator. *)

val mult : t -> t -> t
(** [A * B] (eWiseMult). *)

val transpose : t -> t
val apply : ?f:Jit.Op_spec.unary -> t -> t
(** [gb.apply(x)]; operator from context unless given. *)

val reduce_rows : t -> t
(** Row-reduce a matrix to a vector with the context monoid. *)

val extract_vec : t -> Gbtl.Index_set.t -> t
val extract_mat : t -> Gbtl.Index_set.t -> Gbtl.Index_set.t -> t

val select : Gbtl.Select.predicate -> t -> t
(** Keep only the entries satisfying the predicate (GrB_select; an
    extension beyond the paper's Table I). *)

(** {2 Evaluation} *)

type mask_spec = { container : Container.t; complemented : bool }

val force : ?mask:mask_spec -> t -> Container.t
(** Evaluate to a fresh container.  The optional mask reaches structural
    pruning of a top-level [MatMul] (it does {e not} apply write-mask
    semantics — that is the caller's write step).  Under
    [Exec_hook.Nonblocking] with an engine installed, evaluation goes
    through the plan/fuse/schedule pipeline of [lib/exec] instead of the
    recursive evaluator; results are identical. *)

val force_blocking : ?mask:mask_spec -> t -> Container.t
(** The seed's eager recursive evaluator, regardless of mode.  The
    nonblocking engine uses it as its reference semantics. *)

val reduce_scalar : t -> float
(** Terminating scalar reduce with the context monoid, cast to float. *)

val reduce_scalar_blocking : op:string -> identity:string -> t -> float
(** Eager scalar reduce with an explicit monoid, regardless of mode. *)

val result_dtype : t -> Gbtl.Dtype.packed
(** The dtype the expression evaluates at (operand promotion, paper §V). *)

val unify : Gbtl.Dtype.packed -> Container.t -> Container.t
(** Cast to the given dtype when it differs (no copy otherwise).  A
    matrix comes back as its cached, shared promoted copy
    ({!Gbtl.Smatrix.promoted}) and must only be read; a vector is a
    fresh cast. *)

val set_fusion : bool -> unit
(** Toggle operation fusion: with fusion on (default), [apply] over a
    computed sub-expression maps the operator over the temporary in
    place — one fewer kernel dispatch and container per chain (the
    paper's §V planned lazy-evaluation improvement).  Semantics are
    unchanged either way. *)

val fusion : unit -> bool

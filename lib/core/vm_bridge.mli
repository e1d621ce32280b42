(** Hosting the DSL inside the MiniVM — the PyGB experience: containers
    respond to [@], [+], [*], [~], [.T], [.nvals], subscript assignment
    with masks, and [with] operator contexts, all dispatched dynamically
    through the interpreter (paper §IV's magic methods).

    Tier-1 benchmark programs run on the MiniVM with these hooks
    installed; every GraphBLAS operation they perform goes through
    expression construction and the JIT dispatch, with the outer loops
    interpreted. *)

type Minivm.Value.foreign +=
  | Cont of Container.t
  | Ex of Expr.t
  | Op_entry of Context.entry
  | Mask_arg of Ops.mask
  | All_indices
  | Masked_view of Container.t * Ops.mask option

val install : Minivm.Env.t -> unit
(** Installs the interpreter hooks (process-global) and seeds the
    environment with the [gb]-style builtins: [Vector], [Matrix],
    [Semiring], [Monoid], [BinaryOp], [UnaryOp], [Accumulator],
    [Replace], [NoMask], [AllIndices], [reduce], [apply],
    [reduce_rows], [select], [label_onehot], [label_decode]. *)

val wrap_container : Container.t -> Minivm.Value.t
val unwrap_container : Minivm.Value.t -> Container.t
(** @raise Minivm.Value.Type_error *)

(** {2 Host-side glue}

    Shared by the label-propagation DSL tier and the VM builtins of the
    same names — both tiers must scatter and decode identically for
    bit-identity. *)

val label_onehot_into : Container.t -> Container.t -> unit
(** [label_onehot_into labels onehot] clears [onehot] and sets
    [onehot[v, labels v] = 1] for every entry of [labels]. *)

val label_decode_into : Container.t -> Container.t -> unit
(** [label_decode_into best labels] decodes the argmax encoding
    [count * (n+1) + (n - label)]: for every entry [(v, b)] of [best],
    sets [labels v := n - (b mod (n+1))]. *)

(** {2 Registry for static analysis}

    The surface [install] provides, as data: the analyzer's scope/arity
    checker validates MiniVM programs against these without running
    them. *)

val known_attrs : string list
(** Attributes foreign containers/expressions answer ([.T], [.nvals],
    [.size], [.shape], [.dtype]). *)

val known_methods : (string * int list) list
(** Foreign method names with their accepted argument counts: [dup],
    [clear], [isequal] ([a.isequal(b)] is {!Container.equal}), [get],
    [set], [update]. *)

val builtin_arities : (string * int list) list
(** Bridge builtins with their accepted argument counts ([Vector]'s
    1-argument form also accepts a list literal). *)

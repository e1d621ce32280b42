(** k-truss: the maximal subgraph in which every edge participates in at
    least [k - 2] triangles.  Uses masked [mxm] for per-edge support and
    {!Gbtl.Select} for pruning — a further extension combining the
    paper's triangle-counting pattern with the select operation. *)

open Gbtl

val native : k:int -> bool Smatrix.t -> bool Smatrix.t
(** [native ~k adj] — [adj] must be symmetric and loop-free; the result
    is the (symmetric) adjacency of the k-truss. *)

val edge_count : bool Smatrix.t -> int
(** Undirected edge count (stored entries / 2). *)

val dsl : k:int -> Ogb.Container.t -> Ogb.Container.t
(** The same computation written in the DSL:
    [support[E] = E @ E.T; E = select (>= k-2) support] iterated to a
    fixpoint. *)

val nonblocking : k:int -> Ogb.Container.t -> Ogb.Container.t
(** {!dsl} under the nonblocking engine (the seventh tier-1
    workload). *)

val vm_program : Minivm.Ast.block
(** The filtering loop as a MiniVM script: iterations of the
    Replace-masked support mxm and the select/re-one apply until a
    round leaves the edge count unchanged (the fixpoint, as in the
    other tiers), capped at [rounds]. *)

val default_rounds : int

val vm_loops : ?rounds:int -> k:int -> Ogb.Container.t -> Ogb.Container.t
(** Run {!vm_program} through the VM bridge on an Int64 copy of the
    adjacency. *)

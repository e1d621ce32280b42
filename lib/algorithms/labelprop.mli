(** Label propagation (synchronous LPA): every vertex simultaneously
    adopts the most frequent label among its neighbours, ties broken
    toward the smallest label — community detection as an
    argmax-of-neighbour-labels semiring program (the sixth tier-1
    workload).

    The algebraic tiers pack (count, n - label) into one Int64 per
    candidate, [count*(n+1) + (n - label)], so a single Max row
    reduction performs the deterministic argmax; the one-hot scatter and
    the decode are shared host-side glue ({!Ogb.Vm_bridge}).

    Synchronous updates can oscillate (bipartite structures), so every
    tier runs at most [rounds] sweeps (default 16) and stops early at a
    fixpoint — which is bit-identical to running the budget out. *)

open Gbtl

val default_rounds : int

val native : ?rounds:int -> bool Smatrix.t -> int Svector.t
(** Tier 3 reference: adjacency-list sweeps with the same tie-break. *)

val dsl : ?rounds:int -> Ogb.Container.t -> Ogb.Container.t * int
(** The deferred-expression program (blocking evaluator); returns the
    Int64 label vector and the number of sweeps executed. *)

val nonblocking : ?rounds:int -> Ogb.Container.t -> Ogb.Container.t * int
(** {!dsl} under the nonblocking engine. *)

val vm_program : Minivm.Ast.block
(** The same program as a MiniVM script: sweeps of scatter / histogram
    mxm / encode / Max row reduce / decode until a sweep changes no
    label ([labels.isequal(before)]), capped at [rounds]. *)

val vm_loops : ?rounds:int -> Ogb.Container.t -> Ogb.Container.t
(** Run {!vm_program} through the VM bridge (labels seeded [v -> v]). *)

val seed_labels : int -> Ogb.Container.t
val tie_break_diagonal : int -> Ogb.Container.t
(** The [D[l,l] = n - l] diagonal the encoding multiplies against
    (exposed for the Tier1 registry's stand-in arguments). *)

val community_count : int Svector.t -> int

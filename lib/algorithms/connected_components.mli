(** Connected components by min-label propagation over the
    MinSelect2nd semiring — an extension beyond the paper's four
    algorithms (its §VIII argues the DSL generalizes; this exercises the
    Min* semirings it never benchmarks).

    Works on undirected (symmetric) adjacency; labels converge to the
    minimum vertex id of each component in O(diameter) pulls. *)

open Gbtl

val native : bool Smatrix.t -> int Svector.t
(** Dense label vector: every vertex gets its component id. *)

val dsl : Ogb.Container.t -> Ogb.Container.t

val vm_program : Minivm.Ast.block
(** The propagation loop as a MiniVM script: rounds of
    [labels.update(None, graph.T @ labels)] under
    [Semiring("MinSelect2nd")]/[Accumulator("Min")] until
    [labels.isequal(before)] (the fixpoint, as in {!native} and {!dsl}),
    capped at [|V|] rounds; the fifth tier-1 workload. *)

val vm_loops : Ogb.Container.t -> Ogb.Container.t
(** Run {!vm_program} through the VM bridge: labels seeded [v -> v]
    (Int64), graph passed as-is (bool adjacency, like {!dsl}). *)

val component_count : int Svector.t -> int

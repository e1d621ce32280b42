(** The analysis side of [ogb lint]: effect-system self-tests over
    seeded fixture plans (a CSC-cache hazard, an aliased-operand hazard,
    a read-only shared dense vector and a hazard-free control — all
    lowered and planned by the real pipeline) plus the {!Certify} parallel-kernel
    certification.  The CLI aggregates these with the daemon's
    {!Server.Audit} and exits nonzero on any finding. *)

type finding = { area : string; detail : string }

val describe : finding -> string

val apply_env_tamper : unit -> unit
(** Honor [OGB_CERT_TAMPER] (["chunks=<kernel>"] / ["assoc"], comma
    separated): seed a broken chunk decomposition or a widened
    associativity gate before the checks run — the seeded-defect
    regression tests assert lint catches both. *)

val run : unit -> finding list
(** Empty on a healthy tree. *)

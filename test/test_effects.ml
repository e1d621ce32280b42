(* Effect & disjointness analysis: adversarial plans with ground-truth
   hazard seeding driven through the footprint inference, the parallel-
   safety certifier's seeded-defect regressions (a broken chunk
   decomposition and a widened exact_assoc gate must both be located),
   and the degrade-loudly contract of the mandatory analysis hook. *)

open Gbtl
module Plan = Exec.Plan
module Effects = Analysis.Effects
module Certify = Analysis.Certify
module PK = Jit.Par_kernels.Certify

let f64 = Dtype.FP64

let with_arith f =
  Ogb.Context.with_ops
    [ Ogb.Context.semiring "Arithmetic"; Ogb.Context.binary "Plus" ]
    f

let mat n =
  Smatrix.of_coo f64 n n [ (0, 1, 1.0); (3, 2, 2.0); (7, 5, 1.0) ]

let vec n x = Ogb.Container.of_svector (Svector.of_dense f64 (Array.make n x))

(* -- adversarial scenarios, each with its ground-truth hazard class --

   Sizes stay >= 32 so the layout heuristic picks pull for filled
   vectors (the CSC-building direction).  Shared vectors are clean:
   kernels read them without switching their representation.  Plans are
   lowered and rewritten without the planner so the seeded layout is
   deterministic. *)

type scenario =
  | Shared_uncached of int  (* y = A.T@u + A.T@v, one uncached A: CSC WW *)
  | Shared_cached of int  (* same, but the index is prebuilt: clean *)
  | Shared_dense_vec of int  (* (u+w1)+(u+w2): shared u only read, clean *)
  | Aliased_vec of int  (* two containers over one vector: reads, clean *)
  | Aliased_mat of int  (* two containers over one uncached A: CSC WW *)
  | Inplace_accum of int  (* y = u + (A@u): consumers ordered, clean *)
  | Single_toucher of int  (* one transposed pull: no second toucher *)

let print_scenario = function
  | Shared_uncached n -> Printf.sprintf "shared-uncached-leaf(n=%d)" n
  | Shared_cached n -> Printf.sprintf "shared-cached-leaf(n=%d)" n
  | Shared_dense_vec n -> Printf.sprintf "shared-dense-vec(n=%d)" n
  | Aliased_vec n -> Printf.sprintf "aliased-operands(n=%d)" n
  | Aliased_mat n -> Printf.sprintf "aliased-matrix(n=%d)" n
  | Inplace_accum n -> Printf.sprintf "in-place-accum(n=%d)" n
  | Single_toucher n -> Printf.sprintf "single-toucher(n=%d)" n

let expected_cls = function
  | Shared_uncached _ | Aliased_mat _ -> Some Effects.Csc_cache
  | Shared_cached _ | Shared_dense_vec _ | Aliased_vec _ | Inplace_accum _
  | Single_toucher _ ->
    None

let expr_of sc =
  let open Ogb.Ops.Infix in
  with_arith (fun () ->
      match sc with
      | Shared_uncached n ->
        let a = Ogb.Container.of_smatrix (mat n) in
        (tr !!a @. !!(vec n 1.0)) +: (tr !!a @. !!(vec n 2.0))
      | Shared_cached n ->
        let sm = mat n in
        Smatrix.ensure_csc sm;
        let a = Ogb.Container.of_smatrix sm in
        (tr !!a @. !!(vec n 1.0)) +: (tr !!a @. !!(vec n 2.0))
      | Shared_dense_vec n ->
        let u = vec n 1.0 in
        (!!u +: !!(vec n 2.0)) +: (!!u +: !!(vec n 3.0))
      | Aliased_vec n ->
        let sv = Svector.of_dense f64 (Array.make n 1.0) in
        let u1 = Ogb.Container.of_svector sv
        and u2 = Ogb.Container.of_svector sv in
        (!!u1 +: !!(vec n 2.0)) +: (!!u2 +: !!(vec n 3.0))
      | Aliased_mat n ->
        let sm = mat n in
        let a1 = Ogb.Container.of_smatrix sm
        and a2 = Ogb.Container.of_smatrix sm in
        (tr !!a1 @. !!(vec n 1.0)) +: (tr !!a2 @. !!(vec n 2.0))
      | Inplace_accum n ->
        let u = vec n 1.0 in
        !!u +: (!!(Ogb.Container.of_smatrix (mat n)) @. !!u)
      | Single_toucher n ->
        tr !!(Ogb.Container.of_smatrix (mat n)) @. !!(vec n 1.0))

let plan_of sc =
  let p = Plan.of_expr (expr_of sc) in
  Exec.Rewrite.run p;
  p

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 32 72 in
    oneofl
      [ Shared_uncached n; Shared_cached n; Shared_dense_vec n;
        Aliased_vec n; Aliased_mat n; Inplace_accum n; Single_toucher n ])

let qcheck_ground_truth =
  QCheck.Test.make ~count:60 ~name:"adversarial plans match seeded ground truth"
    (QCheck.make scenario_gen ~print:print_scenario)
    (fun sc ->
      let hs = Effects.find ~assume_formats:true (plan_of sc) in
      match expected_cls sc with
      | Some cls ->
        List.exists (fun h -> h.Effects.cls = cls) hs
        || QCheck.Test.fail_reportf "seeded hazard not flagged (found: %s)"
             (String.concat "; " (List.map Effects.describe hs))
      | None ->
        hs = []
        || QCheck.Test.fail_reportf "false positive: %s"
             (Effects.describe (List.hd hs)))

(* every plan — hazardous or not — must come out of the mandatory hook +
   planner pipeline hazard-free: pre-schedule remediation repairs the
   seeded races, and planner-chosen schedules introduce none *)
let qcheck_planner_schedules_safe =
  QCheck.Test.make ~count:24
    ~name:"planner-chosen schedules are hazard-free after remediation"
    (QCheck.make scenario_gen ~print:print_scenario)
    (fun sc ->
      (* chaos runs arm analysis.effects.exn suite-wide; this property is
         about the un-degraded pipeline, the degrade path has its own test *)
      Fault.suspended @@ fun () ->
      (* the pipeline must remedy what the format-aware analysis finds,
         so run it format-aware whatever the ambient OGB_FORMATS says *)
      Format_stats.with_enabled true @@ fun () ->
      Analysis.Hook.install ();
      Fun.protect ~finally:Analysis.Hook.uninstall (fun () ->
          let plan = Exec.plan_force (expr_of sc) in
          (* the mandatory gate [Exec.force] runs right before the
             scheduler starts: planning tolerates hazards, this remedies
             them (or raises on survivors) *)
          Exec.Verify_hook.run plan ~stage:"pre-schedule";
          match Effects.find ~assume_formats:true plan with
          | [] -> true
          | h :: _ ->
            QCheck.Test.fail_reportf "hazard survived the pipeline: %s"
              (Effects.describe h)))

(* -- seeded-defect regressions for the parallel-safety certifier -- *)

let test_certifier_clean () =
  match Certify.run () with
  | [] -> ()
  | f :: _ -> Alcotest.failf "clean registry flagged: %s" (Certify.describe f)

let test_broken_chunk_decomposition_caught () =
  (* hand-break one output-partitioned kernel: widen every chunk one
     slot to the right so neighbours share an output index *)
  PK.set_tamper
    (Some
       (fun d ->
         if d.PK.name = "mxv_gather" then
           { d with
             PK.chunks =
               (fun ~n ~grain ->
                 Array.map
                   (fun (lo, hi) -> (lo, min n (hi + 1)))
                   (PK.pool_chunks ~n ~grain))
           }
         else d));
  Fun.protect
    ~finally:(fun () -> PK.set_tamper None)
    (fun () ->
      let fs = Certify.run () in
      let located =
        List.filter
          (fun f ->
            f.Certify.kernel = "mxv_gather"
            && f.Certify.rule = "chunk disjointness")
          fs
      in
      if located = [] then
        Alcotest.fail "overlapping chunk decomposition was not located";
      (* the diagnostic names the size/grain that exposes the overlap *)
      let d = (List.hd located).Certify.detail in
      if not (Helpers.contains_substring d "n=") then
        Alcotest.failf "diagnostic not located: %s" d;
      (* only the tampered kernel is implicated *)
      List.iter
        (fun f ->
          if f.Certify.kernel <> "mxv_gather" then
            Alcotest.failf "untampered kernel implicated: %s"
              (Certify.describe f))
        fs)

let test_widened_assoc_gate_caught () =
  (* hand-break the exact_assoc gate: license every operator, so float
     reductions would regroup — the judgment probes must object *)
  Jit.Kernels.set_assoc_override (Some (fun ~dtype:_ ~op:_ -> true));
  Fun.protect
    ~finally:(fun () -> Jit.Kernels.set_assoc_override None)
    (fun () ->
      let fs = Certify.run () in
      let located =
        List.filter
          (fun f ->
            f.Certify.kernel = "exact_assoc"
            && f.Certify.rule = "associativity licence"
            && Helpers.contains_substring f.Certify.detail "double")
          fs
      in
      if located = [] then
        Alcotest.fail "widened associativity gate was not located")

let test_env_tamper_drives_lint () =
  (* the CI regression path: OGB_CERT_TAMPER seeds both defects and the
     lint entry point must come back with findings *)
  Unix.putenv "OGB_CERT_TAMPER" "chunks=mxv_gather,assoc";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OGB_CERT_TAMPER" "";
      PK.set_tamper None;
      Jit.Kernels.set_assoc_override None)
    (fun () ->
      Analysis.Lint.apply_env_tamper ();
      let fs = Certify.run () in
      let has rule = List.exists (fun f -> f.Certify.rule = rule) fs in
      if not (has "chunk disjointness") then
        Alcotest.fail "env tamper: chunk defect not caught";
      if not (has "associativity licence") then
        Alcotest.fail "env tamper: assoc defect not caught")

(* -- lint aggregate and daemon audit stay clean on an untampered tree -- *)

let test_lint_clean () =
  match Analysis.Lint.run () with
  | [] -> ()
  | f :: _ -> Alcotest.failf "lint finding: %s" (Analysis.Lint.describe f)

let test_daemon_audit_clean () =
  Fault.suspended @@ fun () ->
  if Server.Audit.manifest = [] then Alcotest.fail "empty audit manifest";
  match Server.Audit.run () with
  | [] -> ()
  | f :: _ -> Alcotest.failf "audit finding: %s" (Server.Audit.describe f)

(* -- the hook degrades loudly: an analysis crash is contained, counted,
      and the plan still runs (unchecked) -- *)

let test_hook_degrades_loudly () =
  Fault.disarm ();
  Jit.Jit_stats.reset ();
  (* the qcheck property above may have cached a schedule for this exact
     shape digest (its generator draws Shared_uncached at random sizes);
     a cache hit skips candidate search and with it the effects hook *)
  Exec.Planner.clear_cache ();
  Fault.arm [ ("analysis.effects.exn", Fault.Always) ];
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Jit.Jit_stats.reset ())
    (fun () ->
      Analysis.Hook.install ();
      Fun.protect ~finally:Analysis.Hook.uninstall (fun () ->
          (* a hazardous plan: with the analysis crashing it must still
             plan and come back, un-remedied but alive *)
          ignore (Exec.plan_force (expr_of (Shared_uncached 40))));
      let st = Jit.Jit_stats.snapshot () in
      if st.Jit.Jit_stats.effects_degraded = 0 then
        Alcotest.fail "analysis crash was not counted as a degrade";
      if st.Jit.Jit_stats.effects_rejections <> 0 then
        Alcotest.fail "a degraded check must not reject candidates")

let suite =
  [ Helpers.to_alcotest qcheck_ground_truth;
    Helpers.to_alcotest qcheck_planner_schedules_safe;
    Alcotest.test_case "certifier: clean registry certifies" `Quick
      test_certifier_clean;
    Alcotest.test_case "certifier: broken chunk decomposition located" `Quick
      test_broken_chunk_decomposition_caught;
    Alcotest.test_case "certifier: widened exact_assoc gate located" `Quick
      test_widened_assoc_gate_caught;
    Alcotest.test_case "certifier: OGB_CERT_TAMPER drives the lint path"
      `Quick test_env_tamper_drives_lint;
    Alcotest.test_case "lint: clean tree has no findings" `Quick
      test_lint_clean;
    Alcotest.test_case "audit: daemon shared-state probes hold" `Quick
      test_daemon_audit_clean;
    Alcotest.test_case "hook: analysis crash degrades loudly" `Quick
      test_hook_degrades_loudly ]

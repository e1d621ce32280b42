(* [ogb lint]'s analysis side: prove the effect system still catches the
   hazards it exists for (self-tests over seeded fixture plans), then
   certify the parallel kernel decompositions ({!Certify}).

   The self-tests run the real pipeline — expressions lowered, rewritten
   and planned by [Exec.plan_force] — so a rewrite or planner change
   that hides a hazard class from the analysis fails lint, not a user.

   [OGB_CERT_TAMPER] seeds defects for the CI regression tests:
   ["chunks=<kernel>"] hands the certifier an overlapping chunk
   decomposition for one kernel, ["assoc"] widens the exact_assoc gate
   to every operator.  Both must turn lint's exit nonzero. *)

type finding = { area : string; detail : string }

let describe f = Printf.sprintf "%s: %s" f.area f.detail

let apply_env_tamper () =
  match Sys.getenv_opt "OGB_CERT_TAMPER" with
  | None | Some "" -> ()
  | Some spec ->
    List.iter
      (fun item ->
        match String.index_opt item '=' with
        | Some i when String.sub item 0 i = "chunks" ->
          let victim =
            String.sub item (i + 1) (String.length item - i - 1)
          in
          Jit.Par_kernels.Certify.set_tamper
            (Some
               (fun d ->
                 if d.Jit.Par_kernels.Certify.name = victim then
                   { d with
                     Jit.Par_kernels.Certify.chunks =
                       (fun ~n ~grain ->
                         (* widen every chunk one slot to the right: the
                            classic off-by-one that makes neighbours
                            share an output index *)
                         Array.map
                           (fun (lo, hi) -> (lo, min n (hi + 1)))
                           (Jit.Par_kernels.Certify.pool_chunks ~n ~grain))
                   }
                 else d))
        | _ when item = "assoc" ->
          Jit.Kernels.set_assoc_override
            (Some (fun ~dtype:_ ~op:_ -> true))
        | _ ->
          Printf.eprintf "ogb lint: unknown OGB_CERT_TAMPER item %S\n%!" item)
      (String.split_on_char ',' spec)

let effects_self_tests () =
  Gbtl.Format_stats.with_enabled true (fun () ->
      let fs = ref [] in
      let add detail = fs := { area = "effects"; detail } :: !fs in
      let mat n =
        Ogb.Container.matrix_dense
          (List.init n (fun i ->
               List.init n (fun j -> if i = j then 0.0 else 1.0)))
      in
      let vec n x = Ogb.Container.vector_dense (List.init n (fun _ -> x)) in
      let open Ogb.Ops.Infix in
      let with_arith f =
        Ogb.Context.with_ops
          [ Ogb.Context.semiring "Arithmetic"; Ogb.Context.binary "Plus" ]
          f
      in
      let find = Effects.find ~assume_formats:true in
      (* lower + rewrite without the planner, so the fixtures' layouts
         come deterministically from the heuristic *)
      let plan_of e =
        let p = Exec.Plan.of_expr e in
        Exec.Rewrite.run p;
        p
      in
      (* seeded CSC hazard: two unordered transposed pull products over
         one uncached matrix (filled-in 64-vectors select pull) *)
      let a = mat 64 and u = vec 64 1.0 and v = vec 64 2.0 in
      let plan =
        plan_of (with_arith (fun () -> (tr !!a @. !!u) +: (tr !!a @. !!v)))
      in
      if
        not
          (List.exists
             (fun h -> h.Effects.cls = Effects.Csc_cache)
             (find plan))
      then add "seeded CSC-cache hazard (y = A.T@u + A.T@v) was not flagged";
      ignore (Effects.remedy ~strategy:Effects.Prebuild plan);
      (match find plan with
      | [] -> ()
      | l ->
        add
          (Printf.sprintf "%d hazard(s) survive the Prebuild remedy"
             (List.length l)));
      (* a hazard-free plan must pass *)
      let clean =
        plan_of (with_arith (fun () -> !!(mat 8) @. !!(vec 8 1.0)))
      in
      (match find clean with
      | [] -> ()
      | l ->
        add
          (Printf.sprintf "false positive: %s" (Effects.describe (List.hd l))));
      (* a dense vector with two unordered kernel consumers is a
         read-only share (kernels never switch its representation):
         it must not be flagged *)
      let u64 = vec 64 1.0 and w1 = vec 64 2.0 and w2 = vec 64 3.0 in
      let shared =
        plan_of (with_arith (fun () -> (!!u64 +: !!w1) +: (!!u64 +: !!w2)))
      in
      (match find shared with
      | [] -> ()
      | h :: _ ->
        add
          (Printf.sprintf "false positive on a shared dense operand: %s"
             (Effects.describe h)));
      (* aliasing: two distinct containers over one physical matrix — the
         case leaf-node identity (and CSE) cannot see *)
      let sm =
        Gbtl.Smatrix.of_dense Gbtl.Dtype.FP64
          (Array.init 64 (fun i ->
               Array.init 64 (fun j -> if i = j then 0.0 else 1.0)))
      in
      let a1 = Ogb.Container.of_smatrix sm
      and a2 = Ogb.Container.of_smatrix sm in
      let aliased =
        plan_of (with_arith (fun () -> (tr !!a1 @. !!u) +: (tr !!a2 @. !!v)))
      in
      if
        not
          (List.exists
             (fun h -> h.Effects.cls = Effects.Csc_cache)
             (find aliased))
      then add "aliased operands (two containers, one matrix) were not flagged";
      List.rev !fs)

let run () =
  effects_self_tests ()
  @ List.map
      (fun f -> { area = "certify"; detail = Certify.describe f })
      (Certify.run ())

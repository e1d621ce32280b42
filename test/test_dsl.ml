open Ogb
open Ogb.Ops.Infix

let f64 = Gbtl.Dtype.FP64

let ventries = Container.vector_entries
let mentries = Container.matrix_entries
let valist = Alcotest.(list (pair int (float 1e-9)))
let mlist = Alcotest.(list (triple int int (float 1e-9)))

(* -- containers -- *)

let test_constructors () =
  let v = Container.vector_dense [ 1.0; 2.0; 3.0 ] in
  Alcotest.check Alcotest.int "dense vector stores all" 3 (Container.nvals v);
  Alcotest.check Alcotest.string "default dtype is double" "double"
    (Container.dtype_name v);
  let vi =
    Container.vector_dense ~dtype:(Gbtl.Dtype.P Gbtl.Dtype.Int32) [ 1.9 ]
  in
  Alcotest.check Alcotest.string "dtype honoured" "int32_t"
    (Container.dtype_name vi);
  Alcotest.check valist "int cast truncates" [ (0, 1.0) ] (ventries vi);
  let m = Container.matrix_dense [ [ 1.0; 0.0 ]; [ 0.0; 4.0 ] ] in
  Alcotest.check Alcotest.(pair int int) "shape" (2, 2) (Container.shape m);
  let mc = Container.matrix_coo ~nrows:3 ~ncols:2 [ (2, 1, 5.0) ] in
  Alcotest.check mlist "coo" [ (2, 1, 5.0) ] (mentries mc)

let test_foreign_constructor () =
  let tree = Graphs.Generators.balanced_tree ~branching:2 ~height:2 in
  let m = Container.of_edge_list tree in
  Alcotest.check Alcotest.(pair int int) "7-vertex tree" (7, 7)
    (Container.shape m);
  Alcotest.check Alcotest.int "6 edges" 6 (Container.nvals m)

let test_kind_errors () =
  let v = Container.vector_dense [ 1.0 ] in
  (match Container.shape v with
  | exception Container.Kind_error _ -> ()
  | _ -> Alcotest.fail "expected Kind_error");
  let m = Container.matrix_dense [ [ 1.0 ] ] in
  match Container.size m with
  | exception Container.Kind_error _ -> ()
  | _ -> Alcotest.fail "expected Kind_error"

(* -- context stack -- *)

let test_context_defaults () =
  Alcotest.check Alcotest.string "default semiring is arithmetic" "Arithmetic"
    (Jit.Op_spec.semiring_name (Context.current_semiring ()));
  Alcotest.check Alcotest.string "default + is Plus" "Plus"
    (Context.current_add_binop ());
  Alcotest.check Alcotest.string "default * is Times" "Times"
    (Context.current_mult_binop ());
  Alcotest.check Alcotest.bool "no replace by default" false
    (Context.replace_flag ());
  Alcotest.check Alcotest.(option string) "no accumulator context" None
    (Context.current_accum ())

let test_context_nesting () =
  Context.with_ops [ Context.semiring "MinPlus" ] (fun () ->
      Alcotest.check Alcotest.string "outer semiring" "MinPlus"
        (Jit.Op_spec.semiring_name (Context.current_semiring ()));
      Context.with_ops [ Context.binary "Minus" ] (fun () ->
          Alcotest.check Alcotest.string "inner binary wins for +" "Minus"
            (Context.current_add_binop ());
          Alcotest.check Alcotest.string "semiring still visible" "MinPlus"
            (Jit.Op_spec.semiring_name (Context.current_semiring ()))));
  Alcotest.check Alcotest.int "stack restored" 0 (Context.depth ())

let test_context_restored_on_exception () =
  (try
     Context.with_ops [ Context.semiring "Logical" ] (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.check Alcotest.int "stack popped after exception" 0
    (Context.depth ())

let test_accumulator_precedence () =
  (* regression: within one with-block the accumulator must win over the
     semiring for += even though the semiring is pushed later *)
  Context.with_ops
    [ Context.accum "Second"; Context.semiring "Arithmetic" ]
    (fun () ->
      Alcotest.check Alcotest.(option string) "accumulator wins"
        (Some "Second") (Context.current_accum ()));
  (* the SSSP fallback: no accumulator entry -> semiring's ⊕ *)
  Context.with_ops [ Context.semiring "MinPlus" ] (fun () ->
      Alcotest.check Alcotest.(option string) "fallback to semiring add"
        (Some "Min") (Context.current_accum ()))

(* -- deferred expressions -- *)

let test_deferred_operator_capture () =
  (* operators are captured when the expression is BUILT, not when it is
     evaluated (paper §IV) *)
  let u = Container.vector_dense [ 5.0; 8.0 ] in
  let v = Container.vector_dense [ 3.0; 1.0 ] in
  let expr =
    Context.with_ops [ Context.binary "Minus" ] (fun () -> !!u +: !!v)
  in
  (* evaluated OUTSIDE the with-block *)
  let out = Container.vector_empty 2 in
  Ops.set out expr;
  Alcotest.check valist "Minus captured at construction"
    [ (0, 2.0); (1, 7.0) ]
    (ventries out)

let test_matmul_shapes () =
  let a = Container.matrix_dense [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let u = Container.vector_dense [ 10.0; 100.0 ] in
  let w = Container.vector_empty 2 in
  Ops.set w (!!a @. !!u);
  Alcotest.check valist "mxv" [ (0, 210.0); (1, 430.0) ] (ventries w);
  Ops.set w (!!u @. !!a);
  Alcotest.check valist "vxm" [ (0, 310.0); (1, 420.0) ] (ventries w);
  let c = Container.matrix_empty 2 2 in
  Ops.set c (!!a @. !!a);
  Alcotest.check mlist "mxm"
    [ (0, 0, 7.0); (0, 1, 10.0); (1, 0, 15.0); (1, 1, 22.0) ]
    (mentries c);
  Ops.set w (tr !!a @. !!u);
  Alcotest.check valist "transposed mxv" [ (0, 310.0); (1, 420.0) ]
    (ventries w)

let test_vector_vector_matmul_rejected () =
  let u = Container.vector_dense [ 1.0 ] in
  match Ops.set (Container.vector_empty 1) (!!u @. !!u) with
  | exception Expr.Eval_error _ -> ()
  | () -> Alcotest.fail "expected Eval_error"

let test_upcasting () =
  let vi =
    Container.vector_dense ~dtype:(Gbtl.Dtype.P Gbtl.Dtype.Int32) [ 3.0 ]
  in
  let vf = Container.vector_dense [ 0.5 ] in
  Alcotest.check Alcotest.string "int32 + double promotes to double" "double"
    (let (Gbtl.Dtype.P dt) = Expr.result_dtype (!!vi +: !!vf) in
     Gbtl.Dtype.name dt);
  let out = Container.vector_empty 1 in
  Ops.set out (!!vi +: !!vf);
  Alcotest.check valist "computed at double" [ (0, 3.5) ] (ventries out);
  (* output container dtype forces a downcast on write *)
  let outi = Container.vector_empty ~dtype:(Gbtl.Dtype.P Gbtl.Dtype.Int32) 1 in
  Ops.set outi (!!vi +: !!vf);
  Alcotest.check valist "write-site downcast truncates" [ (0, 3.0) ]
    (ventries outi)

let test_masked_set_and_replace () =
  let target = Container.vector_coo ~size:4 [ (0, 9.0); (3, 9.0) ] in
  let src = Container.vector_dense [ 1.0; 2.0; 3.0; 4.0 ] in
  let mask = Container.vector_coo ~size:4 [ (1, 1.0); (3, 1.0) ] in
  Ops.set ~mask:(Ops.Mask mask) target !!src;
  Alcotest.check valist "merge semantics"
    [ (0, 9.0); (1, 2.0); (3, 4.0) ]
    (ventries target);
  let target2 = Container.vector_coo ~size:4 [ (0, 9.0); (3, 9.0) ] in
  Ops.set ~mask:(Ops.Mask mask) ~replace:true target2 !!src;
  Alcotest.check valist "replace clears outside mask"
    [ (1, 2.0); (3, 4.0) ]
    (ventries target2);
  (* replace via context entry (gb.Replace) *)
  let target3 = Container.vector_coo ~size:4 [ (0, 9.0) ] in
  Context.with_ops [ Context.replace ] (fun () ->
      Ops.set ~mask:(Ops.Mask mask) target3 !!src);
  Alcotest.check valist "context replace"
    [ (1, 2.0); (3, 4.0) ]
    (ventries target3)

let test_complemented_mask () =
  let target = Container.vector_empty 3 in
  let src = Container.vector_dense [ 1.0; 2.0; 3.0 ] in
  let m = Container.vector_coo ~size:3 [ (1, 1.0) ] in
  Ops.set ~mask:(~~m) target !!src;
  Alcotest.check valist "complement" [ (0, 1.0); (2, 3.0) ] (ventries target)

let test_update_accumulates () =
  let target = Container.vector_coo ~size:3 [ (0, 10.0); (1, 10.0) ] in
  let src = Container.vector_coo ~size:3 [ (0, 1.0); (2, 2.0) ] in
  Ops.update target !!src;
  Alcotest.check valist "default Plus accumulation"
    [ (0, 11.0); (1, 10.0); (2, 2.0) ]
    (ventries target);
  let t2 = Container.vector_coo ~size:3 [ (0, 10.0) ] in
  Context.with_ops [ Context.semiring "MinPlus" ] (fun () ->
      Ops.update t2 !!src);
  Alcotest.check valist "accum falls back to semiring Min"
    [ (0, 1.0); (2, 2.0) ]
    (ventries t2)

let test_apply_and_reduce () =
  let v = Container.vector_dense [ 1.0; 2.0; 3.0 ] in
  let out = Container.vector_empty 3 in
  Context.with_ops
    [ Context.unary_bound ~op:"Times" 2.0 ]
    (fun () -> Ops.set out (Ops.apply !!v));
  Alcotest.check valist "apply bound Times"
    [ (0, 2.0); (1, 4.0); (2, 6.0) ]
    (ventries out);
  Alcotest.check (Alcotest.float 1e-9) "reduce default Plus" 6.0
    (Ops.reduce !!v);
  Context.with_ops
    [ Context.monoid ~op:"Max" ~identity:"MaxIdentity" ]
    (fun () ->
      Alcotest.check (Alcotest.float 1e-9) "reduce with Max monoid" 3.0
        (Ops.reduce !!v))

let test_reduce_rows () =
  let m = Container.matrix_coo ~nrows:2 ~ncols:3 [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 5.0) ] in
  let out = Container.vector_empty 2 in
  Ops.set out (Ops.reduce_rows !!m);
  Alcotest.check valist "row sums" [ (0, 3.0); (1, 5.0) ] (ventries out)

let test_scalar_assign () =
  let v = Container.vector_empty 3 in
  Ops.assign_scalar v 0.5;
  Alcotest.check valist "fill" [ (0, 0.5); (1, 0.5); (2, 0.5) ] (ventries v);
  let m = Container.matrix_empty 2 2 in
  Ops.assign_scalar ~rows:(Gbtl.Index_set.List [| 1 |]) m 7.0;
  Alcotest.check mlist "row region fill" [ (1, 0, 7.0); (1, 1, 7.0) ]
    (mentries m)

let test_set_region () =
  let v = Container.vector_coo ~size:5 [ (0, 9.0) ] in
  let src = Container.vector_dense [ 1.0; 2.0 ] in
  Ops.set_region ~rows:(Gbtl.Index_set.Range { start = 2; stop = 4 }) v !!src;
  Alcotest.check valist "region assign"
    [ (0, 9.0); (2, 1.0); (3, 2.0) ]
    (ventries v)

let test_extract_exprs () =
  let m =
    Container.matrix_coo ~nrows:3 ~ncols:3
      [ (0, 0, 1.0); (1, 1, 2.0); (2, 2, 3.0); (2, 0, 4.0) ]
  in
  let out = Container.matrix_empty 2 2 in
  Ops.set out
    (Expr.extract_mat !!m
       (Gbtl.Index_set.List [| 0; 2 |])
       (Gbtl.Index_set.List [| 0; 2 |]));
  Alcotest.check mlist "submatrix"
    [ (0, 0, 1.0); (1, 0, 4.0); (1, 1, 3.0) ]
    (mentries out)

let test_masked_mxm_pruning () =
  (* the triangle-counting form: mask reaches the mxm kernel *)
  let l =
    Container.matrix_coo ~nrows:3 ~ncols:3 [ (1, 0, 1.0); (2, 0, 1.0); (2, 1, 1.0) ]
  in
  let b = Container.matrix_empty 3 3 in
  Context.with_ops [ Context.semiring "Arithmetic" ] (fun () ->
      Ops.set ~mask:(Ops.Mask l) b (!!l @. tr !!l));
  Alcotest.check mlist "B<L> = L Lᵀ" [ (2, 1, 1.0) ] (mentries b);
  Alcotest.check (Alcotest.float 0.0) "one triangle" 1.0 (Ops.reduce !!b)

let test_error_paths () =
  let u = Container.vector_dense [ 1.0; 2.0 ] in
  let m = Container.matrix_dense [ [ 1.0 ] ] in
  (* matrix result into a vector *)
  (match Ops.set u (!!m @. !!m) with
  | exception Ops.Dsl_error _ -> ()
  | () -> Alcotest.fail "matrix-into-vector accepted");
  (* vector masked by a matrix *)
  (match Ops.set ~mask:(Ops.Mask m) u !!u with
  | exception Ops.Dsl_error _ -> ()
  | () -> Alcotest.fail "matrix mask on vector accepted");
  (* size mismatch via assignment *)
  let w3 = Container.vector_dense [ 1.0; 2.0; 3.0 ] in
  (match Ops.set u !!w3 with
  | exception Ops.Dsl_error _ -> ()
  | () -> Alcotest.fail "size mismatch accepted");
  (* shape mismatch inside an expression *)
  match Ops.set u (!!u +: !!w3) with
  | exception Expr.Eval_error _ -> ()
  | () -> Alcotest.fail "ewise size mismatch accepted"

let test_expression_chaining () =
  (* (u + v) * w evaluated lazily in one assignment *)
  let u = Container.vector_dense [ 1.0; 2.0 ] in
  let v = Container.vector_dense [ 10.0; 20.0 ] in
  let w = Container.vector_dense [ 2.0; 0.5 ] in
  let out = Container.vector_empty 2 in
  Ops.set out ((!!u +: !!v) *: !!w);
  Alcotest.check valist "chained" [ (0, 22.0); (1, 11.0) ] (ventries out)

let test_context_is_domain_local () =
  (* two domains hold different semiring contexts concurrently; each
     evaluation must use its own — PyGB's §IV limitation, lifted *)
  let a = Container.matrix_dense [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let u = Container.vector_dense [ 10.0; 100.0 ] in
  let run semiring_name =
    Context.with_ops [ Context.semiring semiring_name ] (fun () ->
        (* give the other domain time to interleave *)
        let acc = ref [] in
        for _ = 1 to 50 do
          let out = Container.vector_empty 2 in
          Ops.set out (!!a @. !!u);
          acc := Container.vector_entries out
        done;
        !acc)
  in
  let d1 = Domain.spawn (fun () -> run "MinPlus") in
  let d2 = Domain.spawn (fun () -> run "Arithmetic") in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.check valist "domain 1 used MinPlus" [ (0, 11.0); (1, 13.0) ] r1;
  Alcotest.check valist "domain 2 used Arithmetic"
    [ (0, 210.0); (1, 430.0) ]
    r2;
  Alcotest.check Alcotest.int "main domain stack untouched" 0 (Context.depth ())

let test_user_defined_operators () =
  (* paper §VIII future work: user operators by name, flowing through the
     context stack and kernel signatures like built-ins *)
  Gbtl.Binop.register_user "saturating_add"
    (fun x y -> Float.min 10.0 (x +. y));
  Gbtl.Unaryop.register_user "clamp01" (fun x -> Float.max 0.0 (Float.min 1.0 x));
  let u = Container.vector_dense [ 6.0; 0.5 ] in
  let out = Container.vector_empty 2 in
  Context.with_ops
    [ Context.binary "user:saturating_add" ]
    (fun () -> Ops.set out (!!u +: !!u));
  Alcotest.check valist "custom binary via context"
    [ (0, 10.0); (1, 1.0) ]
    (ventries out);
  Context.with_ops [ Context.unary "user:clamp01" ] (fun () ->
      Ops.set out (Ops.apply !!u));
  Alcotest.check valist "custom unary via context"
    [ (0, 1.0); (1, 0.5) ]
    (ventries out);
  (* a custom semiring over a user operator, with a literal identity *)
  let a = Container.matrix_dense [ [ 6.0; 6.0 ]; [ 0.0; 1.0 ] ] in
  Context.with_ops
    [ Context.custom_semiring ~add_op:"user:saturating_add"
        ~add_identity:"0" ~mul_op:"Times" ]
    (fun () -> Ops.set out (!!a @. !!u));
  Alcotest.check valist "custom semiring"
    [ (0, 10.0); (1, 0.5) ]
    (ventries out);
  (* unknown names still fail fast *)
  match Gbtl.Binop.of_name "user:nonexistent" Gbtl.Dtype.FP64 with
  | exception Gbtl.Binop.Unknown_operator _ -> ()
  | _ -> Alcotest.fail "expected Unknown_operator"

let test_fusion_equivalence () =
  (* apply over a computed sub-expression: fused and unfused evaluation
     must agree (fusion changes cost, never semantics) *)
  let a = Container.matrix_dense [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let u = Container.vector_dense [ 1.0; 1.0 ] in
  let run () =
    let out = Container.vector_empty 2 in
    Context.with_ops
      [ Context.unary_bound ~op:"Times" 0.5 ]
      (fun () -> Ops.set out (Ops.apply (!!a @. !!u)));
    ventries out
  in
  Expr.set_fusion true;
  let fused = run () in
  Expr.set_fusion false;
  let unfused = run () in
  Expr.set_fusion true;
  Alcotest.check valist "fused = unfused" unfused fused;
  Alcotest.check valist "value" [ (0, 1.5); (1, 3.5) ] fused

let test_fused_module_path () =
  (* apply-chain over eWise compiles as one module; fused and unfused
     evaluations must agree, including chain application to eWiseAdd
     passthrough singletons *)
  let u = Container.vector_coo ~size:4 [ (0, 5.0); (2, 1.0) ] in
  let v = Container.vector_coo ~size:4 [ (1, 7.0); (2, 2.0) ] in
  let run () =
    let out = Container.vector_empty 4 in
    Context.with_ops
      [ Context.unary_bound ~op:"Times" 2.0 ]
      (fun () ->
        Ops.set out
          (Ops.apply
             (Ops.apply ~f:(Jit.Op_spec.Named "AdditiveInverse")
                (!!u +: !!v))));
    ventries out
  in
  Expr.set_fusion true;
  let fused = run () in
  Expr.set_fusion false;
  let unfused = run () in
  Expr.set_fusion true;
  Alcotest.check valist "fused module = unfused chain" unfused fused;
  (* chain = negate then double: singleton 5 -> -10, intersection 3 -> -6 *)
  Alcotest.check valist "values (incl. passthroughs)"
    [ (0, -10.0); (1, -14.0); (2, -6.0) ]
    fused

let test_fusion_never_mutates_leaves () =
  (* apply directly on a user container must not modify it *)
  let u = Container.vector_dense [ 1.0; 2.0 ] in
  let out = Container.vector_empty 2 in
  Context.with_ops [ Context.unary "AdditiveInverse" ] (fun () ->
      Ops.set out (Ops.apply !!u));
  Alcotest.check valist "result negated" [ (0, -1.0); (1, -2.0) ]
    (ventries out);
  Alcotest.check valist "input untouched" [ (0, 1.0); (1, 2.0) ] (ventries u);
  (* ... including through a transpose view *)
  let m = Container.matrix_dense [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let outm = Container.matrix_empty 2 2 in
  Context.with_ops [ Context.unary "AdditiveInverse" ] (fun () ->
      Ops.set outm (Ops.apply (tr !!m)));
  Alcotest.check mlist "input matrix untouched"
    [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 3.0); (1, 1, 4.0) ]
    (mentries m)

(* -- operand promotion cache -- *)

let i64 = Gbtl.Dtype.P Gbtl.Dtype.Int64

(* [g.T @ labels] and [g @ labels] under Arithmetic: with a bool [g] and
   Int64 labels both read [g] through its cached promoted copy. *)
let products g labels =
  Context.with_ops [ Context.semiring "Arithmetic" ] (fun () ->
      ( ventries (Expr.force (tr !!g @. !!labels)),
        ventries (Expr.force (!!g @. !!labels)) ))

let promoted_matrix c =
  Container.as_matrix Gbtl.Dtype.Int64 (Expr.unify i64 c)

let test_promotion_cache_invalidation () =
  let n = 6 in
  let g =
    Container.matrix_coo ~dtype:(Gbtl.Dtype.P Gbtl.Dtype.Bool) ~nrows:n
      ~ncols:n
      [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0); (5, 0, 1.0) ]
  in
  let labels =
    Container.vector_coo ~dtype:i64 ~size:n
      (List.init n (fun v -> (v, float_of_int (v + 1))))
  in
  let pair = Alcotest.pair valist valist in
  (* each check first reads [g] through the cache, so a copy that
     outlived the mutation after it would show in the next check *)
  let check what =
    Alcotest.check pair what
      (products (Container.cast i64 g) labels)
      (products g labels)
  in
  let m = Container.as_matrix Gbtl.Dtype.Bool g in
  check "initial";
  let p = promoted_matrix g in
  Alcotest.(check bool) "unify shares one promoted copy" true
    (p == promoted_matrix g);
  Alcotest.(check bool) "cast returns an owned copy" false
    (p == Container.as_matrix Gbtl.Dtype.Int64 (Container.cast i64 g));
  Gbtl.Smatrix.set m 2 5 true;
  Alcotest.(check bool) "set drops the promoted copy" false
    (p == promoted_matrix g);
  check "after set";
  Gbtl.Smatrix.remove m 0 1;
  check "after remove";
  Gbtl.Smatrix.replace_contents m
    (Gbtl.Smatrix.of_coo Gbtl.Dtype.Bool n n [ (4, 1, true); (1, 1, true) ]);
  check "after replace_contents";
  Gbtl.Smatrix.map_inplace m ~f:not;
  check "after map_inplace";
  Gbtl.Smatrix.clear m;
  check "after clear"

let test_concurrent_promotion () =
  let n = 64 in
  let g =
    Container.matrix_coo ~dtype:(Gbtl.Dtype.P Gbtl.Dtype.Bool) ~nrows:n
      ~ncols:n
      (List.init (4 * n) (fun k -> ((k * 7) mod n, ((k * 13) + 1) mod n, 1.0)))
  in
  let labels =
    Container.vector_coo ~dtype:i64 ~size:n
      (List.init n (fun v -> (v, float_of_int v)))
  in
  let expected = products (Container.cast i64 g) labels in
  let ready = Atomic.make 0 in
  let domains = 4 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let p = promoted_matrix g in
    (p, products g labels)
  in
  let results = List.map Domain.join (List.init domains (fun _ -> Domain.spawn worker)) in
  let p0 = fst (List.hd results) in
  List.iteri
    (fun i (p, got) ->
      Alcotest.check (Alcotest.pair valist valist)
        (Printf.sprintf "domain %d product" i)
        expected got;
      Alcotest.(check bool)
        (Printf.sprintf "domain %d reads the published copy" i)
        true (p == p0))
    results

let suite =
  [ Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "user-defined operators" `Quick
      test_user_defined_operators;
    Alcotest.test_case "domain-local contexts" `Quick
      test_context_is_domain_local;
    Alcotest.test_case "fusion equivalence" `Quick test_fusion_equivalence;
    Alcotest.test_case "fused-module pipeline" `Quick test_fused_module_path;
    Alcotest.test_case "fusion safety" `Quick test_fusion_never_mutates_leaves;
    Alcotest.test_case "foreign constructor" `Quick test_foreign_constructor;
    Alcotest.test_case "kind errors" `Quick test_kind_errors;
    Alcotest.test_case "context defaults" `Quick test_context_defaults;
    Alcotest.test_case "context nesting" `Quick test_context_nesting;
    Alcotest.test_case "context exception safety" `Quick
      test_context_restored_on_exception;
    Alcotest.test_case "accumulator precedence" `Quick
      test_accumulator_precedence;
    Alcotest.test_case "deferred operator capture" `Quick
      test_deferred_operator_capture;
    Alcotest.test_case "matmul shape dispatch" `Quick test_matmul_shapes;
    Alcotest.test_case "vec @ vec rejected" `Quick
      test_vector_vector_matmul_rejected;
    Alcotest.test_case "upcasting" `Quick test_upcasting;
    Alcotest.test_case "masked set / replace" `Quick
      test_masked_set_and_replace;
    Alcotest.test_case "complemented mask" `Quick test_complemented_mask;
    Alcotest.test_case "update accumulates" `Quick test_update_accumulates;
    Alcotest.test_case "apply and reduce" `Quick test_apply_and_reduce;
    Alcotest.test_case "reduce rows" `Quick test_reduce_rows;
    Alcotest.test_case "scalar assign" `Quick test_scalar_assign;
    Alcotest.test_case "region assign" `Quick test_set_region;
    Alcotest.test_case "extract expressions" `Quick test_extract_exprs;
    Alcotest.test_case "masked mxm (triangle form)" `Quick
      test_masked_mxm_pruning;
    Alcotest.test_case "expression chaining" `Quick test_expression_chaining;
    Alcotest.test_case "error paths" `Quick test_error_paths;
    Alcotest.test_case "promoted operand dropped on mutation" `Quick
      test_promotion_cache_invalidation;
    Alcotest.test_case "concurrent promotion" `Quick
      test_concurrent_promotion;
  ]

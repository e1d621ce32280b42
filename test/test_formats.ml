(* The storage-format layer: representation round-trips, layout-picked
   masks, the extract_col CSC regression, and bit-identity of every
   operation across operand-format combinations (sparse/dense vectors,
   CSR scatter vs cached-CSC pull). *)

open Gbtl

let f64 = Dtype.FP64
let svec = Helpers.svector_testable f64

(* -- extract_col regression: columns come from the cached CSC side -- *)

let test_extract_col_cached () =
  let m =
    Smatrix.of_coo f64 5 4
      [ (0, 1, 2.0); (1, 0, 3.0); (1, 1, 4.0); (3, 1, 5.0); (4, 3, 6.0) ]
  in
  Format_stats.with_enabled true (fun () ->
      let before = Format_stats.get_csc_builds () in
      for _ = 1 to 3 do
        for c = 0 to 3 do
          let col = Smatrix.extract_col m c in
          let expected =
            List.filter_map
              (fun (r, c', x) -> if c' = c then Some (r, x) else None)
              (Smatrix.to_coo m)
          in
          Alcotest.(check (list (pair int (float 0.))))
            (Printf.sprintf "column %d" c)
            expected (Svector.to_alist col)
        done
      done;
      Alcotest.(check int)
        "twelve extract_col calls build the CSC side exactly once"
        (before + 1)
        (Format_stats.get_csc_builds ());
      (* mutation invalidates the cache; the next column rebuilds *)
      Smatrix.set m 2 2 7.0;
      Alcotest.(check bool) "mutation dropped the cache" false
        (Smatrix.csc_cached m);
      Alcotest.(check (list (pair int (float 0.))))
        "column read-back after mutation"
        [ (2, 7.0) ]
        (Svector.to_alist (Smatrix.extract_col m 2));
      Alcotest.(check int) "rebuilt once more" (before + 2)
        (Format_stats.get_csc_builds ()))

(* -- mask layout selection -- *)

let frontier_like n stored =
  let v = Svector.create Dtype.Bool n in
  List.iter (fun i -> Svector.set v i true) stored;
  v

let test_vmask_layout () =
  let thin = frontier_like 128 [ 3; 40; 77 ] in
  (match Format_stats.with_enabled true (fun () -> Mask.vmask thin) with
  | Mask.Vmask_sparse { size; idx; complemented } ->
    Alcotest.(check int) "sparse mask size" 128 size;
    Alcotest.(check (array int)) "sparse mask indices" [| 3; 40; 77 |] idx;
    Alcotest.(check bool) "not complemented" false complemented
  | _ -> Alcotest.fail "low-fill mask should pick the sparse layout");
  (match Format_stats.with_enabled false (fun () -> Mask.vmask thin) with
  | Mask.Vmask _ -> ()
  | _ -> Alcotest.fail "format layer off: mask must stay dense");
  let thick = frontier_like 128 (List.init 100 (fun i -> i)) in
  match Format_stats.with_enabled true (fun () -> Mask.vmask thick) with
  | Mask.Vmask _ -> ()
  | _ -> Alcotest.fail "high-fill mask should pick the dense layout"

(* -- complemented + replace write semantics, both mask layouts --

   C<¬M, replace> = T: positions where M holds are cleared (replace),
   positions where M is absent take T exactly (including removals). *)

let test_complemented_replace () =
  let n = 96 in
  let mask_idx = [ 0; 10; 20; 30 ] in
  let check_variant name mask =
    let out = Svector.create f64 n in
    List.iter (fun (i, x) -> Svector.set out i x) [ (0, 1.0); (5, 2.0); (10, 3.0); (40, 4.0) ];
    let t =
      Entries.of_arrays_unsafe [| 5; 20; 50 |] [| 9.0; 8.0; 7.0 |] ~len:3
    in
    Output.write_vector ~mask ~accum:None ~replace:true ~out ~t;
    (* 0, 10: in M, so masked out under ¬M; replace clears them.
       20: in M too — T's value there is suppressed.
       5, 50: allowed, taken from T.
       40: allowed but absent from T → removed. *)
    Alcotest.(check (list (pair int (float 0.))))
      (name ^ ": C<¬M,replace> = T")
      [ (5, 9.0); (50, 7.0) ]
      (Svector.to_alist out)
  in
  let dense = Array.make n false in
  List.iter (fun i -> dense.(i) <- true) mask_idx;
  check_variant "dense" (Mask.Vmask { dense; complemented = true });
  check_variant "sparse"
    (Mask.Vmask_sparse
       { size = n; idx = Array.of_list mask_idx; complemented = true })

let test_merge_no_replace_both_layouts () =
  let n = 80 in
  let run mask =
    let out = Svector.create f64 n in
    List.iter (fun (i, x) -> Svector.set out i x) [ (1, 1.0); (2, 2.0) ];
    let t = Entries.of_arrays_unsafe [| 1; 3 |] [| 5.0; 6.0 |] ~len:2 in
    Output.write_vector ~mask ~accum:None ~replace:false ~out ~t;
    Svector.to_alist out
  in
  let dense = Array.make n false in
  dense.(1) <- true;
  dense.(3) <- true;
  let d = run (Mask.Vmask { dense; complemented = false }) in
  let s =
    run (Mask.Vmask_sparse { size = n; idx = [| 1; 3 |]; complemented = false })
  in
  Alcotest.(check (list (pair int (float 0.))))
    "merge keeps masked-out entries" [ (1, 5.0); (2, 2.0); (3, 6.0) ] d;
  Alcotest.(check (list (pair int (float 0.)))) "layouts agree" d s

(* -- qcheck: representation round-trips are identities -- *)

let qcheck_vector_roundtrip =
  Helpers.qtest ~count:200 "densify ∘ sparsify is the identity"
    (Helpers.arb ~print:Helpers.print_vec (Helpers.vec_gen 40))
    (fun model ->
      let v = Dense_ref.svector_of_vec f64 model in
      let d = Svector.dup v in
      Svector.densify d;
      let ok1 = Svector.is_dense d && Svector.equal v d in
      Svector.sparsify d;
      let ok2 = (not (Svector.is_dense d)) && Svector.equal v d in
      ok1 && ok2 && Svector.to_alist v = Svector.to_alist d)

let qcheck_csc_roundtrip =
  Helpers.qtest ~count:200 "CSC side reproduces the CSR entries"
    (Helpers.arb ~print:Helpers.print_mat (Helpers.mat_gen 12 9))
    (fun model ->
      let m = Dense_ref.smatrix_of_mat f64 12 9 model in
      let d = Smatrix.dup m in
      Smatrix.ensure_csc d;
      (* read every column back off the CSC arrays and compare the
         re-assembled triple set against the CSR iteration *)
      let from_csc = ref [] in
      for c = Smatrix.ncols d - 1 downto 0 do
        Smatrix.iter_col (fun r x -> from_csc := (r, c, x) :: !from_csc) d c
      done;
      let by_rc (r1, c1, _) (r2, c2, _) = compare (r1, c1) (r2, c2) in
      List.sort by_rc !from_csc = List.sort by_rc (Smatrix.to_coo m)
      && Smatrix.csc_cached d
      && Smatrix.equal (Smatrix.transpose (Smatrix.transpose d)) m)

(* -- qcheck: operations are bit-identical across format combinations -- *)

let qcheck_ewise_formats =
  Helpers.qtest ~count:150 "eWiseAdd/Mult agree across vector formats"
    (Helpers.arb
       ~print:(fun (u, v) -> Helpers.print_vec u ^ " / " ^ Helpers.print_vec v)
       QCheck.Gen.(pair (Helpers.vec_gen 40) (Helpers.vec_gen 40)))
    (fun (mu, mv) ->
      List.for_all
        (fun which ->
          List.for_all
            (fun (du, dv) ->
              let u = Dense_ref.svector_of_vec f64 mu
              and v = Dense_ref.svector_of_vec f64 mv in
              if du then Svector.densify u;
              if dv then Svector.densify v;
              let got = Jit.Kernels.ewise_v which f64 ~op:"Plus" u v in
              let reference =
                Jit.Kernels.ewise_v which f64 ~op:"Plus"
                  (Dense_ref.svector_of_vec f64 mu)
                  (Dense_ref.svector_of_vec f64 mv)
              in
              Entries.to_alist got = Entries.to_alist reference)
            [ (false, true); (true, false); (true, true) ])
        [ `Add; `Mult ])

let qcheck_mxv_pull_push =
  Helpers.qtest ~count:100 "transposed mxv: CSC pull ≡ CSR scatter"
    (Helpers.arb
       ~print:(fun (m, v) -> Helpers.print_mat m ^ "\n@ " ^ Helpers.print_vec v)
       QCheck.Gen.(
         pair (Helpers.mat_gen ~density:0.4 36 36)
           (Helpers.vec_gen ~density:0.6 36)))
    (fun (mm, mv) ->
      let a = Dense_ref.smatrix_of_mat f64 36 36 mm in
      let u = Dense_ref.svector_of_vec f64 mv in
      let push =
        Format_stats.with_enabled false (fun () ->
            Jit.Kernels.mxv f64 Jit.Op_spec.arithmetic ~transpose:true a u)
      in
      let pull =
        Format_stats.with_enabled true (fun () ->
            Jit.Kernels.mxv f64 Jit.Op_spec.arithmetic ~transpose:true a
              (Dense_ref.svector_of_vec f64 mv))
      in
      Entries.to_alist push = Entries.to_alist pull)

let dense_pair_of_vec model =
  let n = Array.length model in
  let vals = Array.make n 0.0 and occ = Array.make n false in
  Array.iteri
    (fun i cell ->
      match cell with
      | Some x ->
        vals.(i) <- x;
        occ.(i) <- true
      | None -> ())
    model;
  (vals, occ)

let qcheck_vxm_dense_pull =
  Helpers.qtest ~count:100 "dense vxm: pull ≡ scatter ≡ sparse"
    (Helpers.arb
       ~print:(fun (m, v) -> Helpers.print_mat m ^ "\n@ " ^ Helpers.print_vec v)
       QCheck.Gen.(
         pair (Helpers.mat_gen ~density:0.4 30 30)
           (* both fully-occupied (the branch-free pull path) and gappy
              (the guarded path) operands *)
           (oneof [ Helpers.vec_gen ~density:1.0 30; Helpers.vec_gen ~density:0.5 30 ])))
    (fun (mm, mv) ->
      let a = Dense_ref.smatrix_of_mat f64 30 30 mm in
      let sr = Jit.Op_spec.arithmetic in
      let scatter = Jit.Kernels.vxm_dense f64 sr (dense_pair_of_vec mv) a in
      let pull =
        Format_stats.with_enabled true (fun () ->
            Jit.Kernels.vxm_pull_dense f64 sr (dense_pair_of_vec mv) a)
      in
      let sparse =
        Jit.Kernels.vxm f64 sr ~transpose:false
          (Dense_ref.svector_of_vec f64 mv)
          a
      in
      let alist_of_pair (vals, occ) =
        let out = ref [] in
        for i = Array.length occ - 1 downto 0 do
          if occ.(i) then out := (i, vals.(i)) :: !out
        done;
        !out
      in
      alist_of_pair scatter = alist_of_pair pull
      && alist_of_pair scatter = Entries.to_alist sparse)

(* -- qcheck: whole algorithms agree across pipelines -- *)

let random_graph_gen n =
  QCheck.Gen.(
    list_size (int_range n (4 * n))
      (pair (int_bound (n - 1)) (int_bound (n - 1))))

let qcheck_bfs_pipelines =
  Helpers.qtest ~count:60 "BFS: dense direction-optimized ≡ sparse push"
    (Helpers.arb
       ~print:(fun edges ->
         String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges))
       (random_graph_gen 48))
    (fun edges ->
      let adj =
        Smatrix.of_coo Dtype.Bool 48 48
          (List.concat_map
             (fun (a, b) -> [ (a, b, true); (b, a, true) ])
             ((0, 1) :: edges))
      in
      let sparse =
        Format_stats.with_enabled false (fun () ->
            Algorithms.Bfs.native_sparse adj ~src:0)
      in
      let dense =
        Format_stats.with_enabled true (fun () ->
            Algorithms.Bfs.native_dense adj ~src:0)
      in
      Svector.equal sparse dense)

let qcheck_pagerank_pipelines =
  Helpers.qtest ~count:40 "PageRank: dense/CSC pipeline ≡ sparse/CSR"
    (Helpers.arb
       ~print:(fun edges ->
         String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges))
       (random_graph_gen 40))
    (fun edges ->
      let m =
        Smatrix.of_coo f64 40 40
          (List.map (fun (a, b) -> (a, b, 1.0)) ((0, 1) :: edges))
      in
      let r_sparse, i_sparse =
        Format_stats.with_enabled false (fun () ->
            Algorithms.Pagerank.native ~max_iters:15 m)
      in
      let r_dense, i_dense =
        Format_stats.with_enabled true (fun () ->
            Algorithms.Pagerank.native ~max_iters:15 m)
      in
      (* bit-identical: both pipelines fold contributions in the same
         order, so exact float equality is required, not approximate *)
      i_sparse = i_dense && Svector.equal r_sparse r_dense)

let test_pagerank_smoke () =
  let m =
    Smatrix.of_coo f64 4 4
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0); (2, 3, 1.0); (3, 0, 1.0) ]
  in
  let r0, _ =
    Format_stats.with_enabled false (fun () -> Algorithms.Pagerank.native m)
  in
  let r1, _ =
    Format_stats.with_enabled true (fun () -> Algorithms.Pagerank.native m)
  in
  Alcotest.check svec "small-graph ranks agree" r0 r1

(* -- reads never switch the representation --

   Kernels read vectors through [Svector.sparse_view]: a dense operand is
   compacted into a fresh copy, never sparsified in place, so a shared
   vector read by concurrent products stays exactly as it was. *)

let weighted_er ~seed n =
  let rng = Graphs.Rng.create ~seed in
  Graphs.Convert.matrix_of_edges f64
    (Graphs.Generators.erdos_renyi_gnm
       ~weight:(fun r -> float_of_int (1 + Graphs.Rng.int r 9))
       rng ~nvertices:n ~nedges:(4 * n))

let filled_dense n =
  let v =
    Svector.of_coo f64 n
      (List.init n (fun i -> (i, float_of_int ((i * 7 mod 11) - 5))))
  in
  Svector.remove v 3;
  Svector.densify v;
  v

let bits v = List.map (fun (i, x) -> (i, Int64.bits_of_float x)) (Svector.to_alist v)

let test_reads_do_not_write () =
  Format_stats.with_enabled true (fun () ->
      let n = 64 in
      let a = weighted_er ~seed:3 n in
      Smatrix.ensure_csc a;
      let u = filled_dense n in
      let before = bits u in
      let sr = Jit.Op_spec.arithmetic in
      let conversions () =
        let c = Format_stats.counters () in
        List.assoc "densify" c + List.assoc "sparsify" c
      in
      let c0 = conversions () in
      List.iter
        (fun (name, read) ->
          ignore (read ());
          Alcotest.(check bool) (name ^ ": operand still dense") true
            (Svector.is_dense u);
          Alcotest.(check (list (pair int int64)))
            (name ^ ": operand contents unchanged") before (bits u))
        [ ("mxv", fun () -> Jit.Kernels.mxv f64 sr ~transpose:false a u |> Entries.length);
          ("mxv transposed (pull)", fun () ->
            Jit.Kernels.mxv f64 sr ~transpose:true a u |> Entries.length);
          ("mxv transposed (push)", fun () ->
            Jit.Kernels.mxv f64 sr ~direction:`Push ~transpose:true a u
            |> Entries.length);
          ("vxm", fun () -> Jit.Kernels.vxm f64 sr ~transpose:false u a |> Entries.length);
          ("ewise_v add", fun () ->
            Jit.Kernels.ewise_v `Add f64 ~op:"Plus" u u |> Entries.length);
          ("ewise_v mult", fun () ->
            Jit.Kernels.ewise_v `Mult f64 ~op:"Times" u (Svector.dup u)
            |> Entries.length);
          ("reduce_v_scalar", fun () ->
            int_of_float
              (Jit.Kernels.reduce_v_scalar f64 ~op:"Plus" ~identity:"0" u)) ];
      Alcotest.(check int) "no representation conversions" c0 (conversions ()))

let test_concurrent_shared_reads () =
  let n = 96 in
  let a = weighted_er ~seed:5 n in
  Smatrix.ensure_csc a;
  let u = filled_dense n in
  let sr = Jit.Op_spec.min_plus in
  let product () =
    ( Entries.to_alist (Jit.Kernels.mxv f64 sr ~transpose:true a u),
      Entries.to_alist (Jit.Kernels.mxv f64 sr ~transpose:false a u),
      Entries.to_alist (Jit.Kernels.vxm f64 sr ~transpose:false u a) )
  in
  let expected = product () in
  let before = bits u in
  let worker () = List.init 40 (fun _ -> product ()) in
  let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn worker)) in
  List.iteri
    (fun d rs ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d: same products" d)
            true (r = expected))
        rs)
    results;
  Alcotest.(check bool) "shared vector still dense" true (Svector.is_dense u);
  Alcotest.(check (list (pair int int64))) "shared vector unchanged" before
    (bits u)

(* -- aliasing: the target is also an operand or the mask --

   The write step updates a dense target in place, so each case runs
   with the target dense and sparse, through the blocking and the
   nonblocking evaluator, and is compared with the generic library
   tier (Gbtl operations on a separate copy). *)

let aliasing_cases n =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let graph = weighted_er ~seed:9 n in
  let g = Container.of_smatrix graph in
  let min_plus = Semiring.min_plus f64 and arith = Semiring.arithmetic f64 in
  [ ( "path min= A.T @ path",
      (fun () -> Svector.of_coo f64 n [ (0, 0.0) ]),
      (fun path ->
        Context.with_ops
          [ Context.semiring "MinPlus"; Context.accum "Min" ]
          (fun () ->
            let p = Container.of_svector path in
            Ops.update p (tr !!g @. !!p))),
      fun path ->
        Matmul.mxv ~accum:(Binop.min f64) ~transpose_a:true min_plus ~out:path
          graph path );
    ( "v<v> += v",
      (fun () ->
        Svector.of_coo f64 n
          (List.init (n / 2) (fun i -> (2 * i, float_of_int (i mod 3))))),
      (fun v ->
        let c = Container.of_svector v in
        Ops.update ~mask:(mask c) ~accum:"Plus" c !!c),
      fun v ->
        Apply_reduce.apply_vector ~mask:(Mask.vmask v) ~accum:(Binop.plus f64)
          (Unaryop.identity f64) ~out:v v );
    ( "w<¬w, replace> = A @ w",
      (fun () ->
        Svector.of_coo f64 n (List.init (n / 3) (fun i -> (3 * i, 1.0)))),
      (fun w ->
        Context.with_ops [ Context.semiring "Arithmetic" ] (fun () ->
            let c = Container.of_svector w in
            Ops.set ~mask:(~~c) ~replace:true c (!!g @. !!c))),
      fun w ->
        Matmul.mxv ~mask:(Mask.vmask ~complemented:true w) ~replace:true arith
          ~out:w graph w ) ]

let test_aliasing () =
  let n = 64 in
  Format_stats.with_enabled true (fun () ->
      List.iter
        (fun (name, init, dsl, generic) ->
          List.iter
            (fun (dense, mode) ->
              let ours = init () and theirs = init () in
              if dense then Svector.densify ours else Svector.sparsify ours;
              for _round = 1 to 4 do
                Exec.with_mode mode (fun () -> dsl ours);
                generic theirs
              done;
              Alcotest.(check (list (pair int int64)))
                (Printf.sprintf "%s (%s target, %s)" name
                   (if dense then "dense" else "sparse")
                   (match mode with
                   | Exec.Blocking -> "blocking"
                   | Exec.Nonblocking -> "nonblocking"))
                (bits theirs) (bits ours))
            [ (true, Exec.Blocking); (false, Exec.Blocking);
              (true, Exec.Nonblocking); (false, Exec.Nonblocking) ])
        (aliasing_cases n))

(* -- conversions stay a constant per SSSP call --

   Each of the |V| rounds reads the dense path vector and accumulates
   into it; neither the read nor the write may convert it, so the
   densify + sparsify count of one call does not grow with the round
   count. *)

let test_sssp_conversion_count () =
  Format_stats.with_enabled true (fun () ->
      let n = 256 in
      let rng = Graphs.Rng.create ~seed:7 in
      let graph =
        Graphs.Convert.matrix_of_edges f64
          (Graphs.Generators.erdos_renyi_paper rng ~nvertices:n)
      in
      let conversions f =
        let count () =
          let c = Format_stats.counters () in
          List.assoc "densify" c + List.assoc "sparsify" c
        in
        let c0 = count () in
        ignore (f ());
        count () - c0
      in
      let native =
        conversions (fun () -> Algorithms.Sssp.native graph ~src:0)
      in
      let vm =
        conversions (fun () ->
            Algorithms.Sssp.vm_loops (Ogb.Container.of_smatrix graph) ~src:0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "native: %d conversions for %d rounds" native n)
        true (native <= 8);
      Alcotest.(check bool)
        (Printf.sprintf "vm_loops: %d conversions for %d rounds" vm n)
        true (vm <= 8))

let suite =
  [ Alcotest.test_case "extract_col is served from the cached CSC side" `Quick
      test_extract_col_cached;
    Alcotest.test_case "vmask layout picked by fill ratio" `Quick
      test_vmask_layout;
    Alcotest.test_case "complemented+replace write, both mask layouts" `Quick
      test_complemented_replace;
    Alcotest.test_case "merge write, both mask layouts" `Quick
      test_merge_no_replace_both_layouts;
    Alcotest.test_case "pagerank pipelines, smoke" `Quick test_pagerank_smoke;
    Helpers.to_alcotest qcheck_vector_roundtrip;
    Helpers.to_alcotest qcheck_csc_roundtrip;
    Helpers.to_alcotest qcheck_ewise_formats;
    Helpers.to_alcotest qcheck_mxv_pull_push;
    Helpers.to_alcotest qcheck_vxm_dense_pull;
    Helpers.to_alcotest qcheck_bfs_pipelines;
    Helpers.to_alcotest qcheck_pagerank_pipelines;
    Alcotest.test_case "kernel reads leave a dense operand as it was" `Quick
      test_reads_do_not_write;
    Alcotest.test_case "four domains read one shared dense vector" `Quick
      test_concurrent_shared_reads;
    Alcotest.test_case "target aliasing an operand or the mask" `Quick
      test_aliasing;
    Alcotest.test_case "SSSP conversions do not grow with rounds" `Quick
      test_sssp_conversion_count;
  ]
